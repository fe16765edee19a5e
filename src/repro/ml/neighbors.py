"""k-nearest-neighbor classifier and regressor (brute force, scipy cdist).

scipy loads on the first neighbor query (``predict`` or ``predict_proba``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_array, check_X_y
from repro.ml.preprocessing import StandardScaler

__all__ = ["KNeighborsClassifier", "KNeighborsRegressor"]


class _BaseKNN(BaseEstimator):
    def __init__(self, n_neighbors: int = 5) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._scaler: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseKNN":
        X, y = check_X_y(X, y)
        self._scaler = StandardScaler().fit(X)
        self._X = self._scaler.transform(X)
        self._y = y
        return self

    def _neighbor_indices(self, X: np.ndarray) -> np.ndarray:
        from scipy.spatial.distance import cdist

        if self._X is None:
            raise RuntimeError("Model is not fitted")
        Xs = self._scaler.transform(check_array(X))
        k = min(self.n_neighbors, self._X.shape[0])
        distances = cdist(Xs, self._X)
        return np.argpartition(distances, kth=k - 1, axis=1)[:, :k]


class KNeighborsClassifier(_BaseKNN, ClassifierMixin):
    """Majority vote over the k nearest (standardized-Euclidean) neighbors."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        super().fit(X, y)
        self.classes_ = np.unique(self._y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        neighbors = self._neighbor_indices(X)
        labels = self._y[neighbors]
        proba = np.zeros((len(neighbors), len(self.classes_)))
        for j, cls in enumerate(self.classes_):
            proba[:, j] = np.mean(labels == cls, axis=1)
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class KNeighborsRegressor(_BaseKNN, RegressorMixin):
    """Mean of the k nearest neighbors' targets."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        neighbors = self._neighbor_indices(X)
        return self._y.astype(float)[neighbors].mean(axis=1)
