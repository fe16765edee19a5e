"""Random forests (bagged CART trees with feature subsampling).

The random-forest classifier is the paper's default downstream model for
classification and detection tasks; the regressor serves regression tasks.
``feature_importances_`` (mean impurity decrease) powers Table IV and the
importance-based pruning inside the FastFT engine.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_array, check_X_y
from repro.ml.split_engine import SplitEngine, resolve_engine
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(BaseEstimator):
    # Backstop for forests pickled before the split-engine layer existed.
    split_engine: "SplitEngine | None" = None

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int | None = 0,
        split_engine: "SplitEngine | None" = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.split_engine = split_engine
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None

    def _make_tree(self, seed: int, engine: SplitEngine):
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForest":
        X, y = check_X_y(X, y)
        self._pre_fit(y)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.estimators_ = []
        importances = np.zeros(X.shape[1], dtype=float)
        # One engine instance serves every tree: each fit presorts its own
        # bootstrap sample at most once, scratch buffers are allocated once
        # per forest, and the forest-level hooks let the presort engine
        # derive per-sample orders from a single presort of X.
        engine = resolve_engine(self.split_engine)
        engine.begin_forest(X, y)
        try:
            for _ in range(self.n_estimators):
                tree = self._make_tree(int(rng.integers(0, 2**31 - 1)), engine)
                if self.bootstrap:
                    idx = rng.integers(0, n, size=n)
                    engine.set_bootstrap(idx)
                    tree.fit(X[idx], y[idx])
                else:
                    engine.set_bootstrap(None)
                    tree.fit(X, y)
                self.estimators_.append(tree)
                importances += tree.feature_importances_
        finally:
            engine.end_forest()
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else np.zeros_like(importances)
        )
        return self

    def _pre_fit(self, y: np.ndarray) -> None:
        pass


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Majority-probability-vote forest of Gini CART trees."""

    def _pre_fit(self, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)

    def _make_tree(self, seed: int, engine: SplitEngine) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
            split_engine=engine,
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("Forest is not fitted")
        X = check_array(X)
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes), dtype=float)
        for tree in self.estimators_:
            tree_proba = tree.predict_proba(X)
            # Bootstrap samples may miss rare classes; align columns by label.
            cols = np.searchsorted(self.classes_, tree.classes_)
            proba[:, cols] += tree_proba
        proba /= len(self.estimators_)
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Mean-aggregated forest of variance-reduction CART trees."""

    def _make_tree(self, seed: int, engine: SplitEngine) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
            split_engine=engine,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("Forest is not fitted")
        X = check_array(X)
        preds = np.stack([tree.predict(X) for tree in self.estimators_], axis=0)
        return preds.mean(axis=0)
