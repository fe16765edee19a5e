"""Feature preprocessing: scalers, encoders, clipping and discretization.

FastFT applies many unstable operations (``log``, ``reciprocal``, ``divide``)
whose outputs must be sanitized before reaching a downstream model;
:class:`RobustClipper` performs the NaN/inf replacement and winsorization the
paper's pipeline needs, and :class:`KBinsDiscretizer` supports the
histogram-based mutual-information estimator.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.ml.base import BaseEstimator

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "RobustClipper",
    "LabelEncoder",
    "KBinsDiscretizer",
    "sanitize_features",
]


class StandardScaler(BaseEstimator):
    """Zero-mean, unit-variance scaling per column."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return np.asarray(X, dtype=float) * self.scale_ + self.mean_


class MinMaxScaler(BaseEstimator):
    """Scale each column into ``[feature_min, feature_max]`` (default [0, 1])."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)) -> None:
        self.feature_range = feature_range
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=float)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        self.range_ = np.where(span > 0, span, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        lo, hi = self.feature_range
        unit = (np.asarray(X, dtype=float) - self.min_) / self.range_
        return unit * (hi - lo) + lo

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class RobustClipper(BaseEstimator):
    """Replace non-finite values and winsorize to column quantiles.

    Parameters
    ----------
    quantile:
        Two-sided clipping quantile; 0.001 clips to [0.1%, 99.9%] per column.
    """

    def __init__(self, quantile: float = 0.001) -> None:
        self.quantile = quantile
        self.lo_: np.ndarray | None = None
        self.hi_: np.ndarray | None = None
        self.fill_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "RobustClipper":
        X = np.asarray(X, dtype=float)
        finite = np.where(np.isfinite(X), X, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            self.lo_ = np.nanquantile(finite, self.quantile, axis=0)
            self.hi_ = np.nanquantile(finite, 1.0 - self.quantile, axis=0)
            self.fill_ = np.nanmedian(finite, axis=0)
        self.lo_ = np.where(np.isfinite(self.lo_), self.lo_, 0.0)
        self.hi_ = np.where(np.isfinite(self.hi_), self.hi_, 0.0)
        self.fill_ = np.where(np.isfinite(self.fill_), self.fill_, 0.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.lo_ is None:
            raise RuntimeError("RobustClipper is not fitted")
        X = np.asarray(X, dtype=float).copy()
        bad = ~np.isfinite(X)
        if bad.any():
            X[bad] = np.broadcast_to(self.fill_, X.shape)[bad]
        return np.clip(X, self.lo_, self.hi_)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def sanitize_features(X: np.ndarray, clip: float = 1e12) -> np.ndarray:
    """One-shot cleanup of a generated feature matrix.

    Replaces NaN with the column median (0 when a whole column is NaN) and
    clips to ``[-clip, clip]``. Used after every transformation step so that
    unstable operations cannot poison downstream evaluation.
    """
    X = np.asarray(X, dtype=float)
    out = X.copy()
    out[~np.isfinite(out)] = np.nan
    if np.isnan(out).any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            med = np.nanmedian(out, axis=0)
        med = np.where(np.isfinite(med), med, 0.0)
        idx = np.where(np.isnan(out))
        out[idx] = med[idx[1]]
    return np.clip(out, -clip, clip)


class LabelEncoder(BaseEstimator):
    """Map arbitrary labels to contiguous integers 0..K−1."""

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None

    def fit(self, y: np.ndarray) -> "LabelEncoder":
        self.classes_ = np.unique(np.asarray(y).ravel())
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder is not fitted")
        y = np.asarray(y).ravel()
        index = np.searchsorted(self.classes_, y)
        if np.any(index >= len(self.classes_)) or np.any(self.classes_[index] != y):
            raise ValueError("y contains labels unseen during fit")
        return index

    def fit_transform(self, y: np.ndarray) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, idx: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder is not fitted")
        return self.classes_[np.asarray(idx, dtype=int)]


class KBinsDiscretizer(BaseEstimator):
    """Quantile binning of continuous columns into integer codes.

    Supports the histogram mutual-information estimator in
    :mod:`repro.ml.mutual_info`; constant columns map to a single bin.
    """

    def __init__(self, n_bins: int = 16) -> None:
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "KBinsDiscretizer":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        # One call over axis 0 gives the per-column quantiles bit for bit.
        per_column = np.quantile(X, quantiles, axis=0)
        self.edges_ = [np.unique(per_column[:, j]) for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("KBinsDiscretizer is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        codes = np.empty(X.shape, dtype=np.int64)
        for j, edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)
