"""Estimator base classes: a minimal, sklearn-compatible parameter protocol.

Every estimator in :mod:`repro.ml` stores its constructor arguments verbatim
as attributes so that :func:`clone` can produce an unfitted copy — the same
contract scikit-learn relies on for cross-validation.
"""

from __future__ import annotations

import inspect
from typing import Any

import numpy as np


class BaseEstimator:
    """Base class providing ``get_params`` / ``set_params`` / ``repr``."""

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict[str, Any]:
        """Return constructor parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor parameters in place and return self."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"Invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return a new unfitted estimator with the same parameters."""
    return type(estimator)(**estimator.get_params())


class ClassifierMixin:
    """Mixin adding ``score`` (accuracy) and class bookkeeping helpers."""

    _estimator_type = "classifier"

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))


class RegressorMixin:
    """Mixin adding ``score`` (R²) for regressors."""

    _estimator_type = "regressor"

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate and convert inputs to 2-D float X and 1-D y arrays."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        y = y.ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X and y have inconsistent lengths: {X.shape[0]} vs {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("Cannot fit with zero samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinity; impute or clip first")
    return X, y


def check_array(X: Any) -> np.ndarray:
    """Validate and convert a feature matrix for prediction."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinity; impute or clip first")
    return X


def check_width(X: np.ndarray, n_features: int) -> np.ndarray:
    """Reject a prediction matrix whose column count differs from the fitted one."""
    if X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} columns, but the model was fitted on {n_features}")
    return X
