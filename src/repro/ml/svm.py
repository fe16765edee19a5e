"""Linear support-vector classifier (squared-hinge, L-BFGS).

Stand-in for sklearn's ``LinearSVC`` used in the Table III robustness study.
Multiclass is one-vs-rest; the squared hinge keeps the objective smooth so
L-BFGS converges reliably. The L-BFGS solver is scipy's, which loads on the
first fit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from repro.ml.preprocessing import StandardScaler

__all__ = ["LinearSVMClassifier"]


class LinearSVMClassifier(BaseEstimator, ClassifierMixin):
    """One-vs-rest linear SVM minimizing  λ/2‖w‖² + mean(max(0, 1 − y·f(x))²)."""

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.max_iter = max_iter
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self._scaler: StandardScaler | None = None

    def _fit_binary(self, X: np.ndarray, y_signed: np.ndarray) -> tuple[np.ndarray, float]:
        from scipy import optimize

        n, d = X.shape
        lam = 1.0 / (self.C * n)

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = w_flat[:d], w_flat[d]
            margin = 1.0 - y_signed * (X @ w + b)
            active = np.maximum(margin, 0.0)
            loss = 0.5 * lam * float(w @ w) + float(np.mean(active**2))
            grad_common = -2.0 * active * y_signed / n
            grad_w = lam * w + X.T @ grad_common
            grad_b = float(grad_common.sum())
            return loss, np.concatenate([grad_w, [grad_b]])

        result = optimize.minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        return result.x[:d], float(result.x[d])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVMClassifier":
        X, y = check_X_y(X, y)
        self._scaler = StandardScaler().fit(X)
        Xs = self._scaler.transform(X)
        self.classes_, codes = np.unique(y, return_inverse=True)
        k = len(self.classes_)
        if k < 2:
            raise ValueError("Need at least two classes")
        coefs, intercepts = [], []
        targets = range(k) if k > 2 else [1]
        for cls_idx in targets:
            y_signed = np.where(codes == cls_idx, 1.0, -1.0)
            w, b = self._fit_binary(Xs, y_signed)
            coefs.append(w)
            intercepts.append(b)
        self.coef_ = np.stack(coefs)
        self.intercept_ = np.asarray(intercepts)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("Model is not fitted")
        Xs = self._scaler.transform(check_array(X))
        scores = Xs @ self.coef_.T + self.intercept_
        return scores[:, 0] if scores.shape[1] == 1 else scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return self.classes_[(scores > 0).astype(int)]
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Platt-style probability surrogate via a sigmoid/softmax of margins."""
        scores = self.decision_function(X)
        if scores.ndim == 1:
            p = 1.0 / (1.0 + np.exp(-np.clip(scores, -35, 35)))
            return np.column_stack([1.0 - p, p])
        z = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)
