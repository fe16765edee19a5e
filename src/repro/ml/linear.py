"""Linear models: logistic regression, ridge/linear regression, ridge classifier.

Used by the Table III robustness study (LR, Ridge-C) and by fast baselines
that need a cheap downstream oracle. Logistic regression is trained with
L-BFGS (scipy) on the L2-regularized multinomial log-likelihood; ridge has a
closed form. scipy loads on the first ``LogisticRegression.fit``, so a
process that never fits one (search, sweep, serving) never imports it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_array, check_X_y
from repro.ml.preprocessing import StandardScaler

__all__ = ["LogisticRegression", "LinearRegression", "RidgeRegression", "RidgeClassifier"]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression with L2 penalty, trained by L-BFGS.

    Features are standardized internally so the optimizer is well conditioned
    regardless of the scale of generated features.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.max_iter = max_iter
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self._scaler: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        from scipy import optimize

        X, y = check_X_y(X, y)
        self._scaler = StandardScaler().fit(X)
        Xs = self._scaler.transform(X)
        self.classes_, codes = np.unique(y, return_inverse=True)
        n, d = Xs.shape
        k = len(self.classes_)
        if k < 2:
            raise ValueError("Need at least two classes")
        onehot = np.zeros((n, k))
        onehot[np.arange(n), codes] = 1.0
        lam = 1.0 / (self.C * n)

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat[: d * k].reshape(d, k)
            b = w_flat[d * k :]
            logits = Xs @ W + b
            proba = _softmax(logits)
            eps = 1e-12
            loss = -np.mean(np.sum(onehot * np.log(proba + eps), axis=1))
            loss += 0.5 * lam * np.sum(W * W)
            grad_logits = (proba - onehot) / n
            grad_W = Xs.T @ grad_logits + lam * W
            grad_b = grad_logits.sum(axis=0)
            return loss, np.concatenate([grad_W.ravel(), grad_b])

        w0 = np.zeros(d * k + k)
        result = optimize.minimize(
            objective, w0, jac=True, method="L-BFGS-B", options={"maxiter": self.max_iter}
        )
        self.coef_ = result.x[: d * k].reshape(d, k)
        self.intercept_ = result.x[d * k :]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("Model is not fitted")
        Xs = self._scaler.transform(check_array(X))
        return Xs @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via the numpy lstsq solver."""

    def __init__(self) -> None:
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        X, y = check_X_y(X, y)
        y = y.astype(float)
        Xb = np.column_stack([X, np.ones(X.shape[0])])
        sol, *_ = np.linalg.lstsq(Xb, y, rcond=None)
        self.coef_, self.intercept_ = sol[:-1], float(sol[-1])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("Model is not fitted")
        return check_array(X) @ self.coef_ + self.intercept_


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized least squares with closed-form normal equations."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._scaler: StandardScaler | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X, y = check_X_y(X, y)
        y = y.astype(float)
        self._scaler = StandardScaler().fit(X)
        Xs = self._scaler.transform(X)
        y_mean = float(np.mean(y))
        yc = y - y_mean
        d = Xs.shape[1]
        A = Xs.T @ Xs + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(A, Xs.T @ yc)
        self.intercept_ = y_mean
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("Model is not fitted")
        return self._scaler.transform(check_array(X)) @ self.coef_ + self.intercept_


class RidgeClassifier(BaseEstimator, ClassifierMixin):
    """Classification by ridge regression on ±1 (binary) or one-hot targets."""

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = alpha
        self.classes_: np.ndarray | None = None
        self._models: list[RidgeRegression] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeClassifier":
        X, y = check_X_y(X, y)
        self.classes_, codes = np.unique(y, return_inverse=True)
        self._models = []
        for k in range(len(self.classes_)):
            target = np.where(codes == k, 1.0, -1.0)
            model = RidgeRegression(alpha=self.alpha)
            model.fit(X, target)
            self._models.append(model)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not self._models:
            raise RuntimeError("Model is not fitted")
        return np.column_stack([m.predict(X) for m in self._models])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return _softmax(scores)
