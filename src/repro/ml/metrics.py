"""Evaluation metrics used by the paper (Section V, "Evaluation Metrics").

Classification: F1-score, Precision, Recall (binary and macro/micro/weighted).
Regression: 1-RAE, 1-MAE, 1-MSE (the paper reports the "1 minus error" form so
that higher is better across all task types).
Detection: Precision, F1 and AUC over anomaly scores.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_counts",
    "roc_auc_score",
    "roc_curve",
    "mean_absolute_error",
    "mean_squared_error",
    "relative_absolute_error",
    "one_minus_rae",
    "one_minus_mae",
    "one_minus_mse",
    "log_loss",
]


def _as_1d(y: np.ndarray) -> np.ndarray:
    return np.asarray(y).ravel()


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly-matching labels."""
    y_true, y_pred = _as_1d(y_true), _as_1d(y_pred)
    if y_true.shape[0] == 0:
        raise ValueError("accuracy_score requires at least one sample")
    return float(np.mean(y_true == y_pred))


def confusion_counts(
    y_true: np.ndarray, y_pred: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (tp, fp, fn, support) arrays in ``labels`` order."""
    y_true, y_pred = _as_1d(y_true), _as_1d(y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    tp = np.array([np.sum((y_true == c) & (y_pred == c)) for c in labels], dtype=float)
    fp = np.array([np.sum((y_true != c) & (y_pred == c)) for c in labels], dtype=float)
    fn = np.array([np.sum((y_true == c) & (y_pred != c)) for c in labels], dtype=float)
    support = np.array([np.sum(y_true == c) for c in labels], dtype=float)
    return tp, fp, fn, support


def _averaged(per_class: np.ndarray, support: np.ndarray, average: str) -> float:
    if average == "macro":
        return float(np.mean(per_class))
    if average == "weighted":
        total = support.sum()
        if total == 0:
            return 0.0
        return float(np.sum(per_class * support) / total)
    raise ValueError(f"Unknown average {average!r}")


def _binary_or_averaged(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    average: str,
    kind: str,
) -> float:
    """Dispatch precision/recall/f1 over binary vs multiclass averaging."""
    y_true, y_pred = _as_1d(y_true), _as_1d(y_pred)
    labels = np.unique(np.concatenate([y_true, y_pred]))
    tp, fp, fn, support = confusion_counts(y_true, y_pred, labels)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    per_class = {"precision": precision, "recall": recall, "f1": f1}[kind]

    if average == "binary":
        if len(labels) > 2:
            raise ValueError("average='binary' requires a binary target")
        # Positive class is the largest label value (1 in {0,1}).
        return float(per_class[-1])
    if average == "micro":
        tp_s, fp_s, fn_s = tp.sum(), fp.sum(), fn.sum()
        p = tp_s / (tp_s + fp_s) if tp_s + fp_s > 0 else 0.0
        r = tp_s / (tp_s + fn_s) if tp_s + fn_s > 0 else 0.0
        if kind == "precision":
            return float(p)
        if kind == "recall":
            return float(r)
        return float(2 * p * r / (p + r)) if p + r > 0 else 0.0
    return _averaged(per_class, support, average)


def precision_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "weighted") -> float:
    """Precision = TP / (TP + FP), averaged per ``average``."""
    return _binary_or_averaged(y_true, y_pred, average, "precision")


def recall_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "weighted") -> float:
    """Recall = TP / (TP + FN), averaged per ``average``."""
    return _binary_or_averaged(y_true, y_pred, average, "recall")


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, average: str = "weighted") -> float:
    """F1 = harmonic mean of precision and recall, averaged per ``average``.

    The paper reports weighted F1 for classification tasks (the convention of
    the GRFG lineage it builds on), which is the default here.
    """
    return _binary_or_averaged(y_true, y_pred, average, "f1")


def roc_curve(y_true: np.ndarray, y_score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (fpr, tpr) points for a binary target and continuous scores."""
    y_true, y_score = _as_1d(y_true).astype(float), _as_1d(y_score).astype(float)
    labels = np.unique(y_true)
    if len(labels) != 2:
        raise ValueError("roc_curve requires exactly two classes present")
    positive = labels[-1]
    y_bin = (y_true == positive).astype(float)

    order = np.argsort(-y_score, kind="stable")
    y_bin = y_bin[order]
    score_sorted = y_score[order]

    distinct = np.where(np.diff(score_sorted))[0]
    threshold_idx = np.concatenate([distinct, [len(y_bin) - 1]])

    tps = np.cumsum(y_bin)[threshold_idx]
    fps = (threshold_idx + 1) - tps
    n_pos, n_neg = y_bin.sum(), len(y_bin) - y_bin.sum()
    tpr = np.concatenate([[0.0], tps / max(n_pos, 1e-12)])
    fpr = np.concatenate([[0.0], fps / max(n_neg, 1e-12)])
    return fpr, tpr


def roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve (binary; rank-equivalent Mann-Whitney form)."""
    fpr, tpr = roc_curve(y_true, y_score)
    return float(np.trapezoid(tpr, fpr))


def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _as_1d(y_true).astype(float), _as_1d(y_pred).astype(float)
    return float(np.mean(np.abs(y_true - y_pred)))


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _as_1d(y_true).astype(float), _as_1d(y_pred).astype(float)
    return float(np.mean((y_true - y_pred) ** 2))


def relative_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """RAE = Σ|y−ŷ| / Σ|y−ȳ| — the error normalizer used for 1-RAE."""
    y_true, y_pred = _as_1d(y_true).astype(float), _as_1d(y_pred).astype(float)
    denom = float(np.sum(np.abs(y_true - np.mean(y_true))))
    if denom == 0.0:
        return 0.0 if np.allclose(y_true, y_pred) else float("inf")
    return float(np.sum(np.abs(y_true - y_pred)) / denom)


def one_minus_rae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 − RAE, the paper's headline regression metric (higher is better)."""
    return 1.0 - relative_absolute_error(y_true, y_pred)


def one_minus_mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 − MAE (paper's secondary regression metric)."""
    return 1.0 - mean_absolute_error(y_true, y_pred)


def one_minus_mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 − MSE (paper's secondary regression metric)."""
    return 1.0 - mean_squared_error(y_true, y_pred)


def log_loss(y_true: np.ndarray, proba: np.ndarray, eps: float = 1e-12) -> float:
    """Multiclass cross-entropy over predicted probabilities.

    Column ``i`` of ``proba`` is the ``i``-th of ``y_true``'s sorted classes.
    """
    y_true = _as_1d(y_true)
    proba = np.asarray(proba, dtype=float)
    if proba.ndim == 1:
        proba = np.column_stack([1.0 - proba, proba])
    labels, cols = np.unique(y_true, return_inverse=True)
    if proba.shape[1] != len(labels):
        raise ValueError(
            f"proba has {proba.shape[1]} columns but y_true holds "
            f"{len(labels)} class(es); cannot tell which column is which class"
        )
    picked = np.clip(proba[np.arange(len(y_true)), cols], eps, 1.0)
    return float(-np.mean(np.log(picked)))
