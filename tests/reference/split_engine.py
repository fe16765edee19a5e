"""The seed's split engine: a stable argsort per node, per candidate feature.

O(m log m) per feature per node, followed by a cumulative-sum scan of one
sorted feature at a time. :class:`repro.ml.split_engine.PresortEngine`
computes the same gains with the same numpy operations in the same order,
so the two fit bit-identical trees; ``tests/ml/test_split_engine.py`` and
``benchmarks/test_oracle_throughput.py`` compare them.
"""

from __future__ import annotations

import numpy as np

from repro.ml.split_engine import SplitEngine

__all__ = ["NaiveEngine"]


_EPS = 1e-15
_NO_SPLIT = (0.0, -1, 0.0)


def _split_positions(x_sorted: np.ndarray, min_samples_leaf: int) -> np.ndarray:
    """Valid split indices i (split between i-1 and i), honoring leaf size."""
    n = len(x_sorted)
    lo, hi = min_samples_leaf, n - min_samples_leaf
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    positions = np.arange(lo, hi)
    distinct = x_sorted[positions - 1] < x_sorted[positions]
    return positions[distinct]


def _scan_gini(
    x_sorted: np.ndarray, y_sorted: np.ndarray, min_samples_leaf: int, n_classes: int
) -> tuple[float, float]:
    """Best Gini split of one sorted feature: (gain, threshold) or (-inf, nan)."""
    positions = _split_positions(x_sorted, min_samples_leaf)
    if len(positions) == 0:
        return -np.inf, np.nan
    n = len(y_sorted)
    onehot = np.zeros((n, n_classes), dtype=float)
    onehot[np.arange(n), y_sorted] = 1.0
    cum = np.cumsum(onehot, axis=0)

    left_counts = cum[positions - 1]
    total = cum[-1]
    right_counts = total - left_counts
    n_left = positions.astype(float)
    n_right = n - n_left

    gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
    parent = 1.0 - np.sum((total / n) ** 2)
    gain = parent - (n_left * gini_left + n_right * gini_right) / n

    best = int(np.argmax(gain))
    i = positions[best]
    return float(gain[best]), float(0.5 * (x_sorted[i - 1] + x_sorted[i]))


def _scan_variance(
    x_sorted: np.ndarray, y_sorted: np.ndarray, min_samples_leaf: int
) -> tuple[float, float]:
    """Best variance-reduction split of one sorted feature."""
    positions = _split_positions(x_sorted, min_samples_leaf)
    if len(positions) == 0:
        return -np.inf, np.nan
    n = len(y_sorted)
    cum = np.cumsum(y_sorted)
    cum2 = np.cumsum(y_sorted**2)

    n_left = positions.astype(float)
    n_right = n - n_left
    sum_left = cum[positions - 1]
    sum_right = cum[-1] - sum_left
    sq_left = cum2[positions - 1]
    sq_right = cum2[-1] - sq_left

    var_left = sq_left / n_left - (sum_left / n_left) ** 2
    var_right = sq_right / n_right - (sum_right / n_right) ** 2
    parent = cum2[-1] / n - (cum[-1] / n) ** 2
    gain = parent - (n_left * var_left + n_right * var_right) / n

    best = int(np.argmax(gain))
    i = positions[best]
    return float(gain[best]), float(0.5 * (x_sorted[i - 1] + x_sorted[i]))



class NaiveEngine(SplitEngine):
    """Reference implementation: per-node stable argsort per feature."""

    def best_split(
        self, idx: np.ndarray, candidates: np.ndarray, node_y: np.ndarray
    ) -> tuple[float, int, float]:
        X = self._X
        best_gain, best_feature, best_threshold = _NO_SPLIT
        for f in candidates:
            x = X[idx, f]
            order = np.argsort(x, kind="stable")
            gain, threshold = self._scan(x[order], node_y[order])
            if gain > best_gain + _EPS:
                best_gain, best_feature, best_threshold = gain, int(f), float(threshold)
        return best_gain, best_feature, best_threshold

    def _scan(self, x_sorted: np.ndarray, y_sorted: np.ndarray) -> tuple[float, float]:
        if self._criterion == "gini":
            return _scan_gini(x_sorted, y_sorted, self._min_samples_leaf, self._n_classes)
        return _scan_variance(x_sorted, y_sorted, self._min_samples_leaf)
