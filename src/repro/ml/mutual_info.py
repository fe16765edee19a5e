"""Mutual-information estimators.

Equation 2 of the paper clusters features by the distance

    dis_ij = (1/|Ci||Cj|) · Σ Σ |MI(Fi,y) − MI(Fj,y)| / (MI(Fi,Fj) + ς)

which needs MI(feature, label) for relevance and MI(feature, feature) for
redundancy. We estimate both with quantile-histogram plug-in estimators,
which are fast, deterministic and adequate for ranking (the only property the
clustering and the ERG/AFT baselines rely on).

Every estimate runs through one batched kernel,
:func:`pairwise_mutual_info`. Its inputs are a table of *dense* codes (each
row relabelled ``0..k-1`` by :func:`dense_codes`, once per feature) and a
batch of ordered ``(a, b)`` row pairs. Pairs are grouped by their
``(n_a, n_b)`` code counts, each group's joint histograms come from one
``np.bincount``, and the rest of the estimator runs on ``(P, n_a, n_b)``
stacks in chunks of at most ``_CELL_BUDGET`` cells.

The kernel is bit-identical to the seed's one-pair estimator (kept in
``tests/reference/clustering.py``) because every floating-point step keeps
the seed's shapes and reduction order:

- the division of the counts by ``n``;
- both marginal sums over the ``(n_a, n_b)`` joint;
- the outer product of the marginals;
- the ``where(joint > 0, joint·log(ratio), 0)`` terms;
- their sum over all ``n_a·n_b`` cells in row-major order.

Three shortcuts break that contract, each on 37–45% of random pairs,
so none is taken: padding every joint to a common shape (it changes the
summation blocks), summing the terms by row and then by column, and
scoring ``(b, a)`` for ``(a, b)``. The last transposes the joint, so MI is
only value-symmetric up to the last bit, and callers that cache pair MIs
key them by *ordered* pair.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import KBinsDiscretizer

__all__ = [
    "dense_codes",
    "quantile_codes",
    "target_codes",
    "pairwise_mutual_info",
    "discrete_mutual_info",
    "mutual_info_with_target",
    "mutual_info_with_codes",
    "mutual_info_features",
    "mutual_info_matrix",
]

# Joint-histogram cells (or code elements, whichever is larger) per kernel
# chunk: bounds the kernel's scratch memory at a few hundred KiB per array.
_CELL_BUDGET = 1 << 15


def dense_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` relabelled ``0..k-1`` in sorted order, and ``k``."""
    uniques, inverse = np.unique(np.asarray(values).ravel(), return_inverse=True)
    return inverse.ravel(), len(uniques)


def quantile_codes(X: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense quantile-bin codes of every column of ``X``.

    Returns a ``(n_columns, n_rows)`` code table (one row per column) and
    each row's code count, the inputs of :func:`pairwise_mutual_info`.
    """
    raw = KBinsDiscretizer(n_bins=n_bins).fit_transform(X)
    codes = np.empty((raw.shape[1], raw.shape[0]), dtype=np.intp)
    counts = np.empty(raw.shape[1], dtype=np.intp)
    for j in range(raw.shape[1]):
        codes[j], counts[j] = dense_codes(raw[:, j])
    return codes, counts


def target_codes(y: np.ndarray, task: str, n_bins: int) -> tuple[np.ndarray, int]:
    """Dense codes of a target and their count.

    Classification/detection targets are used as-is; regression targets are
    quantile-binned first.
    """
    y = np.asarray(y).ravel()
    if task == "regression":
        codes, counts = quantile_codes(y.astype(float).reshape(-1, 1), n_bins)
        return codes[0], int(counts[0])
    return dense_codes(y)


def pairwise_mutual_info(
    codes: np.ndarray, counts: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Plug-in MI (nats) of each ordered row pair ``(left[p], right[p])``.

    ``codes`` is a ``(k, n)`` table whose row ``r`` holds dense codes
    ``0..counts[r]-1`` (see :func:`dense_codes`). Each value equals the
    seed's one-pair estimator on the two rows bit for bit.
    """
    left = np.asarray(left, dtype=np.intp)
    right = np.asarray(right, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    out = np.empty(left.shape[0])
    if not left.shape[0]:
        return out
    n = codes.shape[1]
    n_a, n_b = counts[left], counts[right]
    shape_key = n_a * (int(counts.max()) + 1) + n_b
    order = np.argsort(shape_key, kind="stable")
    starts = np.flatnonzero(np.diff(shape_key[order])) + 1
    for group in np.split(order, starts):
        rows_a, rows_b = int(n_a[group[0]]), int(n_b[group[0]])
        step = max(1, _CELL_BUDGET // max(n, rows_a * rows_b))
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            out[batch] = _plug_in(codes[left[batch]], codes[right[batch]], rows_a, rows_b)
    return out


def _plug_in(a: np.ndarray, b: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """MI of each row pair of two ``(P, n)`` dense-code blocks whose rows
    take ``n_a`` and ``n_b`` codes, in the seed estimator's arithmetic."""
    p, n = a.shape
    cells = n_a * n_b
    flat = a * n_b
    flat += b
    flat += np.arange(0, p * cells, cells)[:, None]
    joint = np.bincount(flat.ravel(), minlength=p * cells).reshape(p, n_a, n_b) / n
    pa = joint.sum(axis=2, keepdims=True)
    pb = joint.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = joint / (pa @ pb)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    total = terms.reshape(p, cells).sum(axis=1)
    # max(total, 0.0) as Python evaluates it: -0.0 and NaN pass through.
    return np.where(total < 0.0, 0.0, total)


def discrete_mutual_info(a: np.ndarray, b: np.ndarray) -> float:
    """MI between two discrete code vectors via the plug-in estimator (nats)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape[0] != b.shape[0]:
        raise ValueError("a and b must have the same length")
    if a.shape[0] == 0:
        raise ValueError("Empty input")
    (a_codes, n_a), (b_codes, n_b) = dense_codes(a), dense_codes(b)
    return float(pairwise_mutual_info(np.stack([a_codes, b_codes]), [n_a, n_b], [0], [1])[0])


def _discretize_continuous(x: np.ndarray, n_bins: int) -> np.ndarray:
    return KBinsDiscretizer(n_bins=n_bins).fit_transform(x.reshape(-1, 1)).ravel()


def mutual_info_with_target(
    X: np.ndarray, y: np.ndarray, task: str = "classification", n_bins: int = 16
) -> np.ndarray:
    """MI(F_j, y) for every column of X.

    Classification/detection targets are used as-is; regression targets are
    quantile-binned first.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return mutual_info_with_codes(*quantile_codes(X, n_bins), target_codes(y, task, n_bins))


def mutual_info_with_codes(
    codes: np.ndarray, counts: np.ndarray, target: tuple[np.ndarray, int]
) -> np.ndarray:
    """MI of every row of a dense code table with a target's dense codes
    (as :func:`target_codes` returns them), in one kernel call."""
    y_codes, y_count = target
    # Target at row 0, code row j at row j + 1; pairs are (row, target).
    rows = np.arange(1, codes.shape[0] + 1)
    return pairwise_mutual_info(
        np.vstack([y_codes, codes]), np.append(y_count, counts), rows, np.zeros_like(rows)
    )


def mutual_info_features(a: np.ndarray, b: np.ndarray, n_bins: int = 16) -> float:
    """MI between two continuous feature columns (histogram estimator)."""
    return discrete_mutual_info(
        _discretize_continuous(np.asarray(a, dtype=float), n_bins),
        _discretize_continuous(np.asarray(b, dtype=float), n_bins),
    )


def mutual_info_matrix(X: np.ndarray, n_bins: int = 16) -> np.ndarray:
    """Symmetric pairwise MI matrix over the columns of X.

    Entry ``(i, j)`` and ``(j, i)`` both hold the MI of the ordered pair
    ``(min(i, j), max(i, j))``.
    """
    X = np.asarray(X, dtype=float)
    codes, counts = quantile_codes(X, n_bins)
    iu, ju = np.triu_indices(X.shape[1])
    out = np.zeros((X.shape[1], X.shape[1]), dtype=float)
    out[iu, ju] = out[ju, iu] = pairwise_mutual_info(codes, counts, iu, ju)
    return out
