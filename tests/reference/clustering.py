"""The seed's MI estimators and Eq. 2 clustering, kept as test oracles.

Production scores every MI through one batched kernel
(``repro.ml.mutual_info.pairwise_mutual_info``), fits the quantile bins of
all columns in one call and merges clusters with a vectorized argmin. The
functions here are the seed's versions of each:

- :func:`discrete_mutual_info`: the one-pair plug-in estimator, two
  ``np.unique`` calls and an ``np.add.at`` histogram per pair;
- :func:`kbins_codes`: the quantile discretizer, one ``np.quantile`` call
  per column;
- :func:`mutual_info_with_target` and :func:`mutual_info_matrix`: one
  estimator call per column or column pair;
- :func:`cluster_features`: the Python double-loop average-linkage merge.

``tests/core/test_incremental_search.py`` and
``tests/ml/test_mutual_info_kernel.py`` compare production against them
bit for bit; ``tests/reference/session.py`` runs the seed inner loop on
them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "discrete_mutual_info",
    "kbins_codes",
    "mutual_info_with_target",
    "mutual_info_matrix",
    "pairwise_cluster_distance",
    "cluster_features",
]


def discrete_mutual_info(a: np.ndarray, b: np.ndarray) -> float:
    """MI between two discrete code vectors via the plug-in estimator (nats)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape[0] != b.shape[0]:
        raise ValueError("a and b must have the same length")
    n = a.shape[0]
    if n == 0:
        raise ValueError("Empty input")

    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    n_a = int(a_codes.max()) + 1
    n_b = int(b_codes.max()) + 1

    joint = np.zeros((n_a, n_b), dtype=float)
    np.add.at(joint, (a_codes, b_codes), 1.0)
    joint /= n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = joint / (pa @ pb)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return float(max(terms.sum(), 0.0))


def kbins_codes(X: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile-bin codes of every column (the seed ``KBinsDiscretizer``
    ``fit_transform``: bin edges from one ``np.quantile`` call per column)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    codes = np.empty(X.shape, dtype=np.int64)
    for j in range(X.shape[1]):
        edges = np.unique(np.quantile(X[:, j], quantiles))
        codes[:, j] = np.searchsorted(edges, X[:, j], side="right")
    return codes


def _discretize_continuous(x: np.ndarray, n_bins: int) -> np.ndarray:
    return kbins_codes(x.reshape(-1, 1), n_bins).ravel()


def mutual_info_with_target(
    X: np.ndarray, y: np.ndarray, task: str = "classification", n_bins: int = 16
) -> np.ndarray:
    """MI(F_j, y) for every column of X, one estimator call per column."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y).ravel()
    if task == "regression":
        y_codes = _discretize_continuous(y.astype(float), n_bins)
    else:
        _, y_codes = np.unique(y, return_inverse=True)
    codes = kbins_codes(X, n_bins)
    return np.array(
        [discrete_mutual_info(codes[:, j], y_codes) for j in range(X.shape[1])], dtype=float
    )


def mutual_info_matrix(X: np.ndarray, n_bins: int = 16) -> np.ndarray:
    """Symmetric pairwise MI matrix, one estimator call per pair ``i <= j``."""
    X = np.asarray(X, dtype=float)
    codes = kbins_codes(X, n_bins)
    d = X.shape[1]
    out = np.zeros((d, d), dtype=float)
    for i in range(d):
        for j in range(i, d):
            mi = discrete_mutual_info(codes[:, i], codes[:, j])
            out[i, j] = out[j, i] = mi
    return out


def pairwise_cluster_distance(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    varsigma: float = 1e-3,
    n_bins: int = 8,
    max_rows: int = 256,
    seed: int | None = 0,
) -> np.ndarray:
    """Base distance matrix over individual features (the Eq. 2 summand)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        rows = rng.choice(X.shape[0], size=max_rows, replace=False)
        X, y = X[rows], y[rows]
    relevance = mutual_info_with_target(X, y, task=task, n_bins=n_bins)
    redundancy = mutual_info_matrix(X, n_bins=n_bins)
    rel_diff = np.abs(relevance[:, None] - relevance[None, :])
    return rel_diff / (redundancy + varsigma)


def cluster_features(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    distance_threshold: float | str = "auto",
    min_clusters: int = 2,
    max_clusters: int | None = None,
    varsigma: float = 1e-3,
    n_bins: int = 8,
    max_rows: int = 256,
    seed: int | None = 0,
) -> list[list[int]]:
    """Agglomerate feature columns into clusters of column indices."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if d == 0:
        raise ValueError("No features to cluster")
    if d == 1:
        return [[0]]

    base = pairwise_cluster_distance(
        X, y, task=task, varsigma=varsigma, n_bins=n_bins, max_rows=max_rows, seed=seed
    )
    if distance_threshold == "auto":
        off_diag = base[~np.eye(d, dtype=bool)]
        threshold = float(np.median(off_diag))
    else:
        threshold = float(distance_threshold)
    return merge_double_loop(base, threshold, min_clusters, max_clusters)


def merge_double_loop(
    base: np.ndarray, threshold: float, min_clusters: int, max_clusters: int | None
) -> list[list[int]]:
    """The seed's average-linkage merge: a row-major scan over active
    pairs keeping the first strict minimum, once per merge."""
    d = base.shape[0]
    clusters: list[list[int]] = [[j] for j in range(d)]
    # sums[a][b] = total cross-pair base distance between clusters a and b;
    # average linkage = sums / (|a|·|b|). Merging is additive in sums.
    sums = base.copy()
    active = list(range(d))

    def avg_distance(a: int, b: int) -> float:
        return sums[a, b] / (len(clusters[a]) * len(clusters[b]))

    while len(active) > max(min_clusters, 1):
        best_pair, best_dist = None, np.inf
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                a, b = active[ii], active[jj]
                dist = avg_distance(a, b)
                if dist < best_dist:
                    best_dist, best_pair = dist, (a, b)
        over_budget = max_clusters is not None and len(active) > max_clusters
        if best_pair is None or (best_dist > threshold and not over_budget):
            break
        a, b = best_pair
        clusters[a] = clusters[a] + clusters[b]
        sums[a, :] += sums[b, :]
        sums[:, a] += sums[:, b]
        active.remove(b)

    return [sorted(clusters[a]) for a in active]
