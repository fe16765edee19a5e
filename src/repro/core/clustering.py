"""Incremental MI-based feature clustering (Equation 2).

Features start as singleton clusters; the two closest clusters merge
repeatedly until the closest distance exceeds a threshold. The distance is

    dis_ij = (1/|Ci||Cj|) Σ_{Fi∈Ci} Σ_{Fj∈Cj} |MI(Fi,y) − MI(Fj,y)| / (MI(Fi,Fj) + ς)

— features with similar label-relevance and high mutual redundancy are close.
The cluster-level distance is the average of base pairwise distances, so we
precompute the pairwise matrix once and merge with average linkage.

Both entry points score every MI they need in one call of the batched
kernel :func:`repro.ml.mutual_info.pairwise_mutual_info`, over a code table
with the target at row 0 and feature ``j`` (a column, or a feature id in
:class:`IncrementalClusterer`) at row ``j + 1``:

- :func:`cluster_features` discretizes a matrix once and scores every pair;
- :class:`IncrementalClusterer` caches codes and MIs by feature id across
  the steps of an episode and scores only the pairs a step adds.

Both equal the seed's per-pair estimator and double-loop merge (kept in
``tests/reference/clustering.py``) bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.mutual_info import (
    mutual_info_with_codes,
    pairwise_mutual_info,
    quantile_codes,
    target_codes,
)

__all__ = [
    "pairwise_cluster_distance",
    "cluster_features",
    "IncrementalClusterer",
    "RelevanceCache",
]


def _eq2_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ordered code-table row pairs Eq. 2 needs over features at ``rows``.

    First each feature against the target (row 0), then the upper-triangle
    position pairs ``i <= j`` as ``(rows[i], rows[j])``: the seed scores
    position-ordered pairs, and MI is only value-symmetric up to the last
    bit.
    """
    iu, ju = np.triu_indices(len(rows))
    left = np.concatenate([rows, rows[iu]])
    right = np.concatenate([np.zeros(len(rows), dtype=np.intp), rows[ju]])
    return left, right


def _eq2_distance(mi: np.ndarray, d: int, varsigma: float) -> np.ndarray:
    """The Eq. 2 summand matrix from the MIs of :func:`_eq2_pairs`."""
    relevance = mi[:d]
    iu, ju = np.triu_indices(d)
    redundancy = np.empty((d, d), dtype=float)
    redundancy[iu, ju] = redundancy[ju, iu] = mi[d:]
    rel_diff = np.abs(relevance[:, None] - relevance[None, :])
    return rel_diff / (redundancy + varsigma)


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
    y_codes, y_count = target_codes(y, task, n_bins)
    codes, counts = quantile_codes(X, n_bins)
    table = np.vstack([y_codes, codes])
    mi = pairwise_mutual_info(
        table, np.append(y_count, counts), *_eq2_pairs(np.arange(1, X.shape[1] + 1))
    )
    return _eq2_distance(mi, X.shape[1], varsigma)


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
    """Agglomerate feature columns into clusters of column indices.

    ``distance_threshold="auto"`` stops merging at the median of the initial
    pairwise distances — a scale-free choice that adapts as generated
    features change the MI landscape each step.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if d == 0:
        raise ValueError("No features to cluster")
    if d == 1:
        return [[0]]
    base = pairwise_cluster_distance(
        X, y, task=task, varsigma=varsigma, n_bins=n_bins, max_rows=max_rows, seed=seed
    )
    return _merge_average_linkage(base, distance_threshold, min_clusters, max_clusters)


def _merge_average_linkage(
    base: np.ndarray,
    distance_threshold: float | str,
    min_clusters: int,
    max_clusters: int | None,
) -> list[list[int]]:
    """Average-linkage agglomeration over the base distance matrix.

    Each round merges the pair that the seed's double loop picks: a
    row-major scan over active pairs ``(a < b)`` that keeps the first
    strict minimum. ``dist`` holds each active pair's average distance in
    its upper triangle and +inf everywhere else (NaN included, which a
    strict ``<`` never picks). The active set stays in ascending order, so
    ``np.argmin`` over ``dist`` visits the pairs in the scan's order. A
    merge changes only the merged cluster's distances, so only its row and
    column are recomputed, with the seed's per-pair division of the
    additive cross-pair ``sums``.
    """
    d = base.shape[0]
    if distance_threshold == "auto":
        threshold = float(np.median(base[~np.eye(d, dtype=bool)]))
    else:
        threshold = float(distance_threshold)
    clusters: list[list[int]] = [[j] for j in range(d)]
    sizes = np.ones(d)
    active = np.ones(d, dtype=bool)
    sums = base.copy()
    dist = np.where(np.triu(~np.isnan(base), k=1), base, np.inf)
    n_active = d

    while n_active > max(min_clusters, 1):
        a, b = divmod(int(np.argmin(dist)), d)
        best_dist = dist[a, b]
        over_budget = max_clusters is not None and n_active > max_clusters
        if best_dist == np.inf or (best_dist > threshold and not over_budget):
            break
        clusters[a] = clusters[a] + clusters[b]
        sizes[a] += sizes[b]
        sums[a, :] += sums[b, :]
        sums[:, a] += sums[:, b]
        active[b] = False
        n_active -= 1
        dist[b, :] = dist[:, b] = np.inf
        col = sums[:a, a] / (sizes[:a] * sizes[a])
        row = sums[a, a + 1 :] / (sizes[a] * sizes[a + 1 :])
        dist[:a, a] = np.where(active[:a] & ~np.isnan(col), col, np.inf)
        dist[a, a + 1 :] = np.where(active[a + 1 :] & ~np.isnan(row), row, np.inf)

    return [sorted(clusters[a]) for a in np.flatnonzero(active)]


class RelevanceCache:
    """Per-feature-id memo of full-row MI(F_j, y) for importance pruning.

    ``mutual_info_with_target`` discretizes and scores every column
    independently, so a feature's relevance never changes while its column
    is immutable — the session's prune step only pays for newly created
    features, discretized and scored in one kernel call, instead of
    re-estimating the whole live set every step. Values are bit-identical
    to the batch function.
    """

    def __init__(self, task: str, n_bins: int) -> None:
        self.task = task
        self.n_bins = n_bins
        self._target: tuple[np.ndarray, int] | None = None
        self._rel: dict[int, float] = {}

    def __setstate__(self, state: dict) -> None:
        # Caches pickled by older builds kept the target's raw codes; its
        # dense codes are rebuilt on next use.
        self.__dict__.update(state)
        self.__dict__.pop("_y_codes", None)
        self.__dict__.setdefault("_target", None)

    def relevance(self, space, y: np.ndarray, fids: list[int]) -> np.ndarray:
        """MI(F_j, y) per feature, in ``fids`` order."""
        rel = self._rel
        new = [f for f in fids if f not in rel]
        if new:
            if self._target is None:
                self._target = target_codes(y, self.task, self.n_bins)
            columns = np.column_stack([space.values(f) for f in new])
            mi = mutual_info_with_codes(*quantile_codes(columns, self.n_bins), self._target)
            rel.update(zip(new, mi.tolist()))
        return np.array([rel[f] for f in fids], dtype=float)


class IncrementalClusterer:
    """Feature clustering with cross-step MI caching over a ``FeatureSpace``.

    The Eq. 2 distance needs MI(F_j, y) per feature and MI(F_i, F_j) per
    pair, all computed on one fixed row subsample (the subsample depends
    only on the seed and the row count, so it is identical on every call
    of a session). Feature columns are immutable, so dense codes,
    relevances and pairwise MIs are memoized by feature id — a step that
    adds ``m`` features to a ``k``-feature set estimates ``O(m·k)`` new
    pairs instead of ``O(k²)``, discretizing the new columns in one pass
    and scoring every missing pair and relevance in one kernel call.

    The caches are arrays indexed by code-table row (target at row 0,
    feature id ``f`` at row ``f + 1``): ``_counts`` is 0 for a row not
    discretized yet, and ``_mi[a, b]`` is NaN for a pair not scored yet
    (a plug-in MI of codes is never NaN). Pair MIs are kept per *ordered*
    pair: MI is only value-symmetric up to the last bit, and the seed
    scores position-ordered pairs, so both orientations may be cached
    when prunes reorder the live set.

    Output is bit-identical to
    ``cluster_features(sanitize_features(space.matrix()), y, ...)`` and to
    the seed's version of it in ``tests/reference/clustering.py`` (proven
    in ``tests/core/test_incremental_search.py``); requires a non-``None``
    seed whenever subsampling applies, because the reference would draw
    fresh rows per call from an unseeded generator.
    """

    def __init__(
        self,
        task: str = "classification",
        distance_threshold: float | str = "auto",
        min_clusters: int = 2,
        max_clusters: int | None = None,
        varsigma: float = 1e-3,
        n_bins: int = 8,
        max_rows: int = 256,
        seed: int | None = 0,
    ) -> None:
        self.task = task
        self.distance_threshold = distance_threshold
        self.min_clusters = min_clusters
        self.max_clusters = max_clusters
        self.varsigma = varsigma
        self.n_bins = n_bins
        self.max_rows = max_rows
        self.seed = seed
        self._clear()

    def _clear(self) -> None:
        self._rows: np.ndarray | slice | None = None
        self._table = np.zeros((0, 0), dtype=np.intp)
        self._counts = np.zeros(0, dtype=np.intp)
        self._mi = np.zeros((0, 0), dtype=float)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_pair_mi" in state:
            # Pickled by an older build with per-id dict caches. The caches
            # hold pure functions of the columns, so starting them afresh
            # continues the episode bit for bit.
            for name in ("_y_codes", "_codes", "_rel", "_pair_mi"):
                self.__dict__.pop(name, None)
            self._clear()

    def _prepare_rows(self, n_rows: int, y: np.ndarray) -> None:
        if self._rows is not None:
            return
        if n_rows > self.max_rows:
            if self.seed is None:
                raise ValueError(
                    "IncrementalClusterer needs a fixed seed when subsampling "
                    "rows; an unseeded reference draws fresh rows per call"
                )
            rng = np.random.default_rng(self.seed)
            self._rows = rng.choice(n_rows, size=self.max_rows, replace=False)
        else:
            self._rows = slice(None)
        y_codes, y_count = target_codes(np.asarray(y)[self._rows], self.task, self.n_bins)
        self._table = y_codes[None, :]
        self._counts = np.array([y_count], dtype=np.intp)
        self._mi = np.full((1, 1), np.nan)

    def _reserve(self, n_rows: int) -> None:
        """Grow the row-indexed caches (amortized doubling) to ``n_rows``."""
        cap = len(self._counts)
        if n_rows <= cap:
            return
        new_cap = max(n_rows, 2 * cap)
        table = np.zeros((new_cap, self._table.shape[1]), dtype=np.intp)
        table[:cap] = self._table
        counts = np.zeros(new_cap, dtype=np.intp)
        counts[:cap] = self._counts
        mi = np.full((new_cap, new_cap), np.nan)
        mi[:cap, :cap] = self._mi
        self._table, self._counts, self._mi = table, counts, mi

    def base_distance(self, space, y: np.ndarray, fids: list[int]) -> np.ndarray:
        """The Eq. 2 summand matrix over ``fids`` (cached per id / pair)."""
        self._prepare_rows(space.n_samples, y)
        rows = np.asarray(fids, dtype=np.intp) + 1
        self._reserve(int(rows.max(initial=0)) + 1)
        new = rows[self._counts[rows] == 0]
        if new.size:
            columns = np.column_stack([space.values(f)[self._rows] for f in (new - 1).tolist()])
            self._table[new], self._counts[new] = quantile_codes(columns, self.n_bins)
        left, right = _eq2_pairs(rows)
        mi = self._mi[left, right]
        missing = np.flatnonzero(np.isnan(mi))
        if missing.size:
            left, right = left[missing], right[missing]
            mi[missing] = self._mi[left, right] = pairwise_mutual_info(
                self._table, self._counts, left, right
            )
        return _eq2_distance(mi, len(rows), self.varsigma)

    def cluster(self, space, y: np.ndarray, fids: list[int]) -> list[list[int]]:
        """Cluster the features into groups of *positions* within ``fids``
        (the same column-index convention as :func:`cluster_features`)."""
        d = len(fids)
        if d == 0:
            raise ValueError("No features to cluster")
        if d == 1:
            return [[0]]
        base = self.base_distance(space, y, fids)
        return _merge_average_linkage(
            base, self.distance_threshold, self.min_clusters, self.max_clusters
        )
