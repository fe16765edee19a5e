"""The split engines production replaced, kept as test oracles.

:class:`NaiveEngine` is the seed's engine: a stable argsort per node, per
candidate feature, O(m log m) per feature per node, followed by a
cumulative-sum scan of one sorted feature at a time.

:class:`PerNodePresortEngine` is the presorted engine that searched one
node per call until the tree builder learnt to grow every tree of an
oracle call in lockstep (:mod:`repro.ml.tree`). Paired with the recursive
builder of :mod:`tests.reference.tree` it is the previous oracle, the
baseline of ``benchmarks/test_oracle_throughput.py``.

Production computes the same gains with the same numpy operations in the
same order, so all of them fit bit-identical trees;
``tests/ml/test_split_engine.py``, ``tests/ml/test_tree_builder.py`` and
the oracle benchmark compare them.
"""

from __future__ import annotations

import numpy as np

from repro.ml.split_engine import SplitEngine

__all__ = ["NaiveEngine", "PerNodePresortEngine"]


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


class PerNodePresortEngine(SplitEngine):
    """Presorted, fully vectorized split search.

    Each feature is stable-argsorted at most **once per fit** (lazily, the
    first time a node samples it). A node's per-feature sorted index
    partition is then recovered by filtering the presorted row through a
    boolean membership mask — a stable filter, so ties stay ordered by
    global row index, which is exactly the order a per-node stable argsort
    yields (the tree builder keeps node index sets ascending). All
    candidate features of a node are scored in one batched cumulative-sum
    scan: no per-feature Python loop, and ~10 numpy calls per node instead
    of ~15 per feature.

    For nodes much smaller than the training set the O(n) membership
    filter costs more than re-sorting the node block in a single batched
    argsort, so small nodes take that route instead. Both paths compute
    identical sorted orders, so the cutoff is purely a performance knob.
    """

    # Engines carry no fitted state between fits; pickling one (e.g. inside
    # a fitted tree that kept a reference) must not drag the training data
    # or scratch buffers along.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_X", "_y", "_XT", "_sorted", "_have_sort", "_mask", "_pos_f", "_ar", "_bufs",
            "_src_XT", "_src_sorted", "_src_have", "_src_tie_free",
            "_next_sample", "_fit_boot", "_fit_identity", "_boot_state",
        ):
            state.pop(key, None)
        return state

    # Use the presort+filter path while m > n / _FILTER_FACTOR; smaller
    # nodes re-sort their (k, m) block in one batched stable argsort
    # (empirically the filter's O(n)-per-feature cost only pays off for
    # the upper levels of the tree).
    _FILTER_FACTOR = 8

    # -- forest-level workspace ---------------------------------------------

    def begin_forest(self, X: np.ndarray, y: np.ndarray) -> None:
        """Share one presort of the forest's matrix across all trees.

        Each tree still gets "one presort of its bootstrap sample per
        fit", but for features whose source column has no duplicate
        values that presort is *derived* from the forest-level presort in
        O(n): replace every source row, in source sorted order, by that
        row's draw positions in ascending order. Bootstrap duplicates of
        one source row are equal values whose stable order is exactly
        ascending draw position, so the derivation is bit-identical to a
        stable argsort of the sample. Columns with duplicate source
        values (where cross-row ties would need a draw-position merge)
        fall back to a per-tree argsort.
        """
        n, d = X.shape
        self._src_XT = np.ascontiguousarray(X.T)
        self._src_sorted = np.empty((d, n), dtype=np.int32)
        self._src_have = np.zeros(d, dtype=bool)
        self._src_tie_free = np.zeros(d, dtype=bool)
        self._next_sample: "tuple | None" = None

    def set_bootstrap(self, idx: "np.ndarray | None") -> None:
        self._next_sample = (idx,)

    def end_forest(self) -> None:
        self._src_XT = self._src_sorted = self._src_have = self._src_tie_free = None
        self._next_sample = None
        # The fitted trees keep a reference to this shared engine, so the
        # within-forest workspace must not outlive the fit — at FULL-scale
        # row counts the scratch block alone is hundreds of MB.
        self._mask = None
        self._bufs = {}

    def begin_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        criterion: str,
        n_classes: int,
        min_samples_leaf: int,
    ) -> None:
        super().begin_fit(X, y, criterion, n_classes, min_samples_leaf)
        n, d = X.shape
        # Row-contiguous layout makes per-node gathers sequential reads;
        # int32 indices halve the traffic of every membership filter.
        self._XT = np.ascontiguousarray(X.T)
        self._sorted = np.empty((d, n), dtype=np.int32)
        self._have_sort = np.zeros(d, dtype=bool)
        self._cutoff = n // self._FILTER_FACTOR
        self._pos_f = np.arange(n, dtype=float)  # shared n_left views
        self._ar = np.arange(max(n, d))  # shared row-index vector
        if self._criterion == "gini":
            # Class counts fit comfortably in int32; exact either way.
            self._y = y.astype(np.int32)
        mask = getattr(self, "_mask", None)
        if mask is None or mask.shape[0] != n:
            self._mask = np.zeros(n, dtype=bool)
        else:
            self._mask[:] = False
        if not hasattr(self, "_bufs"):
            self._bufs: dict[str, np.ndarray] = {}
        # One-shot sample linkage from the owning forest (if any).
        nxt = getattr(self, "_next_sample", None)
        self._next_sample = None
        self._fit_boot = None
        self._fit_identity = False
        if nxt is not None and getattr(self, "_src_XT", None) is not None:
            idx = nxt[0]
            if idx is None:
                self._fit_identity = n == self._src_XT.shape[1]
            elif idx.shape[0] == n:
                self._fit_boot = idx
        self._boot_state = None

    def end_fit(self) -> None:
        super().end_fit()
        # The mask and scratch buffers survive as the forest-shared
        # workspace; everything tied to this fit's data is dropped.
        self._XT = self._sorted = self._have_sort = self._pos_f = self._ar = None
        self._fit_boot = self._boot_state = None
        self._fit_identity = False

    # -- per-fit presort (lazy, possibly derived from the forest) -----------

    def _ensure_src_sorted(self, feats: np.ndarray) -> None:
        need = feats[~self._src_have[feats]]
        if need.size:
            orders = np.argsort(self._src_XT[need], axis=1, kind="stable")
            self._src_sorted[need] = orders
            vals = np.take_along_axis(self._src_XT[need], orders, axis=1)
            self._src_tie_free[need] = np.all(vals[:, 1:] > vals[:, :-1], axis=1)
            self._src_have[need] = True

    def _boot_machinery(self) -> tuple:
        st = self._boot_state
        if st is None:
            idx = self._fit_boot
            n_src = self._src_XT.shape[1]
            order_by_row = np.argsort(idx, kind="stable").astype(np.int32)
            counts = np.bincount(idx, minlength=n_src)
            starts = np.empty(n_src + 1, dtype=np.int64)
            starts[0] = 0
            np.cumsum(counts, out=starts[1:])
            self._boot_state = st = (order_by_row, counts, starts)
        return st

    def _derive_sorted(self, f: int) -> None:
        """O(n) bootstrap sorted order for a tie-free source feature."""
        order_by_row, counts, starts = self._boot_machinery()
        src_order = self._src_sorted[f]
        cnt = counts[src_order]
        total = self._XT.shape[1]
        out_off = np.empty(len(cnt) + 1, dtype=np.int64)
        out_off[0] = 0
        np.cumsum(cnt, out=out_off[1:])
        # Group g (source row r = src_order[g]) occupies output slots
        # [out_off[g], out_off[g+1]); slot t maps to the row's t-th draw.
        rep = np.repeat(starts[src_order] - out_off[:-1], cnt)
        self._sorted[f] = order_by_row[rep + self._ar[:total]]

    def _ensure_sorted(self, missing: np.ndarray) -> None:
        if self._fit_boot is not None or self._fit_identity:
            self._ensure_src_sorted(missing)
            if self._fit_identity:
                self._sorted[missing] = self._src_sorted[missing]
            else:
                for f in missing:
                    if self._src_tie_free[f]:
                        self._derive_sorted(int(f))
                    else:
                        self._sorted[f] = np.argsort(self._XT[f], kind="stable")
        else:
            self._sorted[missing] = np.argsort(self._XT[missing], axis=1, kind="stable")
        self._have_sort[missing] = True

    def _scratch(self, key: str, shape: tuple, dtype=float) -> np.ndarray:
        """A reusable uninitialized buffer view (no allocation when warm)."""
        need = 1
        for s in shape:
            need *= s
        buf = self._bufs.get(key)
        if buf is None or buf.size < need or buf.dtype != dtype:
            buf = np.empty(max(need, 1), dtype=dtype)
            self._bufs[key] = buf
        return buf[:need].reshape(shape)

    def _node_orders(self, idx: np.ndarray, candidates: np.ndarray, node_y: np.ndarray, m: int):
        """Sorted views of the node: ``x_sorted``, ``y_sorted`` (k, m)."""
        if m > self._cutoff:
            # Presort + membership-mask filter. Sort each sampled feature
            # at most once per fit; unsampled features are never sorted.
            missing = candidates[~self._have_sort[candidates]]
            if missing.size:
                self._ensure_sorted(missing)
            rows = self._sorted[candidates]
            if m == rows.shape[1]:
                orders = rows  # root: the presort itself
            else:
                mask = self._mask
                mask[idx] = True
                orders = rows[mask[rows]].reshape(candidates.shape[0], m)
                mask[idx] = False
            x_sorted = self._XT[candidates[:, None], orders]
            y_sorted = self._y[orders]
        else:
            # Small node: one batched stable argsort of the node block.
            # Ties break by position within ``idx`` — the same order the
            # membership filter preserves, since ``idx`` is ascending.
            rows = self._ar[: candidates.shape[0], None]
            block = self._XT[candidates[:, None], idx]
            local = np.argsort(block, axis=1, kind="stable")
            x_sorted = block[rows, local]
            # For gini fits the engine carries int32 class codes (``_y`` is
            # its own copy); gather those so the cumsum buffers keep one
            # stable dtype across nodes.
            y_node = node_y if node_y.dtype == self._y.dtype else self._y[idx]
            y_sorted = y_node[local]
        return x_sorted, y_sorted

    def best_split(
        self, idx: np.ndarray, candidates: np.ndarray, node_y: np.ndarray
    ) -> tuple[float, int, float]:
        m = idx.shape[0]
        k = candidates.shape[0]

        # Candidate split positions form the contiguous run [lo, hi); all
        # per-position arrays below are therefore cheap slice views, and a
        # position's validity (left neighbor strictly smaller) becomes a
        # mask applied at the end — the gain values at valid positions are
        # computed by exactly the reference engine's expressions.
        lo, hi = self._min_samples_leaf, m - self._min_samples_leaf
        if hi <= lo:
            return _NO_SPLIT
        p = hi - lo

        x_sorted, y_sorted = self._node_orders(idx, candidates, node_y, m)

        if self._criterion != "gini":
            gain = self._variance_gains(y_sorted, lo, hi, m)
        elif self._n_classes == 2:
            # Binary fast path, inlined and allocation-free (one scratch
            # block). Class counts are small exact integers, so every
            # row's total is the same value (parent comes from row 0) and
            # the integer cumsum matches the reference's float one-hot
            # cumsum bit for bit; each arithmetic step mirrors its Gini scan.
            F = self._scratch("bin", (8, k, p))
            cum1 = np.cumsum(y_sorted, axis=1, out=self._scratch("cum", (k, m), y_sorted.dtype))
            ones_left = cum1[:, lo - 1 : hi - 1]
            ones_total = cum1[:1, -1:]
            n_left = self._pos_f[lo:hi]
            n_right = np.subtract(float(m), n_left, out=self._scratch("nr", (p,)))
            zeros_left = np.subtract(n_left, ones_left, out=F[0])
            ones_right = np.subtract(ones_total, ones_left, out=F[1])
            zeros_right = np.subtract(n_right, ones_right, out=F[2])
            # 1 - ((zeros/count)^2 + (ones/count)^2), left then right
            np.divide(zeros_left, n_left, out=F[3])
            np.multiply(F[3], F[3], out=F[3])
            np.divide(ones_left, n_left, out=F[4])
            np.multiply(F[4], F[4], out=F[4])
            np.add(F[3], F[4], out=F[3])
            gini_left = np.subtract(1.0, F[3], out=F[3])
            np.divide(zeros_right, n_right, out=F[5])
            np.multiply(F[5], F[5], out=F[5])
            np.divide(ones_right, n_right, out=F[6])
            np.multiply(F[6], F[6], out=F[6])
            np.add(F[5], F[6], out=F[5])
            gini_right = np.subtract(1.0, F[5], out=F[5])
            parent = 1.0 - (((m - ones_total) / m) ** 2 + (ones_total / m) ** 2)
            np.multiply(n_left, gini_left, out=F[3])
            np.multiply(n_right, gini_right, out=F[5])
            np.add(F[3], F[5], out=F[3])
            np.divide(F[3], float(m), out=F[3])
            gain = np.subtract(parent, F[3], out=F[7])
        else:
            gain = self._gini_gains(y_sorted, lo, hi, m)

        valid = np.less(
            x_sorted[:, lo - 1 : hi - 1],
            x_sorted[:, lo:hi],
            out=self._scratch("valid", (k, p), dtype=bool),
        )
        np.copyto(gain, -np.inf, where=np.logical_not(valid, out=valid))

        best_pos = np.argmax(gain, axis=1)
        gains = gain[self._ar[:k], best_pos].tolist()
        positions = best_pos.tolist()
        feats = candidates.tolist()

        # Same tie-break as a per-feature candidate loop: first feature that is
        # strictly better (by _EPS) than the best so far wins.
        best_gain, best_feature, best_threshold = _NO_SPLIT
        for j in range(k):
            g = gains[j]
            if g > best_gain + _EPS:
                i = lo + positions[j]
                best_gain = g
                best_feature = feats[j]
                best_threshold = float(0.5 * (x_sorted[j, i - 1] + x_sorted[j, i]))
        return best_gain, best_feature, best_threshold

    def _gini_gains(self, y_sorted: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
        """Multiclass Gini gains at positions [lo, hi), shape (k, p).

        Class counts are small exact integers (so every row's total is
        the same value and the parent term comes from row 0); the gain
        expressions apply the same operations in the same order as the
        reference engine's Gini scan, hence bit-identical values. The binary case
        takes the inlined fast path in :meth:`best_split` instead.
        """
        n_left = self._pos_f[lo:hi]
        n_right = m - n_left
        onehot = (y_sorted[:, :, None] == np.arange(self._n_classes)).astype(float)
        cum = np.cumsum(onehot, axis=1)
        left_counts = cum[:, lo - 1 : hi - 1, :]
        total = cum[:, -1, :]
        right_counts = total[:, None, :] - left_counts
        gini_left = 1.0 - np.sum((left_counts / n_left[None, :, None]) ** 2, axis=2)
        gini_right = 1.0 - np.sum((right_counts / n_right[None, :, None]) ** 2, axis=2)
        parent = np.reshape(1.0 - np.sum((total[:1] / m) ** 2, axis=1), (-1, 1))
        return parent - (n_left * gini_left + n_right * gini_right) / m

    def _variance_gains(self, y_sorted: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
        """Variance-reduction gains at positions [lo, hi), shape (k, p)."""
        # Unlike class counts, running float sums depend on accumulation
        # order, and each row accumulates in its own sorted order — so the
        # per-row totals (and the parent term) must stay per-row to match
        # the reference engine bit for bit. Scratch buffers only avoid
        # allocations; every arithmetic step mirrors its variance scan.
        k, p = y_sorted.shape[0], hi - lo
        s = self._scratch
        cum = np.cumsum(y_sorted, axis=1, out=s("vcum", y_sorted.shape))
        y2 = np.multiply(y_sorted, y_sorted, out=s("vy2", y_sorted.shape))
        cum2 = np.cumsum(y2, axis=1, out=s("vcum2", y_sorted.shape))

        n_left = self._pos_f[lo:hi]
        n_right = m - n_left
        sum_left = cum[:, lo - 1 : hi - 1]
        sum_right = np.subtract(cum[:, -1:], sum_left, out=s("v0", (k, p)))
        sq_left = cum2[:, lo - 1 : hi - 1]
        sq_right = np.subtract(cum2[:, -1:], sq_left, out=s("v1", (k, p)))
        t0, t1 = s("v2", (k, p)), s("v3", (k, p))

        def variance(sq, total, count, out):
            # sq/count - (total/count)^2, allocation-free
            np.divide(sq, count, out=out)
            np.divide(total, count, out=t0)
            np.multiply(t0, t0, out=t0)
            return np.subtract(out, t0, out=out)

        var_left = variance(sq_left, sum_left, n_left, s("v4", (k, p)))
        var_right = variance(sq_right, sum_right, n_right, s("v5", (k, p)))
        parent = cum2[:, -1:] / m - (cum[:, -1:] / m) ** 2
        np.multiply(n_left, var_left, out=var_left)
        np.multiply(n_right, var_right, out=var_right)
        np.add(var_left, var_right, out=t1)
        np.divide(t1, m, out=t1)
        return np.subtract(parent, t1, out=t1)
