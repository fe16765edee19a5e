"""Split search: the hot path of the downstream oracle.

The oracle A(F, y) spends nearly all of its time fitting random forests,
and a CART fit spends nearly all of *its* time finding the best split per
node. The tree builder (:mod:`repro.ml.tree`) grows many trees together,
one node of every unfinished tree per round, and asks its engine for the
best split of every node of a round in one call, :meth:`SplitEngine.best_splits`.

:class:`PresortEngine` is the one engine the package ships. One
``begin_fit`` serves every tree grown from one matrix: all folds' trees of
an oracle call, read through their row maps. It sorts a round's nodes by
size and scores them in blocks of similar-sized nodes, each at most
``_BLOCK_CELLS`` (node, candidate, position) cells once padded to its
widest node, which bounds the working set to a few hundred KB:

- nodes of at most ``_SMALL`` rows are gathered into a ``+inf``-padded
  (node, feature, row) block and stable-argsorted along rows, so padding
  sorts last and ties keep the node's row order;
- larger nodes filter the matrix's presort (one stable argsort per feature,
  made the first time a large node samples it) through the node's rows.
  The filter orders ties between different rows by row index, not by the
  node's row order. That only matters for running float sums, so for
  regression a feature with tied values is argsorted per node instead.

One gain implementation scores both blocks position by position, with
each row's own totals: class counts are exact integer cumsums (class 0's
the remainder of the others'), the class sum runs left to right up to 7
classes and through ``np.sum`` from 8 on (numpy's pairwise order, as the
seed's one-hot scan), and variance sums accumulate in each row's own
sorted order. Positions at or past
``m - min_samples_leaf`` and between equal values are masked, and a node
takes the first candidate feature that is better than the best so far by
more than ``_EPS``.

Injected engines (the seed's :class:`~tests.reference.split_engine.NaiveEngine`
in the tests) implement :meth:`SplitEngine.best_split` for one node; the
base :meth:`~SplitEngine.best_splits` calls it node by node, so such
trees grow in the same lockstep. ``tests/ml/test_split_engine.py``
and ``tests/ml/test_tree_builder.py`` assert that every path fits the
same trees, thresholds, importances and predictions, bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["SplitEngine", "PresortEngine", "resolve_engine"]

_EPS = 1e-15

# Nodes of at most this many rows are searched in the padded block; larger
# ones filter the presort. Both give the same gains, so it is a speed knob.
_SMALL = 128
# Cells (node rows x candidates x positions) one scoring block may hold.
_BLOCK_CELLS = 1 << 12


class SplitEngine:
    """Strategy interface for best-split search.

    Lifecycle: the tree builder calls :meth:`begin_fit` with the matrix its
    trees read, then :meth:`best_splits` once per round, then
    :meth:`end_fit`. Engines are reusable across sequential fits but are
    not thread-safe.
    """

    def begin_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        criterion: str,
        n_classes: int,
        min_samples_leaf: int,
    ) -> None:
        if criterion not in ("gini", "variance"):
            raise ValueError(f"Unknown split criterion {criterion!r}")
        self._X = X
        self._y = y
        self._criterion = criterion
        self._n_classes = int(n_classes)
        self._min_samples_leaf = int(min_samples_leaf)

    def best_split(
        self, idx: np.ndarray, candidates: np.ndarray, node_y: np.ndarray
    ) -> tuple[float, int, float]:
        """Return ``(gain, feature, threshold)``; ``feature == -1`` means leaf.

        ``idx`` holds the node's rows of the fitted matrix in the order of
        its tree's sample; ``candidates`` the feature indices to scan, in
        the order the tie-break must respect (first strictly-better
        feature wins); ``node_y`` is ``y[idx]``.
        """
        raise NotImplementedError

    def best_splits(
        self, rows: list[np.ndarray], candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best split of every node of a round: ``(gain, feature, threshold)``
        arrays, one entry per node; ``feature == -1`` means leaf.

        ``rows[i]`` holds node ``i``'s rows of the fitted matrix in the
        order of its tree's sample; ``candidates[i]`` its candidate
        features. This default searches node by node.
        """
        found = [self.best_split(r, c, self._y[r]) for r, c in zip(rows, candidates)]
        gain, feature, threshold = zip(*found)
        return np.array(gain), np.array(feature), np.array(threshold)

    def end_fit(self) -> None:
        """Drop per-fit references so fitted estimators pickle lean."""
        self._X = self._y = None

    # Engines carry no fitted state between fits; pickling one (old fitted
    # trees kept a reference) must not drag the training data along.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in ("_X", "_y", "_sorted", "_have_sort", "_tie_free"):
            state.pop(key, None)
        return state


class PresortEngine(SplitEngine):
    """Round-at-a-time split search for many trees over one matrix."""

    # The ``engine`` label of the oracle's ``eval.*`` trace metrics.
    name = "presort"

    def begin_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        criterion: str,
        n_classes: int,
        min_samples_leaf: int,
    ) -> None:
        super().begin_fit(X, y, criterion, n_classes, min_samples_leaf)
        if criterion == "gini":
            self._y = y.astype(np.int32)  # class codes; halves every gather
        n, d = X.shape
        # Gathers take flat indices into X; int32 indices halve the
        # traffic of every presort filter.
        self._X = np.ascontiguousarray(X)
        self._sorted = np.empty((d, n), dtype=np.int32)
        self._have_sort = np.zeros(d, dtype=bool)
        self._tie_free = np.zeros(d, dtype=bool)

    def end_fit(self) -> None:
        super().end_fit()
        self._sorted = self._have_sort = self._tie_free = None

    def best_splits(
        self, rows: list[np.ndarray], candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_nodes, k = candidates.shape
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n_nodes)
        gains = np.empty((n_nodes, k))
        thresholds = np.empty((n_nodes, k))
        # Blocks of similar-sized nodes, smallest first: each holds nodes
        # of one kind (padded or presorted) and at most _BLOCK_CELLS cells
        # once padded to its widest node, which bounds the working set.
        by_size = np.argsort(sizes, kind="stable")
        width = sizes[by_size].tolist()
        start = 0
        while start < n_nodes:
            small = width[start] <= _SMALL
            stop = start + 1
            while (
                stop < n_nodes
                and (width[stop] <= _SMALL) == small
                and (stop - start + 1) * k * width[stop] <= _BLOCK_CELLS
            ):
                stop += 1
            part = by_size[start:stop]
            block = self._padded_block if small else self._presorted_block
            x, y, m = block([rows[i] for i in part], candidates[part], sizes[part])
            gain, threshold = self._best_positions(x, y, m)
            gains[part] = gain.reshape(-1, k)
            thresholds[part] = threshold.reshape(-1, k)
            start = stop
        # The first candidate strictly better (by _EPS) than the best so far
        # wins, scanned for every node at once.
        best = np.zeros(n_nodes)
        column = np.full(n_nodes, -1)
        for j in range(k):
            better = gains[:, j] > best + _EPS
            np.copyto(best, gains[:, j], where=better)
            np.copyto(column, j, where=better)
        nodes = np.arange(n_nodes)
        found = column >= 0
        feature = np.where(found, candidates[nodes, column], -1)
        threshold = np.where(found, thresholds[nodes, column], 0.0)
        return best, feature, threshold

    # -- sorted (x, y) blocks, one row per (node, candidate) ----------------

    def _padded_block(self, rows, candidates, sizes):
        """Small nodes: one stable argsort of the ``+inf``-padded block."""
        n_nodes, k = candidates.shape
        width = int(sizes.max())
        flat = np.concatenate(rows)
        offsets = np.arange(n_nodes) * width - (np.cumsum(sizes) - sizes)
        idx = np.zeros((n_nodes, width), dtype=flat.dtype)
        idx.flat[np.arange(flat.size) + np.repeat(offsets, sizes)] = flat
        # Labels once per node; values once per (node, candidate) row.
        y = np.take(self._y, idx)
        x = np.take(self._X, idx[:, None, :] * np.intp(self._X.shape[1]) + candidates[:, :, None])
        x = x.reshape(-1, width)
        m = np.repeat(sizes, k)
        np.copyto(x, np.inf, where=np.arange(width) >= m[:, None])
        order = np.argsort(x, axis=1, kind="stable")
        row = np.arange(len(x))
        order += (row * width)[:, None]
        x = np.take(x, order)
        # The same positions in the row of y that holds the row's node.
        order -= ((row - row // k) * width)[:, None]
        return x, np.take(y, order), m

    def _presorted_block(self, rows, candidates, sizes):
        """Large nodes: the presort filtered through each node's rows."""
        n_nodes, k = candidates.shape
        width = int(sizes.max())
        x = np.full((n_nodes, k, width), np.inf)
        y = np.zeros((n_nodes, k, width), dtype=self._y.dtype)
        for i, (node, feats, m) in enumerate(zip(rows, candidates, sizes)):
            order = self._node_orders(node, feats)
            x[i, :, :m] = self._X[order, feats[:, None]]
            y[i, :, :m] = self._y[order]
        return x.reshape(-1, width), y.reshape(-1, width), np.repeat(sizes, k)

    def _node_orders(self, node: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """The node's rows sorted by each feature, shape ``(k, m)``."""
        missing = feats[~self._have_sort[feats]]
        if missing.size:
            columns = self._X[:, missing].T
            orders = np.argsort(columns, axis=1, kind="stable")
            self._sorted[missing] = orders
            values = np.take_along_axis(columns, orders, axis=1)
            self._tie_free[missing] = np.all(values[:, 1:] > values[:, :-1], axis=1)
            self._have_sort[missing] = True
        presorted = self._sorted[feats]
        weight = np.bincount(node, minlength=presorted.shape[1])
        present = presorted[weight[presorted] > 0]
        order = np.repeat(present, weight[present]).reshape(len(feats), -1)
        if self._criterion == "variance":
            # Copies of one row are equal in x and y, so the filter's order
            # among them is exact; equal values of different rows must keep
            # the node's row order for the running sums.
            tied = np.flatnonzero(~self._tie_free[feats])
            if tied.size:
                block = self._X[node, feats[tied, None]]
                order[tied] = node[np.argsort(block, axis=1, kind="stable")]
        return order

    # -- the gains ------------------------------------------------------------

    def _best_positions(self, x, y, m):
        """Best gain and its threshold per row of sorted ``x`` (``+inf``
        past each row's ``m`` values) and ``y``."""
        lo = self._min_samples_leaf
        n_rows, width = x.shape
        hi = width - lo
        if hi <= lo:
            return np.full(n_rows, -np.inf), np.zeros(n_rows)
        r = np.arange(n_rows)
        n_left = np.arange(lo, hi, dtype=float)
        m_f = m.astype(float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._criterion == "gini":
                gain = self._gini_gains(y, lo, hi, r, m, m_f, n_left)
            else:
                gain = self._variance_gains(y, lo, hi, r, m, m_f, n_left)
        # A split between positions i - 1 and i needs distinct values there
        # and more than min_samples_leaf rows to its right.
        invalid = x[:, lo - 1 : hi - 1] >= x[:, lo:hi]
        invalid |= np.arange(lo, hi) >= (m - lo)[:, None]
        np.copyto(gain, -np.inf, where=invalid)
        best = np.argmax(gain, axis=1)
        at = best + lo
        return gain[r, best], 0.5 * (x[r, at - 1] + x[r, at])

    def _gini_gains(self, y, lo, hi, r, m, m_f, n_left):
        """Gini gains at positions [lo, hi). Class counts are exact
        integer cumsums of classes 1 and up; class 0's are the remainder."""
        n_classes = self._n_classes
        counts = [np.cumsum(y == c, axis=1, dtype=np.int32) for c in range(1, n_classes)]
        total = [count[r, m - 1] for count in counts]
        gain = _gini([count[:, lo - 1 : hi - 1] for count in counts], n_left, n_classes)
        np.multiply(n_left, gain, out=gain)
        right = [t[:, None] - count[:, lo - 1 : hi - 1] for t, count in zip(total, counts)]
        del counts
        n_right = m_f - n_left
        gini_right = _gini(right, n_right, n_classes)
        np.multiply(n_right, gini_right, out=gini_right)
        np.add(gain, gini_right, out=gain)
        np.divide(gain, m_f, out=gain)
        return np.subtract(_gini(total, m_f[:, 0], n_classes)[:, None], gain, out=gain)

    def _variance_gains(self, y, lo, hi, r, m, m_f, n_left):
        """Variance-reduction gains at positions [lo, hi). Running float
        sums depend on order, so every total comes from its own row."""
        cum = np.cumsum(y, axis=1)
        cum2 = np.cumsum(y * y, axis=1)
        total = cum[r, m - 1][:, None]
        total2 = cum2[r, m - 1][:, None]
        sum_left = cum[:, lo - 1 : hi - 1]
        sq_left = cum2[:, lo - 1 : hi - 1]
        n_right = m_f - n_left
        var_right = _variance(total2 - sq_left, total - sum_left, n_right)
        np.multiply(n_right, var_right, out=var_right)
        # The left sums are not needed any more: compute in place.
        gain = _variance(sq_left, sum_left, n_left)
        np.multiply(n_left, gain, out=gain)
        np.add(gain, var_right, out=gain)
        np.divide(gain, m_f, out=gain)
        parent = total2 / m_f - (total / m_f) ** 2
        return np.subtract(parent, gain, out=gain)


def _gini(counts, n, n_classes: int) -> np.ndarray:
    """``1 - sum_c (count_c / n)**2`` from the count arrays of classes 1 to
    ``n_classes - 1`` (class 0's is ``n`` minus theirs), summed in the
    order ``np.sum`` takes over one row's classes: left to right up to 7
    classes, pairwise from 8 on. Returns a fresh array."""
    first = np.subtract(n, counts[0]) if len(counts) else np.array(n, dtype=float)
    for count in counts[1:]:
        np.subtract(first, count, out=first)
    shares = itertools.chain(
        [_squared(np.divide(first, n, out=first))],
        (_squared(np.divide(count, n)) for count in counts),
    )
    if n_classes >= 8:
        total = np.sum(np.stack(list(shares), axis=-1), axis=-1)
    else:
        total = next(shares)
        for share in shares:
            np.add(total, share, out=total)
    return np.subtract(1.0, total, out=total)


def _squared(a: np.ndarray) -> np.ndarray:
    return np.multiply(a, a, out=a)


def _variance(sq: np.ndarray, total: np.ndarray, count) -> np.ndarray:
    """``sq / count - (total / count)**2``, computed in ``sq``, which it
    returns (``total`` is overwritten too)."""
    np.divide(sq, count, out=sq)
    mean = np.divide(total, count, out=total)
    return np.subtract(sq, _squared(mean), out=sq)


def resolve_engine(engine: "SplitEngine | str | None") -> SplitEngine:
    """The engine a fit runs on: ``engine`` itself, or a fresh presort engine.

    ``None`` is the default. Estimators pickled by older builds may name
    their engine with a string; every engine fits the same trees, so a
    name resolves to the default too.
    """
    if isinstance(engine, SplitEngine):
        return engine
    if engine is None or isinstance(engine, str):
        return PresortEngine()
    raise TypeError(f"expected a SplitEngine instance or None, got {engine!r}")
