"""CART decision trees (classifier and regressor), vectorized on numpy.

These trees are the workhorse of the downstream oracle: the paper's lineage
(GRFG, FastFT) evaluates generated feature sets with a random forest, which
is built on top of this module. The split search is an exact, sort-based scan
(the classic CART algorithm) delegated to a
:class:`~repro.ml.split_engine.SplitEngine`.

One iterative builder, :func:`_grow`, fits every tree. It grows a list of
trees together, one *open* node (one that may split) of every unfinished
tree per round. A node's statistics are taken when the split that creates
it runs, the class counts of all a round's children from one segmented
``np.bincount`` (a regression node's mean and variance stay per node), so
each child is known open or closed when it is pushed. A round pops every
tree's own pre-order stack through its closed nodes, numbering each as it
passes, to its next open node, draws that node's candidate features and
asks the engine for all the round's splits in one call: a call takes as
many rounds as its tree with the most open nodes. Trees with one seed
share one sequence of candidate draws. Within a tree, node ids, candidate
draws and importance adds follow the order of a recursive pre-order
build, so the trees are the ones that build grew, bit for bit. A tree
reads its rows of one shared matrix through its sample (a bootstrap's
draws, a fold's training rows), so no tree copies ``X``.
:func:`fit_trees` fits a single tree, a forest's trees
(:mod:`repro.ml.forest`) and, for cross-validation, every fold's trees of
an oracle call in one lockstep, on any engine: one that searches a node
per call (the tests' reference engines) is asked node by node. A
classifier tree keeps the classes its own sample holds, so trees whose
samples hold different class lists grow in separate lockstep groups. The
recursive builder it replaced lives on as a test oracle in
``tests/reference/tree.py``.

Prediction has one kernel, :meth:`_NodeTable.descend`. A node table
concatenates the nodes of one or more trees into flat arrays with global
ids, and the descent moves every (tree, row) pair down one level per
step with one gather-compare-select, so its Python overhead grows with
the depth, not with the number of trees or rows. A tree builds its
one-tree table on first predict; a forest builds one table for all its
trees (:mod:`repro.ml.forest`). The table is a cache: pickles leave it
out, so a fitted model pickles to the same bytes before and after a
predict. ``predict`` raises ``ValueError`` when ``X`` does not have the
fitted number of columns.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_width,
    check_X_y,
)
from repro.ml.split_engine import SplitEngine, _gini, resolve_engine

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1


class _CachesNodes:
    """Keeps the node table built on first predict in ``_nodes`` and out of
    pickles: a fitted model pickles to the same bytes before and after a
    predict, and pickles written before the table existed load unchanged.
    Two threads that predict first at once both build it; either table is
    the same.
    """

    _nodes = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_nodes", None)
        return state


@dataclass
class _Tree(_CachesNodes):
    """Flat array representation of a fitted tree."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[np.ndarray] = field(default_factory=list)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf value row for every sample (vectorized descent)."""
        if self._nodes is None:
            self._nodes = _NodeTable([self])
        return self.value[self._nodes.descend(X)[0]]


class _NodeTable:
    """The nodes of one or more fitted trees, concatenated into flat arrays.

    Node ``i`` of tree ``t`` gets the global id ``roots[t] + i``. The left
    and right children of node ``g`` are ``children[2 * g]`` and
    ``children[2 * g + 1]``, as global ids. A leaf reads column 0 and is
    its own child on both sides, so a (tree, row) pair that reached its
    leaf stays there while pairs in deeper trees keep descending. The table
    is built with whole-array operations, without a Python loop over nodes.
    """

    __slots__ = ("feature", "threshold", "children", "roots", "n_levels")

    def __init__(self, trees: Sequence[_Tree]) -> None:
        sizes = [len(tree.feature) for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        feature = np.concatenate([tree.feature for tree in trees])
        leaf = feature == _LEAF
        children = np.stack(
            [np.concatenate([tree.left for tree in trees]),
             np.concatenate([tree.right for tree in trees])],
            axis=1,
        ) + np.repeat(self.roots, sizes)[:, None]
        children[leaf] = np.flatnonzero(leaf)[:, None]
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.children = children.ravel()
        # Depth of the deepest leaf: expand every tree's frontier level by level.
        self.n_levels = 0
        frontier = self.roots[~leaf[self.roots]]
        while frontier.size:
            self.n_levels += 1
            frontier = children[frontier].ravel()
            frontier = frontier[~leaf[frontier]]

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Global leaf id of every (tree, row) pair, shape ``(trees, rows)``.

        One gather-compare-select per level moves all pairs at once; for
        finite inputs ``x > threshold`` is exactly "not left".
        """
        flat = np.ascontiguousarray(X).ravel()
        row_start = np.arange(X.shape[0], dtype=np.int64) * X.shape[1]
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.n_levels):
            go_right = flat[row_start + self.feature[node]] > self.threshold[node]
            node = self.children[2 * node + go_right]
        return node


class _BaseDecisionTree(BaseEstimator):
    """Shared CART estimator; subclasses name the criterion and predict."""

    # Split criterion the engine applies; set by subclasses.
    _criterion = "gini"
    # Class-level backstop for estimators pickled before the engine layer
    # existed (old session checkpoints): they fit on the default engine.
    split_engine: "SplitEngine | None" = None

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        seed: int | None = None,
        split_engine: "SplitEngine | None" = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.split_engine = split_engine
        self.tree_: _Tree | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        if isinstance(mf, float):
            return max(1, int(mf * n_features))
        return max(1, min(int(mf), n_features))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseDecisionTree":
        X, y = check_X_y(X, y)
        fit_trees([self], X, y, [None], resolve_engine(self.split_engine))
        return self


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """Gini-impurity CART classifier with probability leaves."""

    _criterion = "gini"

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise RuntimeError("Tree is not fitted")
        return self.tree_.apply(check_width(check_array(X), self.n_features_))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """Variance-reduction CART regressor with mean leaves."""

    _criterion = "variance"

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise RuntimeError("Tree is not fitted")
        return self.tree_.apply(check_width(check_array(X), self.n_features_)).ravel()


def fit_trees(
    trees: Sequence[_BaseDecisionTree],
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence["np.ndarray | None"],
    engine: SplitEngine,
) -> None:
    """Fit ``trees[t]`` on rows ``samples[t]`` of a checked ``(X, y)``.

    A sample lists row indices in sample order (a bootstrap's draws, a
    fold's training rows); ``None`` means every row in order. The trees
    are of one class with the same hyper-parameters, and they grow
    together on ``engine``, reading their rows of ``X`` through their
    samples. A classifier keeps, per tree, the classes its sample holds
    and codes them as a lone fit would, so trees grow together in groups
    that share a class list.
    """
    n, d = X.shape
    rows = [np.asarray(np.arange(n) if s is None else s, dtype=np.int32) for s in samples]
    for tree in trees:
        tree.n_features_ = d
    if trees[0]._criterion != "gini":
        _grow(trees, X, np.asarray(y, dtype=float), rows, 0, engine)
        return
    labels, codes = np.unique(y, return_inverse=True)
    groups: dict[tuple, list[int]] = {}
    for t, (tree, r) in enumerate(zip(trees, rows)):
        present = np.flatnonzero(np.bincount(codes[r], minlength=len(labels)))
        tree.classes_ = labels[present]
        tree.n_classes_ = len(present)
        groups.setdefault(tuple(present.tolist()), []).append(t)
    for present, members in groups.items():
        lookup = np.zeros(len(labels), dtype=codes.dtype)
        lookup[list(present)] = np.arange(len(present))
        _grow(
            [trees[t] for t in members], X, lookup[codes], [rows[t] for t in members],
            len(present), engine,
        )


def _grow(
    trees: Sequence[_BaseDecisionTree],
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[np.ndarray],
    n_classes: int,
    engine: SplitEngine,
) -> None:
    """The CART builder: grow ``trees`` together, one open node of each per round.

    Tree ``t`` reads rows ``rows[t]`` of ``X``. ``y`` holds every row's
    class code below ``n_classes``, or its target when ``n_classes`` is 0.
    A node is *open* when it may split: at least ``min_split`` rows, above
    ``max_depth`` and impure. Its statistics, and so its openness, are
    computed when the split that creates it runs, and only open nodes keep
    their rows. Each tree keeps its own pre-order stack, and each round
    pops every unfinished one through its closed nodes, numbering each as
    it passes, to its next open node; the engine scores those nodes in one
    call. So within a tree node ids, candidate draws and importance adds
    follow the order of a recursive build, a split's left child is the
    next node, and a call takes as many rounds as its tree with the most
    open nodes. Per-node fields are kept in creation order and gathered
    into each tree's pre-order arrays at the end.
    """
    first = trees[0]
    n_trees, d = len(trees), X.shape[1]
    k = first._resolve_max_features(d)
    min_split = max(first.min_samples_split, 2 * first.min_samples_leaf)
    max_depth = np.inf if first.max_depth is None else first.max_depth
    leaf_min = first.min_samples_leaf
    draws = _CandidateDraws([tree.seed for tree in trees], d, k)
    n_total = np.array([len(r) for r in rows], dtype=float)
    importance = np.zeros((n_trees, d))

    def opened(nodes: list[np.ndarray], depth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sizes = np.fromiter(map(len, nodes), dtype=np.int64, count=len(nodes))
        value, impurity = _node_stats(nodes, sizes, y, n_classes)
        return value, (sizes >= min_split) & (depth < max_depth) & ~(impurity <= 1e-12)

    # The call's nodes are numbered in creation order: the roots are nodes
    # 0 to n_trees - 1, and the i-th split of the call creates nodes
    # n_trees + 2i (left) and n_trees + 2i + 1 (right). ``values`` holds
    # their value rows, ``splits`` each round's (parent, tree, feature,
    # threshold) and ``pops`` the order they were popped in. A stack entry
    # is (node, rows of an open node or None, depth).
    value, is_open = opened(list(rows), np.zeros(n_trees))
    values = [value]
    stacks = [[(t, rows[t] if is_open[t] else None, 0)] for t in range(n_trees)]
    n_created = n_trees
    pops: list[np.ndarray] = []
    splits: list[tuple[np.ndarray, ...]] = []
    active = range(n_trees)
    engine.begin_fit(
        X, y, criterion=first._criterion, n_classes=n_classes, min_samples_leaf=leaf_min
    )
    try:
        while True:
            popped, owner, nodes, depths, ids = [], [], [], [], []
            for t in active:
                stack = stacks[t]
                while stack:
                    c, node, depth = stack.pop()
                    popped.append(c)
                    if node is not None:
                        owner.append(t)
                        nodes.append(node)
                        depths.append(depth)
                        ids.append(c)
                        break
            pops.append(np.array(popped, dtype=np.int64))
            if not nodes:
                break
            active = owner
            owner = np.array(owner)
            sizes = np.fromiter(map(len, nodes), dtype=np.int64, count=len(nodes))
            gains, feats, cuts = engine.best_splits(nodes, draws.next(active))
            split = np.flatnonzero(feats >= 0)
            if not split.size:
                continue
            left_sets, right_sets = _partition(
                X, [nodes[i] for i in split], feats[split], cuts[split]
            )
            # Both sides must keep min_samples_leaf rows (a midpoint that
            # rounds onto the right value moves those rows left).
            n_left = np.fromiter(map(len, left_sets), dtype=np.int64, count=split.size)
            keep = (n_left >= leaf_min) & (sizes[split] - n_left >= leaf_min)
            split = split[keep]
            if not split.size:
                continue
            t, f = owner[split], feats[split]
            importance[t, f] += gains[split] * sizes[split] / n_total[t]
            # Children in creation order: each split's left, then its right.
            children = [
                child
                for pair in zip(itertools.compress(left_sets, keep),
                                itertools.compress(right_sets, keep))
                for child in pair
            ]
            depth = np.repeat(np.array(depths)[split] + 1, 2)
            value, is_open = opened(children, depth)
            splits.append((np.array(ids)[split], t, f, cuts[split]))
            values.append(value)
            lefts = range(n_created, n_created + 2 * split.size, 2)
            n_created += 2 * split.size
            for tree, c, child_depth, left, right, left_open, right_open in zip(
                t.tolist(), lefts, depth[::2].tolist(),
                children[::2], children[1::2], is_open[::2].tolist(), is_open[1::2].tolist(),
            ):
                stack = stacks[tree]
                # A right child waits while its sibling's subtree grows; a
                # copy lets the round's partition buffer go meanwhile.
                stack.append((c + 1, right.copy() if right_open else None, child_depth))
                stack.append((c, left if left_open else None, child_depth))
    finally:
        engine.end_fit()
    parent, split_tree, split_feature, cut = (
        map(np.concatenate, zip(*splits)) if splits else np.zeros((4, 0), dtype=np.int64)
    )
    node_tree = np.concatenate([np.arange(n_trees), np.repeat(split_tree, 2)])
    # Every node is popped once, in its tree's pre-order: a stable sort of
    # the pops by tree lists each tree's nodes by id.
    order = np.concatenate(pops)
    preorder = order[np.argsort(node_tree[order], kind="stable")]
    n_nodes = np.bincount(node_tree, minlength=n_trees)
    starts = np.cumsum(n_nodes) - n_nodes
    node_id = np.empty(n_created, dtype=np.int64)
    node_id[preorder] = np.arange(n_created) - np.repeat(starts, n_nodes)
    feature = np.full(n_created, _LEAF, dtype=np.int64)
    threshold = np.zeros(n_created)
    right = np.full(n_created, _LEAF, dtype=np.int64)
    feature[parent], threshold[parent] = split_feature, cut
    right[parent] = node_id[n_trees + 1 + 2 * np.arange(len(parent))]
    value = np.concatenate(values)
    values.clear()
    for t, (tree, start, size) in enumerate(zip(trees, starts.tolist(), n_nodes.tolist())):
        nodes = preorder[start : start + size]
        tree.tree_ = _Tree(
            feature=feature[nodes],
            threshold=threshold[nodes],
            left=np.where(feature[nodes] != _LEAF, np.arange(1, size + 1), _LEAF),
            right=right[nodes],
            value=value[nodes],
        )
        total = importance[t].sum()
        tree.feature_importances_ = importance[t] / total if total > 0 else np.zeros(d)


class _CandidateDraws:
    """Every tree's candidate features, one row per open node.

    A tree draws ``k`` of ``d`` features per open node from a generator
    seeded with its seed, so its draws are a pure function of (seed, d,
    k). Trees with one integer seed (the folds' clones of a forest take
    their trees' seeds from one template seed) share one sequence: it is
    drawn lazily, once, as far as its furthest tree has read, and each
    tree reads its own prefix. The sequences are the rows of one
    ``(sequences, draws, k)`` int array.
    """

    def __init__(self, seeds: list, d: int, k: int) -> None:
        self.d, self.k = d, k
        # A seed that is not an integer (None, a Generator) gets its own
        # sequence, as each tree had its own generator.
        self.rngs: list[np.random.Generator] = []
        keys: dict = {}
        sequence = []
        for seed in seeds:
            key = int(seed) if isinstance(seed, (int, np.integer)) else object()
            if key not in keys:
                keys[key] = len(self.rngs)
                self.rngs.append(np.random.default_rng(seed))
            sequence.append(keys[key])
        self.sequence = np.array(sequence)
        self.taken = np.zeros(len(seeds), dtype=np.int64)
        self.n_drawn = [0] * len(self.rngs)
        self.drawn = np.empty((len(self.rngs), 8, k), dtype=np.int64)

    def next(self, trees: list[int]) -> np.ndarray:
        """The next draw of each of ``trees`` (distinct), one row per tree."""
        if self.k >= self.d:
            return np.tile(np.arange(self.d), (len(trees), 1))
        sequence = self.sequence[trees]
        at = self.taken[trees]
        self.taken[trees] += 1
        if at.max() == self.drawn.shape[1]:
            self.drawn = np.concatenate([self.drawn, np.empty_like(self.drawn)], axis=1)
        # A sequence's trees read at most one draw past it per round, so
        # only its furthest trees can find it short; the first draws.
        for s, j in zip(sequence.tolist(), at.tolist()):
            if j == self.n_drawn[s]:
                self.drawn[s, j] = self.rngs[s].choice(self.d, size=self.k, replace=False)
                self.n_drawn[s] = j + 1
        return self.drawn[sequence, at]


def _partition(
    X: np.ndarray, nodes: list[np.ndarray], features: np.ndarray, thresholds: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each node's rows with ``x <= threshold`` on its feature, and the
    rest, both in the node's row order."""
    sizes = np.fromiter(map(len, nodes), dtype=np.int64, count=len(nodes))
    rows = np.concatenate(nodes)
    go_left = X[rows, np.repeat(features, sizes)] <= np.repeat(thresholds, sizes)
    n_left = np.add.reduceat(go_left, np.cumsum(sizes) - sizes, dtype=np.intp)
    lefts = rows[go_left]
    # The mask is inverted in place: numpy keeps freed blocks under 1 KiB
    # for reuse by size, so every temporary of a round's size stays resident.
    rights = rows[np.logical_not(go_left, out=go_left)]
    left_ends, right_ends = np.cumsum(n_left).tolist(), np.cumsum(sizes - n_left).tolist()
    return (
        [lefts[a:b] for a, b in zip([0] + left_ends[:-1], left_ends)],
        [rights[a:b] for a, b in zip([0] + right_ends[:-1], right_ends)],
    )


def _node_stats(
    nodes: list[np.ndarray], sizes: np.ndarray, y: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Value rows and impurities of ``nodes`` (a round's new nodes).

    Class counts come from one segmented ``np.bincount``; the proportions
    and the Gini sum take the same operations as one node's. Float means
    and variances depend on summation order, so they stay per node, as the
    reductions ``np.mean`` and ``np.var`` run.
    """
    if n_classes:
        codes = y[np.concatenate(nodes)]
        codes += np.repeat(np.arange(len(nodes)) * n_classes, sizes)
        counts = np.bincount(codes, minlength=len(nodes) * n_classes).reshape(-1, n_classes)
        m = sizes.astype(float)
        return counts / m[:, None], _gini(counts.T[1:], m, n_classes)
    value = np.empty((len(nodes), 1))
    impurity = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        # np.mean and np.var, written out: one pairwise sum over the node,
        # divided by its size, then the same over squared deviations.
        node_y = y[node]
        n = len(node)
        value[i, 0] = mean = np.add.reduce(node_y) / n
        deviation = node_y - mean
        impurity[i] = np.add.reduce(np.multiply(deviation, deviation, out=deviation)) / n
    return value, impurity
