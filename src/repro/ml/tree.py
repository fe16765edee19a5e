"""CART decision trees (classifier and regressor), vectorized on numpy.

These trees are the workhorse of the downstream oracle: the paper's lineage
(GRFG, FastFT) evaluates generated feature sets with a random forest, which
is built on top of this module. The split search is an exact, sort-based scan
(the classic CART algorithm) delegated to a
:class:`~repro.ml.split_engine.SplitEngine`. Fits run on the presorted
engine, which sorts each feature once per fit and scans all candidate
features vectorized. ``split_engine`` takes an engine instance
only so that a forest can share one engine with all of its trees, and so
that tests can fit with the reference engine in ``tests/reference/``.

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
from repro.ml.split_engine import SplitEngine, resolve_engine

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

    def add_node(self, value: np.ndarray) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)

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
    """Shared CART builder; subclasses define impurity and leaf values."""

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

    # -- subclass hooks -----------------------------------------------------

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """(leaf value, impurity) — overridable to share intermediate work."""
        return self._leaf_value(y), self._node_impurity(y)

    # -- fitting ------------------------------------------------------------

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
        y = self._encode_target(y)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.seed)
        self._importance = np.zeros(self.n_features_, dtype=float)
        self._n_total = X.shape[0]
        self.tree_ = _Tree()
        engine = resolve_engine(self.split_engine)
        engine.begin_fit(
            X,
            y,
            criterion=self._criterion,
            n_classes=getattr(self, "n_classes_", 0),
            min_samples_leaf=self.min_samples_leaf,
        )
        self._engine = engine
        try:
            self._build(X, y, np.arange(X.shape[0]), depth=0)
        finally:
            engine.end_fit()
            del self._engine
        self.tree_.finalize()
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else np.zeros_like(self._importance)
        )
        return self

    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def _build(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node_y = y[idx]
        leaf_value, impurity = self._node_stats(node_y)
        node_id = self.tree_.add_node(leaf_value)

        n = len(idx)
        if (
            n < self.min_samples_split
            or n < 2 * self.min_samples_leaf
            or (self.max_depth is not None and depth >= self.max_depth)
            or impurity <= 1e-12
        ):
            return node_id

        k = self._resolve_max_features(self.n_features_)
        if k >= self.n_features_:
            candidates = np.arange(self.n_features_)
        else:
            candidates = self._rng.choice(self.n_features_, size=k, replace=False)

        best_gain, best_feature, best_threshold = self._engine.best_split(
            idx, candidates, node_y
        )

        if best_feature < 0:
            return node_id

        go_left = X[idx, best_feature] <= best_threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return node_id

        self._importance[best_feature] += best_gain * n / self._n_total
        left_id = self._build(X, y, left_idx, depth + 1)
        right_id = self._build(X, y, right_idx, depth + 1)
        self.tree_.feature[node_id] = best_feature
        self.tree_.threshold[node_id] = best_threshold
        self.tree_.left[node_id] = left_id
        self.tree_.right[node_id] = right_id
        return node_id


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """Gini-impurity CART classifier with probability leaves."""

    _criterion = "gini"

    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.n_classes_ = len(self.classes_)
        return codes.astype(np.int64)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        return counts / counts.sum()

    def _node_impurity(self, y: np.ndarray) -> float:
        p = np.bincount(y, minlength=self.n_classes_) / len(y)
        return float(1.0 - np.sum(p * p))

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        # One bincount serves both: counts/sum equals the leaf probability
        # vector, and the same proportions feed the Gini impurity.
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        p = counts / counts.sum()
        return p, float(1.0 - np.sum(p * p))

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

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([np.mean(y)])

    def _node_impurity(self, y: np.ndarray) -> float:
        return float(np.var(y))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise RuntimeError("Tree is not fitted")
        return self.tree_.apply(check_width(check_array(X), self.n_features_)).ravel()
