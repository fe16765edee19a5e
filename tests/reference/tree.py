"""The recursive CART builder and the per-tree forest loop, kept as test oracles.

Production grows every tree of a fit, and every fold's trees of an oracle
call, in one iterative lockstep (:mod:`repro.ml.tree`). These subclasses
fit the way the package did before that: a forest draws each tree's seed
and bootstrap, copies the bootstrap sample and fits the tree alone, and a
tree grows by recursion, asking its engine for one node's split at a
time. Without an injected engine they run on
:class:`~tests.reference.split_engine.PerNodePresortEngine`, so the
reference forests are the previous oracle exactly.

Cross-validation never grows these forests together with others: they
override ``fit``, and :func:`repro.ml.model_selection.cross_val_score`
calls a forest's own ``fit`` whenever its class does.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X_y
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.split_engine import SplitEngine
from repro.ml.tree import _LEAF, DecisionTreeClassifier, DecisionTreeRegressor, _Tree
from tests.reference.split_engine import PerNodePresortEngine

__all__ = [
    "ReferenceDecisionTreeClassifier",
    "ReferenceDecisionTreeRegressor",
    "ReferenceRandomForestClassifier",
    "ReferenceRandomForestRegressor",
]


def _engine(split_engine) -> SplitEngine:
    if isinstance(split_engine, SplitEngine):
        return split_engine
    return PerNodePresortEngine()


class _ListTree(_Tree):
    """A tree grown one node at a time into lists."""

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


class _RecursiveBuild:
    """The recursive builder; subclasses define the node statistics."""

    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = check_X_y(X, y)
        y = self._encode_target(y)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.seed)
        self._importance = np.zeros(self.n_features_, dtype=float)
        self._n_total = X.shape[0]
        self.tree_ = _ListTree()
        engine = _engine(self.split_engine)
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


class ReferenceDecisionTreeClassifier(_RecursiveBuild, DecisionTreeClassifier):
    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.n_classes_ = len(self.classes_)
        return codes.astype(np.int64)

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        # One bincount serves both: counts/sum equals the leaf probability
        # vector, and the same proportions feed the Gini impurity.
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        p = counts / counts.sum()
        return p, float(1.0 - np.sum(p * p))


class ReferenceDecisionTreeRegressor(_RecursiveBuild, DecisionTreeRegressor):
    def _encode_target(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        return np.array([np.mean(y)]), float(np.var(y))


class _PerTreeForest:
    """The per-tree forest loop around one shared engine."""

    _tree_class: type = None

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = check_X_y(X, y)
        self._nodes = None
        self._pre_fit(y)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.estimators_ = []
        importances = np.zeros(X.shape[1], dtype=float)
        # One engine instance serves every tree; the presort engine's
        # forest-level hooks let it derive per-sample orders from a single
        # presort of X. Other engines have no such hooks.
        engine = _engine(self.split_engine)
        hooks = isinstance(engine, PerNodePresortEngine)
        if hooks:
            engine.begin_forest(X, y)
        try:
            for _ in range(self.n_estimators):
                tree = self._tree_class(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    seed=int(rng.integers(0, 2**31 - 1)),
                    split_engine=engine,
                )
                if self.bootstrap:
                    idx = rng.integers(0, n, size=n)
                    if hooks:
                        engine.set_bootstrap(idx)
                    tree.fit(X[idx], y[idx])
                else:
                    if hooks:
                        engine.set_bootstrap(None)
                    tree.fit(X, y)
                self.estimators_.append(tree)
                importances += tree.feature_importances_
        finally:
            if hooks:
                engine.end_forest()
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else np.zeros_like(importances)
        )
        return self


class ReferenceRandomForestClassifier(_PerTreeForest, RandomForestClassifier):
    _tree_class = ReferenceDecisionTreeClassifier


class ReferenceRandomForestRegressor(_PerTreeForest, RandomForestRegressor):
    _tree_class = ReferenceDecisionTreeRegressor
