"""Random forests (bagged CART trees with feature subsampling).

The random-forest classifier is the paper's default downstream model for
classification and detection tasks; the regressor serves regression tasks.
``feature_importances_`` (mean impurity decrease) powers Table IV and the
importance-based pruning inside the FastFT engine.

A forest draws its trees' seeds and bootstraps from its own seed and then
grows all its trees together (:func:`repro.ml.tree.fit_trees`), each
reading its bootstrap rows of ``X`` through their indices. :func:`fit_forests`
does the same for several clones at once, each on its own rows: the
serial cross-validation path passes one clone per fold, so an oracle call
grows every fold's trees in one lockstep from one presort of ``X``. Every
forest comes out as a fit of its own rows alone would make it.

Prediction walks all trees at once. On first predict after a fit, the
forest stacks its trees into one node table
(:class:`repro.ml.tree._NodeTable`) and caches it with every leaf's output
row: class probabilities aligned to the forest's ``classes_`` (zero for a
class a tree's bootstrap missed), or the regression value. One descent
then routes every (tree, row) pair, in row chunks that bound the
(trees × rows × outputs) working set. The results are bit-identical to
predicting tree by tree: the classifier adds the trees' probability rows
in tree order and then divides by the tree count (a pairwise ``np.sum``
over the tree axis would change the last bits from 8 trees up), and the
regressor fills the same C-contiguous (trees, rows) matrix that stacking
per-tree predictions gave and takes the same ``mean(axis=0)``.
"""

from __future__ import annotations

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
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _CachesNodes,
    _NodeTable,
    fit_trees,
)

__all__ = ["RandomForestClassifier", "RandomForestRegressor", "fit_forests", "grows_together"]

# Predictions descend at most this many (tree, row, output) cells at a time.
_CHUNK_CELLS = 1 << 16


def _row_chunks(n_rows: int, cells_per_row: int):
    step = max(1, _CHUNK_CELLS // cells_per_row)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


class _BaseForest(_CachesNodes, BaseEstimator):
    # Backstop for forests pickled before the split-engine layer existed.
    split_engine: "SplitEngine | None" = None

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int | None = 0,
        split_engine: "SplitEngine | None" = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.split_engine = split_engine
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForest":
        X, y = check_X_y(X, y)
        fit_forests([self], X, y, [None])
        return self

    def _pre_fit(self, y: np.ndarray) -> None:
        pass

    def _leaf_values(self, table: _NodeTable) -> np.ndarray:
        raise NotImplementedError

    def _stacked(self, X: np.ndarray) -> tuple[np.ndarray, _NodeTable, np.ndarray]:
        """Validated ``X`` plus the node table of all trees and its leaf
        values, cached in ``_nodes`` until the next fit."""
        if not self.estimators_:
            raise RuntimeError("Forest is not fitted")
        X = check_width(check_array(X), self.estimators_[0].n_features_)
        if self._nodes is None:
            table = _NodeTable([tree.tree_ for tree in self.estimators_])
            self._nodes = (table, self._leaf_values(table))
        return (X, *self._nodes)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Majority-probability-vote forest of Gini CART trees."""

    def _pre_fit(self, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
            split_engine=self.split_engine,
        )

    def _leaf_values(self, table: _NodeTable) -> np.ndarray:
        # Leaf rows aligned to the forest's classes: a class missing from a
        # tree's bootstrap gets a zero column.
        values = np.zeros((len(table.feature), len(self.classes_)))
        for tree, root in zip(self.estimators_, table.roots):
            cols = np.searchsorted(self.classes_, tree.classes_)
            values[root : root + len(tree.tree_.value), cols] = tree.tree_.value
        return values

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, table, values = self._stacked(X)
        n_trees = len(self.estimators_)
        proba = np.empty((X.shape[0], values.shape[1]))
        for rows in _row_chunks(X.shape[0], n_trees * values.shape[1]):
            # A running sum adds the trees' rows in tree order, as the
            # per-tree loop did; np.sum's order over the tree axis depends
            # on the memory layout (pairwise where that axis is contiguous).
            proba[rows] = np.cumsum(values[table.descend(X[rows])], axis=0)[-1]
        proba /= n_trees
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Mean-aggregated forest of variance-reduction CART trees."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
            split_engine=self.split_engine,
        )

    def _leaf_values(self, table: _NodeTable) -> np.ndarray:
        return np.concatenate([tree.tree_.value[:, 0] for tree in self.estimators_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        X, table, values = self._stacked(X)
        # The same C-contiguous (trees, rows) matrix as stacking the trees'
        # predictions, so the same mean over it sums in the same order.
        preds = np.empty((len(self.estimators_), X.shape[0]))
        for rows in _row_chunks(X.shape[0], len(self.estimators_)):
            preds[:, rows] = values[table.descend(X[rows])]
        return preds.mean(axis=0)


def fit_forests(
    forests: "list[_BaseForest]", X: np.ndarray, y: np.ndarray, samples: list
) -> None:
    """Fit ``forests[i]`` on rows ``samples[i]`` of a checked ``(X, y)``
    (``None``: all rows), growing all their trees together.

    The forests are clones of one template. Each draws its trees' seeds and
    bootstraps from its own seed, as a lone fit does, and every tree then
    reads its rows through that sample (no copy of ``X`` per tree), so
    trees, importances and predictions equal a fit of each forest on
    ``X[samples[i]]``. Cross-validation passes one clone per fold: the
    oracle's folds grow in one lockstep from one presort of ``X``.
    """
    n = X.shape[0]
    trees, tree_rows = [], []
    for forest, sample in zip(forests, samples):
        # int32 row indices (as the builder's): a bootstrap's draws are a
        # tree's largest state while all trees of a call grow.
        rows = np.asarray(np.arange(n) if sample is None else sample, dtype=np.int32)
        forest._nodes = None
        forest._pre_fit(y[rows])
        rng = np.random.default_rng(forest.seed)
        forest.estimators_ = []
        for _ in range(forest.n_estimators):
            tree = forest._make_tree(int(rng.integers(0, 2**31 - 1)))
            if forest.bootstrap:
                tree_rows.append(rows[rng.integers(0, len(rows), size=len(rows))])
            else:
                tree_rows.append(rows)
            forest.estimators_.append(tree)
            trees.append(tree)
    fit_trees(trees, X, y, tree_rows, resolve_engine(forests[0].split_engine))
    for forest in forests:
        importances = np.zeros(X.shape[1], dtype=float)
        for tree in forest.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        forest.feature_importances_ = (
            importances / total if total > 0 else np.zeros_like(importances)
        )


def grows_together(estimator) -> bool:
    """Whether cross-validation may fit clones of ``estimator`` with
    :func:`fit_forests`: a forest whose class keeps the stock ``fit``."""
    return isinstance(estimator, _BaseForest) and type(estimator).fit is _BaseForest.fit
