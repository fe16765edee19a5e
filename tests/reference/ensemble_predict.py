"""The seed's prediction loops: one tree at a time, one level at a time.

Production routes every (tree, row) pair of a forest through one flat node
table (``repro.ml.tree._NodeTable``). These functions keep the per-tree
loops it replaced, unchanged in arithmetic, so
``tests/ml/test_ensemble_predict.py`` and
``benchmarks/test_serve_throughput.py`` can compare the two bit for bit:

- :func:`tree_apply` is the seed's ``_Tree.apply``, a per-tree descent
  that narrows to the still-active rows at every level;
- :func:`forest_predict_proba`, :func:`forest_predict` and
  :func:`regressor_predict` are the seed's forest methods on top of it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array

__all__ = ["forest_predict", "forest_predict_proba", "regressor_predict", "tree_apply"]

_LEAF = -1


def tree_apply(tree, X: np.ndarray) -> np.ndarray:
    """Return the leaf value row for every sample of one ``_Tree``."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        active = tree.feature[node] != _LEAF
        if not active.any():
            break
        idx = np.where(active)[0]
        cur = node[idx]
        go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def forest_predict_proba(forest, X: np.ndarray) -> np.ndarray:
    """``RandomForestClassifier.predict_proba``: tree rows summed in tree order."""
    X = check_array(X)
    n_classes = len(forest.classes_)
    proba = np.zeros((X.shape[0], n_classes), dtype=float)
    for tree in forest.estimators_:
        tree_proba = tree_apply(tree.tree_, X)
        # Bootstrap samples may miss rare classes; align columns by label.
        cols = np.searchsorted(forest.classes_, tree.classes_)
        proba[:, cols] += tree_proba
    proba /= len(forest.estimators_)
    return proba


def forest_predict(forest, X: np.ndarray) -> np.ndarray:
    """``RandomForestClassifier.predict``."""
    return forest.classes_[np.argmax(forest_predict_proba(forest, X), axis=1)]


def regressor_predict(forest, X: np.ndarray) -> np.ndarray:
    """``RandomForestRegressor.predict``: the mean of the stacked tree outputs."""
    X = check_array(X)
    preds = np.stack(
        [tree_apply(tree.tree_, X).ravel() for tree in forest.estimators_], axis=0
    )
    return preds.mean(axis=0)
