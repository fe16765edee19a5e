"""Stacked-tree inference against the seed's per-tree loops.

Forests, single trees and gradient boosting predict through one descent
over a flat node table (``repro.ml.tree._NodeTable``). The properties
below compare every predict path with ``tests.reference.ensemble_predict``
bit for bit (values, dtype and shape), at 0 rows, 1 row and more rows
than one chunk, including forests whose bootstraps miss a class and
inputs that sit exactly on a split threshold. The table is a cache: the
pickle tests check that it never reaches a pickle.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need the hypothesis dev dependency")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.ml import forest as forest_module  # noqa: E402
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor  # noqa: E402
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor  # noqa: E402
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _Tree  # noqa: E402
from tests.reference.ensemble_predict import (  # noqa: E402
    forest_predict,
    forest_predict_proba,
    regressor_predict,
    tree_apply,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

CHUNK_ROWS = 3  # rows per chunk while the properties run
ROW_COUNTS = (0, 1, 2 * CHUNK_ROWS + 1)

seeds = st.integers(0, 2**16)
n_features = st.integers(1, 5)
max_depths = st.sampled_from([1, 3, 6, None])
max_features = st.sampled_from(["sqrt", None, 2])


def _data(seed: int, n_rows: int, width: int) -> tuple[np.random.Generator, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng, rng.normal(size=(n_rows, width)).round(1)


def _eval_rows(rng, X_train, trees, n_rows: int) -> np.ndarray:
    """Training rows, fresh rows and rows that sit on split thresholds."""
    X = np.concatenate([X_train, rng.normal(size=X_train.shape)])
    X = X[rng.integers(0, len(X), size=n_rows)]
    for tree in trees:
        inner = np.flatnonzero(tree.feature >= 0)
        if n_rows and inner.size:
            at = inner[rng.integers(0, inner.size, size=n_rows)]
            X[np.arange(n_rows), tree.feature[at]] = tree.threshold[at]
            break
    return X


def _chunked(n_outputs: int, n_trees: int):
    """Patch the forest chunk budget down to CHUNK_ROWS rows."""
    return mock.patch.object(forest_module, "_CHUNK_CELLS", CHUNK_ROWS * n_outputs * n_trees)


def _same(actual, expected) -> None:
    np.testing.assert_array_equal(actual, expected, strict=True)


@SETTINGS
@given(
    seed=seeds,
    width=n_features,
    n_trees=st.integers(2, 12),
    depth=max_depths,
    mf=max_features,
    bootstrap=st.booleans(),
)
def test_classifier_forest_matches_per_tree_loop(seed, width, n_trees, depth, mf, bootstrap):
    rng, X = _data(seed, 40, width)
    y = rng.choice([0, 2, 3], size=40)
    y[0] = 1  # a rare class between the others, missed by some bootstraps
    forest = RandomForestClassifier(
        n_estimators=n_trees, max_depth=depth, max_features=mf, bootstrap=bootstrap, seed=seed
    ).fit(X, y)
    if bootstrap:
        assume(any(len(t.classes_) < len(forest.classes_) for t in forest.estimators_))
    with _chunked(len(forest.classes_), n_trees):
        for n_rows in ROW_COUNTS:
            Xe = _eval_rows(rng, X, [t.tree_ for t in forest.estimators_], n_rows)
            _same(forest.predict_proba(Xe), forest_predict_proba(forest, Xe))
            _same(forest.predict(Xe), forest_predict(forest, Xe))


@SETTINGS
@given(seed=seeds, width=n_features, n_trees=st.integers(1, 12), depth=max_depths, mf=max_features)
def test_regressor_forest_matches_per_tree_loop(seed, width, n_trees, depth, mf):
    rng, X = _data(seed, 40, width)
    y = X[:, 0] * rng.normal() + rng.normal(size=40)
    forest = RandomForestRegressor(
        n_estimators=n_trees, max_depth=depth, max_features=mf, seed=seed
    ).fit(X, y)
    with _chunked(1, n_trees):
        for n_rows in ROW_COUNTS:
            Xe = _eval_rows(rng, X, [t.tree_ for t in forest.estimators_], n_rows)
            _same(forest.predict(Xe), regressor_predict(forest, Xe))


@SETTINGS
@given(seed=seeds, width=n_features, depth=max_depths, mf=max_features)
def test_single_trees_match_per_tree_descent(seed, width, depth, mf):
    rng, X = _data(seed, 40, width)
    labels = rng.integers(0, 3, size=40)
    clf = DecisionTreeClassifier(max_depth=depth, max_features=mf, seed=seed).fit(X, labels)
    reg = DecisionTreeRegressor(max_depth=depth, max_features=mf, seed=seed).fit(X, X.sum(axis=1))
    for n_rows in ROW_COUNTS:
        Xe = _eval_rows(rng, X, [clf.tree_, reg.tree_], n_rows)
        proba = tree_apply(clf.tree_, Xe)
        _same(clf.predict_proba(Xe), proba)
        _same(clf.predict(Xe), clf.classes_[np.argmax(proba, axis=1)])
        _same(reg.predict(Xe), tree_apply(reg.tree_, Xe).ravel())


@SETTINGS
@given(seed=seeds, width=n_features, n_classes=st.sampled_from([2, 3]))
def test_boosting_paths_match_per_tree_descent(seed, width, n_classes):
    rng, X = _data(seed, 40, width)
    labels = np.arange(40) % n_classes
    rng.shuffle(labels)
    models = [
        GradientBoostingRegressor(n_estimators=5, seed=seed).fit(X, X[:, 0] + rng.normal(size=40)),
        GradientBoostingClassifier(n_estimators=5, seed=seed).fit(X, labels),
    ]
    trees = [t.tree_ for t in models[0].estimators_]
    for n_rows in ROW_COUNTS:
        Xe = _eval_rows(rng, X, trees, n_rows)
        got = [models[0].predict(Xe), models[1].predict_proba(Xe), models[1].predict(Xe)]
        # The boosting loops are unchanged; the reference runs them on the
        # seed's per-tree descent.
        with mock.patch.object(_Tree, "apply", tree_apply):
            want = [models[0].predict(Xe), models[1].predict_proba(Xe), models[1].predict(Xe)]
        for actual, expected in zip(got, want):
            _same(actual, expected)


def test_fifty_tree_forest_sums_in_tree_order(rng):
    # From 8 trees up, a pairwise sum over the tree axis changes the last bits.
    X = rng.normal(size=(300, 6))
    y = (X[:, 0] * X[:, 1] > 0).astype(int) + (X[:, 2] > 1)
    clf = RandomForestClassifier(n_estimators=50, seed=1).fit(X, y)
    reg = RandomForestRegressor(n_estimators=50, seed=1).fit(X, X[:, 0] * X[:, 3])
    Xe = rng.normal(size=(1000, 6))
    _same(clf.predict_proba(Xe), forest_predict_proba(clf, Xe))
    _same(reg.predict(Xe), regressor_predict(reg, Xe))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_still_raises(bad, binary_data):
    X, y = binary_data
    models = [
        RandomForestClassifier(n_estimators=3, seed=0).fit(X, y),
        RandomForestRegressor(n_estimators=3, seed=0).fit(X, y),
        DecisionTreeClassifier(max_depth=3).fit(X, y),
        GradientBoostingClassifier(n_estimators=2).fit(X, y),
    ]
    Xe = X[:3].copy()
    Xe[1, 2] = bad
    for model in models:
        with pytest.raises(ValueError, match="NaN or infinity"):
            model.predict(Xe)


class TestPickleStability:
    @pytest.mark.parametrize("cls", [RandomForestClassifier, RandomForestRegressor])
    def test_predict_leaves_pickle_bytes_unchanged(self, cls, binary_data):
        X, y = binary_data
        forest = cls(n_estimators=6, seed=0).fit(X, y)
        before = pickle.dumps(forest)
        forest.predict(X)
        assert forest._nodes is not None  # the table is cached ...
        assert pickle.dumps(forest) == before  # ... and never pickled

    def test_table_free_pickle_loads_and_predicts(self, multiclass_data):
        X, y = multiclass_data
        forest = RandomForestClassifier(n_estimators=9, seed=2).fit(X, y)
        # A forest that never predicted pickles exactly as older builds did:
        # the trees and their metadata, with no table.
        blob = pickle.dumps(forest)
        loaded = pickle.loads(blob)
        assert "_nodes" not in vars(loaded)
        _same(loaded.predict_proba(X), forest_predict_proba(forest, X))
        _same(loaded.predict(X), forest.predict(X))

    def test_refit_rebuilds_the_table(self, binary_data, multiclass_data):
        forest = RandomForestClassifier(n_estimators=4, seed=0)
        forest.fit(*binary_data).predict(binary_data[0])
        X, y = multiclass_data
        forest.fit(X, y)
        _same(forest.predict_proba(X), forest_predict_proba(forest, X))
