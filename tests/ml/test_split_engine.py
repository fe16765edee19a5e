"""Engine equivalence and fold-parallel CV determinism.

The presorted split engine's whole contract is *bit-identity*: same tree
arrays, same thresholds, same importances, same predictions as the seed's
per-node-argsort engine (``tests/reference/split_engine.py``), across
tasks, shapes, tie structures and hyper-parameters. These property-style
tests sweep randomized datasets (with duplicated, constant and
heavily-tied columns), fit once with the reference injected and once with
the default engine, and assert exact array equality, plus determinism of
the fold-parallel cross-validation path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.evaluation import DownstreamEvaluator, default_model_for_task
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import f1_score
from repro.ml.model_selection import cross_val_score
from repro.ml.split_engine import PresortEngine, SplitEngine, resolve_engine
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.reference.split_engine import NaiveEngine

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _assert_identical_trees(a, b, context=""):
    for attr in TREE_ARRAYS:
        assert np.array_equal(getattr(a.tree_, attr), getattr(b.tree_, attr)), (
            f"tree_.{attr} differs {context}"
        )
    assert np.array_equal(a.feature_importances_, b.feature_importances_), context


def _tied_matrix(rng, n, d):
    """Random matrix with the tie structures FastFT feature spaces produce."""
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0])  # heavy cross-row ties
    if d > 2:
        X[:, 1] = X[:, 2]  # duplicated column
    X[:, -1] = 3.25  # constant column
    return X


class TestEngineEquivalenceProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_classifier_trees_identical(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        d = int(rng.integers(3, 12))
        n_classes = int(rng.integers(2, 5))
        X = _tied_matrix(rng, n, d)
        score = X @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
        edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
        y = np.searchsorted(edges, score)
        for max_features in (None, "sqrt", 2):
            a = DecisionTreeClassifier(
                max_depth=6, max_features=max_features, seed=7, split_engine=NaiveEngine()
            ).fit(X, y)
            b = DecisionTreeClassifier(max_depth=6, max_features=max_features, seed=7).fit(X, y)
            _assert_identical_trees(a, b, f"(seed={seed}, max_features={max_features})")
            assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    @pytest.mark.parametrize("seed", range(5))
    def test_regressor_trees_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(30, 300))
        d = int(rng.integers(3, 10))
        X = _tied_matrix(rng, n, d)
        y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
        for msl in (1, 4):
            a = DecisionTreeRegressor(
                max_depth=7, min_samples_leaf=msl, seed=1, split_engine=NaiveEngine()
            ).fit(X, y)
            b = DecisionTreeRegressor(max_depth=7, min_samples_leaf=msl, seed=1).fit(X, y)
            _assert_identical_trees(a, b, f"(seed={seed}, min_samples_leaf={msl})")
            assert np.array_equal(a.predict(X), b.predict(X))

    @pytest.mark.parametrize("seed", range(3))
    def test_classifier_forest_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        X = _tied_matrix(rng, 150, 8)
        y = (X @ rng.normal(size=8) > 0).astype(int)
        a = RandomForestClassifier(
            n_estimators=6, max_depth=6, seed=seed, split_engine=NaiveEngine()
        ).fit(X, y)
        b = RandomForestClassifier(n_estimators=6, max_depth=6, seed=seed).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        assert np.array_equal(a.feature_importances_, b.feature_importances_)

    def test_detection_style_imbalanced_forest_identical(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(250, 6))
        y = (rng.random(250) < 0.07).astype(int)
        X[y == 1] += 2.0
        a = RandomForestClassifier(
            n_estimators=5, max_depth=6, seed=0, split_engine=NaiveEngine()
        ).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, max_depth=6, seed=0).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_regression_forest_identical(self):
        rng = np.random.default_rng(11)
        X = _tied_matrix(rng, 200, 7)
        y = X @ rng.normal(size=7)
        a = RandomForestRegressor(
            n_estimators=5, max_depth=7, seed=2, split_engine=NaiveEngine()
        ).fit(X, y)
        b = RandomForestRegressor(n_estimators=5, max_depth=7, seed=2).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
        assert np.array_equal(a.feature_importances_, b.feature_importances_)

    def test_no_bootstrap_forest_identical(self):
        rng = np.random.default_rng(13)
        X = _tied_matrix(rng, 120, 6)
        y = (X[:, 0] > 0).astype(int)
        a = RandomForestClassifier(
            n_estimators=3, bootstrap=False, seed=3, split_engine=NaiveEngine()
        ).fit(X, y)
        b = RandomForestClassifier(n_estimators=3, bootstrap=False, seed=3).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_evaluator_scores_identical_across_engines(self):
        rng = np.random.default_rng(17)
        X = _tied_matrix(rng, 200, 10)
        y = (X @ rng.normal(size=10) > 0).astype(int)
        reference = RandomForestClassifier(
            n_estimators=10, max_depth=8, seed=0, split_engine=NaiveEngine()
        )
        naive = DownstreamEvaluator("classification", model=reference, n_splits=3, seed=0)
        presort = DownstreamEvaluator("classification", n_splits=3, seed=0)
        assert naive.evaluate(X, y) == presort.evaluate(X, y)


class TestEngineResolution:
    def test_resolve_names_instances_classes(self):
        assert isinstance(resolve_engine(None), PresortEngine)
        inst = NaiveEngine()
        assert resolve_engine(inst) is inst
        # Estimators pickled by older builds name their engine; both names
        # fit the same trees, so both land on the default.
        assert isinstance(resolve_engine("naive"), PresortEngine)
        assert isinstance(resolve_engine("presort"), PresortEngine)
        # Anything else, an engine class included, is not an engine.
        with pytest.raises(TypeError):
            resolve_engine(PresortEngine)
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_trees_forests_and_boosting_default_to_presort(self, monkeypatch):
        from repro.ml.boosting import GradientBoostingClassifier

        calls = []
        original = PresortEngine.begin_fit

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PresortEngine, "begin_fit", counting)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        DecisionTreeRegressor(max_depth=3, seed=0).fit(X, X[:, 1])
        RandomForestClassifier(n_estimators=3, max_depth=3, seed=0).fit(X, y)
        GradientBoostingClassifier(n_estimators=2, max_depth=2, seed=0).fit(X, y)
        # A forest's trees grow together from one begin_fit; boosting fits
        # its trees one after another.
        assert len(calls) == 1 + 1 + 1 + 2

    def test_engine_reusable_across_sequential_fits(self):
        rng = np.random.default_rng(3)
        engine = PresortEngine()
        X1 = rng.normal(size=(80, 4))
        X2 = rng.normal(size=(50, 6))
        y1 = (X1[:, 0] > 0).astype(int)
        y2 = X2 @ rng.normal(size=6)
        a = DecisionTreeClassifier(max_depth=4, seed=0, split_engine=engine).fit(X1, y1)
        b = DecisionTreeRegressor(max_depth=4, seed=0, split_engine=engine).fit(X2, y2)
        ref_a = DecisionTreeClassifier(max_depth=4, seed=0, split_engine=NaiveEngine()).fit(X1, y1)
        ref_b = DecisionTreeRegressor(max_depth=4, seed=0, split_engine=NaiveEngine()).fit(X2, y2)
        _assert_identical_trees(a, ref_a)
        _assert_identical_trees(b, ref_b)

    def test_fitted_estimator_pickles_lean(self):
        import pickle

        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 5))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=3, seed=0).fit(X, y)
        blob = pickle.dumps(forest)
        # The engine must not drag training data or workspace buffers along.
        assert len(blob) < 200_000
        clone_forest = pickle.loads(blob)
        assert np.array_equal(clone_forest.predict(X), forest.predict(X))

    def test_pre_engine_pickles_fit_with_presort(self):
        """Estimators from before the engine layer lack the attribute, and
        later ones name their engine with a string; both fit on the
        default engine, bit-identical to the reference."""
        X = np.random.default_rng(0).normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        expected = DecisionTreeClassifier(max_depth=3, seed=0, split_engine=NaiveEngine())
        expected.fit(X, y)
        tree = DecisionTreeClassifier(max_depth=3, seed=0)
        del tree.split_engine  # simulate an old unpickled instance
        assert tree.split_engine is None  # the class-level backstop
        _assert_identical_trees(tree.fit(X, y), expected)
        for name in ("naive", "presort"):
            legacy = RandomForestClassifier(n_estimators=2, max_depth=3, seed=0)
            legacy.split_engine = name
            reference = RandomForestClassifier(
                n_estimators=2, max_depth=3, seed=0, split_engine=NaiveEngine()
            )
            assert np.array_equal(
                legacy.fit(X, y).predict_proba(X), reference.fit(X, y).predict_proba(X)
            )


class TestFoldTimes:
    def test_return_fold_times(self, binary_data):
        X, y = binary_data
        est = RandomForestClassifier(n_estimators=2, max_depth=3, seed=0)
        scores, times = cross_val_score(
            est, X, y, scorer=f1_score, n_splits=3, seed=0,
            stratified=True, return_fold_times=True,
        )
        assert len(times) == 3
        assert all(t > 0 for t in times)
        plain = cross_val_score(est, X, y, scorer=f1_score, n_splits=3, seed=0, stratified=True)
        assert np.array_equal(scores, plain)


class TestEngineInterface:
    def test_begin_fit_rejects_unknown_criterion(self):
        engine = NaiveEngine()
        with pytest.raises(ValueError, match="criterion"):
            engine.begin_fit(np.zeros((4, 2)), np.zeros(4), "entropy", 0, 1)

    def test_base_best_split_is_abstract(self):
        engine = SplitEngine()
        engine.begin_fit(np.zeros((4, 2)), np.zeros(4), "gini", 2, 1)
        with pytest.raises(NotImplementedError):
            engine.best_split(np.arange(4), np.arange(2), np.zeros(4))

    def test_default_model_template_holds_no_engine(self):
        """Templates carry no engine instance, so their pickled bytes (and
        the CachedEvaluator fingerprint built from them) stay the same
        after a fit of a clone and in every process."""
        import pickle

        from repro.ml.base import clone

        for task in ("classification", "regression"):
            model = default_model_for_task(task)
            assert model.split_engine is None
            before = pickle.dumps(model)
            X = np.random.default_rng(1).normal(size=(40, 3))
            clone(model).fit(X, (X[:, 0] > 0).astype(int))
            assert pickle.dumps(model) == before
