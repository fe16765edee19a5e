"""Tests for decision trees, random forests and gradient boosting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class TestDecisionTreeClassifier:
    def test_fits_xor_perfectly(self):
        """Axis-aligned XOR needs depth 2 — a linear model cannot do this."""
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        assert tree.score(X, y) > 0.98

    def test_max_depth_one_is_a_stump(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        # A stump has exactly one internal node: 3 nodes total.
        assert len(tree.tree_.feature) == 3

    def test_min_samples_leaf_respected(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(min_samples_leaf=30, seed=0).fit(X, y)
        leaf_mask = tree.tree_.feature == -1
        assert leaf_mask.sum() >= 1  # structural sanity
        assert np.isfinite(tree.predict_proba(X)).all()

    def test_predict_proba_rows_sum_to_one(self, multiclass_data):
        X, y = multiclass_data
        tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_labels(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array(["no", "yes", "no", "yes"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= {"no", "yes"}

    def test_feature_importances_sum_to_one(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert (tree.feature_importances_ >= 0).all()

    def test_important_feature_identified(self, rng):
        X = rng.normal(size=(300, 4))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert len(tree.tree_.feature) == 1  # root only

    def test_nan_input_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.array([[np.nan], [1.0]]), np.array([0, 1]))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.ones((2, 2)))


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(float) * 10
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.score(X, y) > 0.99

    def test_deep_tree_overfits_smooth_curve(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(300, 1))
        y = np.sin(X.ravel() * 2)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=2).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_single_leaf_predicts_mean(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([1.0, 2, 3, 4, 5, 6, 7, 8])
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())


class TestRandomForestClassifier:
    def test_beats_single_stump(self, multiclass_data):
        X, y = multiclass_data
        forest = RandomForestClassifier(n_estimators=15, max_depth=6, seed=0).fit(X, y)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert forest.score(X, y) > stump.score(X, y)

    def test_proba_shape_and_rows(self, multiclass_data):
        X, y = multiclass_data
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_rare_class_column_alignment(self, rng):
        """Bootstraps may miss a rare class; proba columns must still align."""
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 55 + [2] * 4 + [7])
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (60, 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self, binary_data):
        X, y = binary_data
        a = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        assert (a == b).all()

    def test_importances_normalized(self, binary_data):
        X, y = binary_data
        forest = RandomForestClassifier(n_estimators=8, seed=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestPredictInputWidth:
    """Predict used to read the leading columns of a wider matrix and to
    raise a bare IndexError (or succeed) on a narrower one."""

    @pytest.mark.parametrize(
        "model",
        [
            RandomForestClassifier(n_estimators=4, seed=0),
            RandomForestRegressor(n_estimators=4, seed=0),
            DecisionTreeClassifier(max_depth=4),
            DecisionTreeRegressor(max_depth=4),
            GradientBoostingClassifier(n_estimators=3),
            GradientBoostingRegressor(n_estimators=3),
        ],
        ids=lambda m: type(m).__name__,
    )
    @pytest.mark.parametrize("width", [10, 3, 1])
    def test_wrong_width_names_both_counts(self, model, width, binary_data):
        X, y = binary_data
        model.fit(X, y)
        for method in ("predict", "predict_proba"):
            if hasattr(model, method):
                with pytest.raises(ValueError, match=rf"X has {width} columns.* fitted on 5"):
                    getattr(model, method)(np.zeros((4, width)))
                getattr(model, method)(X[:4])  # the fitted width still predicts


class TestRandomForestRegressor:
    def test_fits_interaction(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(n_estimators=15, max_depth=8, seed=0).fit(X, y)
        assert forest.score(X, y) > 0.6

    def test_prediction_within_target_range(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
        pred = forest.predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestGradientBoosting:
    def test_regressor_improves_with_stages(self, regression_data):
        X, y = regression_data
        small = GradientBoostingRegressor(n_estimators=2, seed=0).fit(X, y)
        large = GradientBoostingRegressor(n_estimators=40, seed=0).fit(X, y)
        assert large.score(X, y) > small.score(X, y)

    def test_binary_classifier(self, binary_data):
        X, y = binary_data
        model = GradientBoostingClassifier(n_estimators=25, seed=0).fit(X, y)
        assert model.score(X, y) > 0.85
        proba = model.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_multiclass_classifier(self, multiclass_data):
        X, y = multiclass_data
        model = GradientBoostingClassifier(n_estimators=15, seed=0).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert model.score(X, y) > 0.6

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(np.ones((5, 2)), np.zeros(5))

    def test_importances_available(self, binary_data):
        X, y = binary_data
        model = GradientBoostingClassifier(n_estimators=5, seed=0).fit(X, y)
        assert model.feature_importances_.shape == (X.shape[1],)

    def test_subsample_regressor(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=10, subsample=0.5, seed=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()
