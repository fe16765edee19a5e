"""Unit + property tests for repro.ml.metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    accuracy_score,
    confusion_counts,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    one_minus_mae,
    one_minus_mse,
    one_minus_rae,
    precision_score,
    recall_score,
    relative_absolute_error,
    roc_auc_score,
    roc_curve,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_none_correct(self):
        assert accuracy_score([1, 1, 1], [0, 0, 0]) == 0.0

    def test_half(self):
        assert accuracy_score([1, 0], [1, 1]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])


class TestConfusionCounts:
    def test_binary_counts(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 0, 1, 1])
        tp, fp, fn, support = confusion_counts(y_true, y_pred)
        # labels sorted: [0, 1]
        assert tp.tolist() == [1, 2]
        assert fp.tolist() == [1, 1]
        assert fn.tolist() == [1, 1]
        assert support.tolist() == [2, 3]


class TestPrecisionRecallF1:
    def test_binary_precision(self):
        # positives: predicted {0,3,4}; true positive {0,4}.
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        assert precision_score(y_true, y_pred, average="binary") == pytest.approx(2 / 3)

    def test_binary_recall(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        assert recall_score(y_true, y_pred, average="binary") == pytest.approx(2 / 3)

    def test_binary_f1_harmonic(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        p = precision_score(y_true, y_pred, average="binary")
        r = recall_score(y_true, y_pred, average="binary")
        assert f1_score(y_true, y_pred, average="binary") == pytest.approx(2 * p * r / (p + r))

    @pytest.mark.parametrize("score", [precision_score, recall_score, f1_score])
    def test_binary_scores_class_1_of_one_class_labels(self, score):
        # All 0: the positive class 1 occurs nowhere, so there is nothing
        # to score; all 1: every positive is found.
        assert score([0, 0, 0], [0, 0, 0], average="binary") == 0.0
        assert score([1, 1, 1], [1, 1, 1], average="binary") == 1.0
        # Other labels keep the largest one as the positive class.
        assert score([2, 2, 5], [2, 2, 5], average="binary") == 1.0

    def test_binary_average_on_multiclass_raises(self):
        with pytest.raises(ValueError):
            f1_score([0, 1, 2], [0, 1, 2], average="binary")

    def test_perfect_weighted_f1(self):
        y = [0, 1, 2, 2, 1, 0]
        assert f1_score(y, y) == pytest.approx(1.0)

    def test_micro_equals_accuracy_single_label_task(self):
        y_true = np.array([0, 1, 2, 1, 0, 2, 2])
        y_pred = np.array([0, 2, 2, 1, 0, 1, 2])
        assert f1_score(y_true, y_pred, average="micro") == pytest.approx(
            accuracy_score(y_true, y_pred)
        )

    def test_macro_averages_per_class(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 0, 0, 0]
        # class 0: p=0.5, r=1, f1=2/3; class 1: 0.
        assert f1_score(y_true, y_pred, average="macro") == pytest.approx(1 / 3)

    def test_unknown_average_raises(self):
        with pytest.raises(ValueError):
            precision_score([0, 1], [0, 1], average="bogus")

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=60),
        st.lists(st.integers(0, 2), min_size=2, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_f1_bounded(self, a, b):
        n = min(len(a), len(b))
        score = f1_score(a[:n], b[:n])
        assert 0.0 <= score <= 1.0


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_inverted_scores(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        s = rng.random(2000)
        assert roc_auc_score(y, s) == pytest.approx(0.5, abs=0.05)

    def test_ties_handled(self):
        assert roc_auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score([1, 1, 1], [0.1, 0.2, 0.3])

    def test_curve_endpoints(self):
        fpr, tpr = roc_curve([0, 1], [0.3, 0.7])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == pytest.approx(1.0) and tpr[-1] == pytest.approx(1.0)

    @given(st.integers(10, 200))
    @settings(max_examples=20, deadline=None)
    def test_complement_symmetry(self, n):
        rng = np.random.default_rng(n)
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        s = rng.normal(size=n)
        assert roc_auc_score(y, s) == pytest.approx(1.0 - roc_auc_score(y, -s), abs=1e-9)


class TestRegressionMetrics:
    def test_mae(self):
        assert mean_absolute_error([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_mse(self):
        assert mean_squared_error([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_rae_perfect(self):
        assert relative_absolute_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_rae_mean_predictor_is_one(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, y.mean())
        assert relative_absolute_error(y, pred) == pytest.approx(1.0)

    def test_one_minus_forms(self):
        y, p = np.array([1.0, 2.0]), np.array([1.0, 2.0])
        assert one_minus_rae(y, p) == 1.0
        assert one_minus_mae(y, p) == 1.0
        assert one_minus_mse(y, p) == 1.0

    def test_constant_target_rae(self):
        assert relative_absolute_error([2.0, 2.0], [2.0, 2.0]) == 0.0
        assert relative_absolute_error([2.0, 2.0], [3.0, 3.0]) == float("inf")

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_one_minus_rae_le_one(self, values):
        y = np.asarray(values)
        pred = y + 1.0
        assert one_minus_rae(y, pred) <= 1.0


class TestLogLoss:
    def test_confident_correct_is_small(self):
        proba = np.array([[0.99, 0.01], [0.01, 0.99]])
        assert log_loss([0, 1], proba) < 0.05

    def test_confident_wrong_is_large(self):
        proba = np.array([[0.01, 0.99], [0.99, 0.01]])
        assert log_loss([0, 1], proba) > 2.0

    def test_1d_proba_treated_as_positive_class(self):
        assert log_loss([1, 0], np.array([0.9, 0.1])) < 0.2

    def test_rejects_proba_columns_not_matching_y_true_classes(self):
        """Without labels, column i can only be y_true's i-th class: a
        single-class y_true cannot place a 1-D proba, and [0, 2] cannot
        place three columns (the middle one would be taken for class 2)."""
        with pytest.raises(ValueError, match="2 columns but y_true holds 1 class"):
            log_loss([1, 1], [0.9, 0.9])
        confident = np.array([[0.98, 0.01, 0.01], [0.01, 0.01, 0.98]])
        with pytest.raises(ValueError, match="3 columns but y_true holds 2 class"):
            log_loss([0, 2], confident)
