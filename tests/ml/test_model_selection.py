"""Tests for KFold, StratifiedKFold, train_test_split, cross_val_score."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.linear import LogisticRegression
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import KFold, StratifiedKFold, cross_val_score, train_test_split


class TestKFold:
    def test_partitions_cover_everything(self):
        folds = list(KFold(5, seed=0).split(23))
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_train_test_disjoint(self):
        for train, test in KFold(4, seed=1).split(40):
            assert set(train).isdisjoint(test)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))

    def test_invalid_splits_raises(self):
        with pytest.raises(ValueError):
            KFold(1)

    def test_deterministic_with_seed(self):
        a = [t.tolist() for _, t in KFold(3, seed=7).split(30)]
        b = [t.tolist() for _, t in KFold(3, seed=7).split(30)]
        assert a == b

    @given(st.integers(6, 100), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_fold_sizes_balanced(self, n, k):
        sizes = [len(test) for _, test in KFold(k, seed=0).split(n)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n


class TestStratifiedKFold:
    def test_class_ratio_preserved(self):
        y = np.array([0] * 80 + [1] * 20)
        for train, test in StratifiedKFold(4, seed=0).split(y):
            ratio = np.mean(y[test])
            assert ratio == pytest.approx(0.2, abs=0.06)

    def test_rare_class_present_in_most_folds(self):
        y = np.array([0] * 50 + [1] * 3)
        folds_with_positive = sum(
            1 for _, test in StratifiedKFold(3, seed=0).split(y) if (y[test] == 1).any()
        )
        assert folds_with_positive == 3

    def test_partition_property(self):
        y = np.random.default_rng(0).integers(0, 3, 50)
        all_test = np.concatenate([t for _, t in StratifiedKFold(5, seed=0).split(y)])
        assert sorted(all_test.tolist()) == list(range(50))


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(-1, 1)
        X_train, X_test = train_test_split(X, test_size=0.2, seed=0)
        assert len(X_test) == 20 and len(X_train) == 80

    def test_multiple_arrays_aligned(self):
        X = np.arange(50).reshape(-1, 1)
        y = np.arange(50)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.3, seed=0)
        assert (X_train.ravel() == y_train).all()
        assert (X_test.ravel() == y_test).all()

    def test_stratified_keeps_ratio(self):
        y = np.array([0] * 90 + [1] * 10)
        _, y_test = train_test_split(y, test_size=0.2, seed=0, stratify=y)
        assert np.mean(y_test) == pytest.approx(0.1, abs=0.05)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros(5), np.zeros(6))


class TestCrossValScore:
    def test_reasonable_scores_on_separable_data(self, binary_data):
        X, y = binary_data
        scores = cross_val_score(
            LogisticRegression(), X, y, scorer=accuracy_score, n_splits=4, stratified=True
        )
        assert len(scores) == 4
        assert scores.mean() > 0.8

    def test_use_proba_returns_scores_not_labels(self, binary_data):
        X, y = binary_data

        def check_continuous(y_true, pred):
            assert np.any((pred > 0) & (pred < 1))
            return 1.0

        cross_val_score(
            LogisticRegression(), X, y, scorer=check_continuous, n_splits=3, use_proba=True
        )

    def test_concurrent_calls_in_one_process_keep_their_own_data(
        self, binary_data, multiclass_data
    ):
        """Regression: serial folds used to read the dataset from a module
        global that any other call overwrote and then reset to None. Call A
        pauses in its scorer after fold 1 while call B runs on other data
        in another thread; A's remaining folds must still see A's arrays."""
        import threading

        X_a, y_a = binary_data
        X_b, y_b = multiclass_data
        expected_a = cross_val_score(
            LogisticRegression(), X_a, y_a, scorer=accuracy_score, n_splits=3
        )
        expected_b = cross_val_score(
            LogisticRegression(), X_b, y_b, scorer=accuracy_score, n_splits=3
        )
        paused, resume = threading.Event(), threading.Event()

        def pausing_scorer(y_true, y_pred):
            if not paused.is_set():
                paused.set()
                assert resume.wait(timeout=60)
            return accuracy_score(y_true, y_pred)

        out = {}

        def run_a():
            try:
                out["a"] = cross_val_score(
                    LogisticRegression(), X_a, y_a, scorer=pausing_scorer, n_splits=3
                )
            except BaseException as exc:  # surfaced by the assertion below
                out["a"] = exc

        thread = threading.Thread(target=run_a)
        thread.start()
        try:
            assert paused.wait(timeout=60)
            out["b"] = cross_val_score(
                LogisticRegression(), X_b, y_b, scorer=accuracy_score, n_splits=3
            )
        finally:
            resume.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not isinstance(out["a"], BaseException), out["a"]
        assert np.array_equal(out["a"], expected_a)
        assert np.array_equal(out["b"], expected_b)
