"""Property tests pinning fast implementations to naive references.

Each test implements the textbook O(n²)/brute-force version of a quantity
and checks our optimized implementation against it on random inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import mutual_info
from repro.ml.metrics import f1_score, precision_score, recall_score, roc_auc_score
from repro.rl.replay import PrioritizedReplayBuffer, SumTree, Transition
from tests.reference import clustering as reference


def naive_auc(y: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney U definition: P(score⁺ > score⁻) + ½P(tie)."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    total = len(pos) * len(neg)
    return (wins + 0.5 * ties) / total


def naive_mi(a: np.ndarray, b: np.ndarray) -> float:
    """Double loop over the joint support."""
    mi = 0.0
    for va in np.unique(a):
        for vb in np.unique(b):
            p_ab = np.mean((a == va) & (b == vb))
            if p_ab == 0:
                continue
            p_a = np.mean(a == va)
            p_b = np.mean(b == vb)
            mi += p_ab * np.log(p_ab / (p_a * p_b))
    return mi


class TestAucAgainstMannWhitney:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        scores = rng.normal(size=n).round(1)  # rounding forces ties
        assert roc_auc_score(y, scores) == pytest.approx(naive_auc(y, scores), abs=1e-9)


class TestMIAgainstDoubleLoop:
    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_matches_joint_support_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 100))
        a = rng.integers(0, 4, n)
        b = (a + rng.integers(0, 3, n)) % 4
        expected = naive_mi(a, b)
        # The seed estimator is the oracle of the batched kernel's exactness
        # tests (tests/ml/test_mutual_info_kernel.py); both answer to the
        # textbook sum.
        assert reference.discrete_mutual_info(a, b) == pytest.approx(expected, abs=1e-9)
        assert mutual_info.discrete_mutual_info(a, b) == pytest.approx(expected, abs=1e-9)


class TestF1AgainstManualCounts:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_binary_f1_from_confusion_matrix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 80))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        tp = int(np.sum((y_true == 1) & (y_pred == 1)))
        fp = int(np.sum((y_true == 0) & (y_pred == 1)))
        fn = int(np.sum((y_true == 1) & (y_pred == 0)))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert f1_score(y_true, y_pred, average="binary") == pytest.approx(expected)
        assert precision_score(y_true, y_pred, average="binary") == pytest.approx(p)
        assert recall_score(y_true, y_pred, average="binary") == pytest.approx(r)


class TestSumTreeAgainstNaivePrefix:
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=32), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_find_prefix_matches_linear_scan(self, priorities, frac):
        tree = SumTree(32)
        for i, p in enumerate(priorities):
            tree.set(i, p)
        total = sum(priorities)
        if total == 0:
            return
        mass = frac * total * 0.9999
        # Naive linear scan for the first index whose prefix sum covers mass.
        running = 0.0
        expected = len(priorities) - 1
        for i, p in enumerate(priorities):
            running += p
            if mass <= running and p > 0:
                expected = i
                break
        assert tree.find_prefix(mass) == expected


class TestPrioritizedSamplingFrequencies:
    def test_empirical_frequency_tracks_priorities(self):
        """With α=1 the sampling law is exactly p_i/Σp — check empirically."""
        priorities = np.array([1.0, 2.0, 4.0, 8.0])
        buf = PrioritizedReplayBuffer(capacity=4, alpha=1.0, eps=0.0, seed=0)
        for i, p in enumerate(priorities):
            t = Transition(
                state=np.zeros(1), action_vec=np.zeros(1), reward=float(i),
                next_state=np.zeros(1),
            )
            buf.add(t, priority=p)
        counts = np.zeros(4)
        draws = 4000
        for _ in range(draws):
            _, idx, _ = buf.sample(1)
            counts[idx[0]] += 1
        empirical = counts / draws
        expected = priorities / priorities.sum()
        assert np.abs(empirical - expected).max() < 0.05
