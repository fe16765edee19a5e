"""The batched MI kernel against the seed's per-pair estimator.

``repro.ml.mutual_info.pairwise_mutual_info`` scores many ordered code
pairs at once, grouped by their ``(n_a, n_b)`` code counts and chunked
under a cell budget. Every value must equal the seed's one-pair estimator
in ``tests.reference.clustering`` bit for bit, so the properties compare
``repr`` per pair (a signed zero counts as a difference). The functions
built on the kernel (the discretizer, relevance and the redundancy matrix)
are compared with their seed versions byte for byte.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need the hypothesis dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.ml import mutual_info  # noqa: E402
from repro.ml.mutual_info import (  # noqa: E402
    dense_codes,
    discrete_mutual_info,
    mutual_info_matrix,
    mutual_info_with_target,
    pairwise_mutual_info,
)
from repro.ml.preprocessing import KBinsDiscretizer  # noqa: E402
from tests.reference import clustering as reference  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

seeds = st.integers(0, 2**16)
lengths = st.integers(1, 300)


def _vectors(seed: int, n: int, code_counts: list[int]) -> list[np.ndarray]:
    """Vectors of length ``n`` taking at most ``code_counts[i]`` values each.

    Values are sparse, negative-capable integers (compaction is needed) at
    skewed frequencies (some codes may not appear at all).
    """
    rng = np.random.default_rng(seed)
    out = []
    for c in code_counts:
        alphabet = rng.choice(60, size=c, replace=False) * 3 - 40
        p = rng.dirichlet(np.full(c, 0.5))
        out.append(alphabet[rng.choice(c, size=n, p=p)])
    return out


def _table(vectors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    dense = [dense_codes(v) for v in vectors]
    return np.stack([codes for codes, _ in dense]), np.array([k for _, k in dense])


def _all_ordered_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair, so both orientations and the diagonal share a batch."""
    left, right = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    return left.ravel(), right.ravel()


def _assert_pairs_match(vectors, left, right) -> None:
    got = pairwise_mutual_info(*_table(vectors), left, right)
    assert got.shape == (len(left),)
    for p, (a, b) in enumerate(zip(left, right)):
        expected = reference.discrete_mutual_info(vectors[a], vectors[b])
        assert repr(float(got[p])) == repr(expected), (p, a, b)


def _tie_heavy(seed: int, n: int, width: int) -> np.ndarray:
    """Columns with repeated values, zero runs and constants: quantile bins
    with ties and empty bins, the cases the discretizer must get right."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, width)) * np.exp(rng.normal(size=width))
    kind = rng.integers(0, 4, size=width)
    X[:, kind == 1] = X[:, kind == 1].round(0)
    X[:, kind == 2] *= rng.random((n, int((kind == 2).sum()))) < 0.3
    X[:, kind == 3] = rng.normal()
    return X


def _target(seed: int, n: int, task: str) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    if task == "regression":
        return rng.normal(size=n).round(1)
    n_classes = 2 if task == "detection" else int(rng.integers(1, 6))
    return rng.choice(np.arange(n_classes) * 2 + 1, size=n)


class TestKernelMatchesPerPairEstimator:
    @SETTINGS
    @given(
        seed=seeds,
        n=lengths,
        code_counts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    )
    def test_every_ordered_pair_of_a_mixed_batch(self, seed, n, code_counts):
        vectors = _vectors(seed, n, code_counts)
        _assert_pairs_match(vectors, *_all_ordered_pairs(len(vectors)))

    @SETTINGS
    @given(
        seed=seeds,
        n=lengths,
        code_counts=st.lists(st.integers(1, 8), min_size=2, max_size=6),
        pairs_per_chunk=st.integers(1, 3),
    )
    def test_groups_split_across_chunks(self, seed, n, code_counts, pairs_per_chunk):
        vectors = _vectors(seed, n, code_counts)
        with mock.patch.object(mutual_info, "_CELL_BUDGET", pairs_per_chunk * n):
            _assert_pairs_match(vectors, *_all_ordered_pairs(len(vectors)))

    @SETTINGS
    @given(seed=seeds, n=lengths, picks=st.lists(st.integers(0, 7), min_size=1, max_size=40))
    def test_repeated_and_shuffled_pairs(self, seed, n, picks):
        # Vectors of at most 1..8 codes; the batch order interleaves
        # groups and repeats pairs.
        vectors = _vectors(seed, n, list(range(1, 9)))
        left = np.asarray(picks)
        right = np.roll(left, 1) if len(left) > 1 else left
        _assert_pairs_match(vectors, left, right)

    def test_one_batch_covers_every_group(self):
        rng = np.random.default_rng(3)
        vectors = [5 * rng.permutation(np.arange(300) % c) - 7 for c in range(1, 9)]
        assert [len(np.unique(v)) for v in vectors] == list(range(1, 9))
        left, right = _all_ordered_pairs(8)
        _assert_pairs_match(vectors, left, right)
        with mock.patch.object(mutual_info, "_CELL_BUDGET", 1):
            _assert_pairs_match(vectors, left, right)

    def test_empty_batch(self):
        codes, counts = _table(_vectors(0, 10, [2, 3]))
        assert pairwise_mutual_info(codes, counts, [], []).shape == (0,)


class TestOnePairEstimator:
    @SETTINGS
    @given(seed=seeds, n=lengths, decimals=st.integers(-1, 2))
    def test_matches_seed_on_raw_values(self, seed, n, decimals):
        # Many distinct values: joints far beyond the cell budget.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n).round(decimals)
        b = (a + rng.normal(size=n)).round(decimals)
        for x, z in ((a, b), (b, a), (a, a)):
            assert repr(discrete_mutual_info(x, z)) == repr(reference.discrete_mutual_info(x, z))

    def test_errors_kept(self):
        with pytest.raises(ValueError, match="same length"):
            discrete_mutual_info([0, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="Empty"):
            discrete_mutual_info([], [])


class TestCodeFunctionsMatchSeed:
    @SETTINGS
    @given(seed=seeds, n=lengths, width=st.integers(1, 6), n_bins=st.sampled_from([2, 8, 16]))
    def test_discretizer_matches_per_column_fit(self, seed, n, width, n_bins):
        X = _tie_heavy(seed, n, width)
        codes = KBinsDiscretizer(n_bins=n_bins).fit_transform(X)
        expected = reference.kbins_codes(X, n_bins)
        assert codes.dtype == expected.dtype and codes.tobytes() == expected.tobytes()

    @SETTINGS
    @given(
        seed=seeds,
        n=lengths,
        width=st.integers(1, 6),
        task=st.sampled_from(["classification", "regression", "detection"]),
        n_bins=st.sampled_from([8, 16]),
    )
    def test_relevance_matches_seed(self, seed, n, width, task, n_bins):
        X = _tie_heavy(seed, n, width)
        y = _target(seed, n, task)
        got = mutual_info_with_target(X, y, task=task, n_bins=n_bins)
        expected = reference.mutual_info_with_target(X, y, task=task, n_bins=n_bins)
        assert got.tobytes() == expected.tobytes()

    @SETTINGS
    @given(seed=seeds, n=lengths, width=st.integers(1, 6), n_bins=st.sampled_from([8, 16]))
    def test_redundancy_matrix_matches_seed(self, seed, n, width, n_bins):
        X = _tie_heavy(seed, n, width)
        got = mutual_info_matrix(X, n_bins=n_bins)
        assert got.tobytes() == reference.mutual_info_matrix(X, n_bins=n_bins).tobytes()

    def test_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            mutual_info_with_target(np.zeros((5, 2)), np.zeros(4))
