"""Bit-identity proofs for the arena inner loop.

The columnar-arena FeatureSpace, the incremental state/MI caches and the
fused estimation passes all promise *exactly* the seed semantics — same
bits, just less work. Each component is checked here against the
from-scratch computation it replaces, and the whole search is checked end
to end: :class:`SearchSession` and the seed inner loop kept in
``tests/reference/session.py`` must agree field for field on every step
record, score repr and plan byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clustering import (
    IncrementalClusterer,
    RelevanceCache,
    _merge_average_linkage,
    cluster_features,
    pairwise_cluster_distance,
)
from repro.core.config import FastFTConfig
from repro.core.novelty import EmbeddingLog, NoveltyEstimator, novelty_distance
from repro.core.predictor import PerformancePredictor
from repro.core.sequence import FeatureSpace
from repro.core.session import SearchSession
from repro.core.state import StateCache, describe_matrix
from repro.ml.preprocessing import sanitize_features
from tests.reference import clustering as reference
from tests.reference.session import ReferenceSession


def _grown_space(rng, n=120, d=4, steps=5) -> FeatureSpace:
    """A space grown the way a search grows one (ops + a mid-way prune)."""
    X = rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, d)))
    space = FeatureSpace(X)
    unary = ["square", "log", "tanh"]
    for step in range(steps):
        live = space.live_ids_view
        space.apply_unary(unary[step % len(unary)], [live[step % len(live)]])
        space.apply_binary(
            "add", [live[0]], [live[-1], live[len(live) // 2]],
            max_new=2, rng=rng,
        )
        if step == steps // 2:
            keep = space.live_ids
            rng.shuffle(keep)
            space.prune(keep[: max(2, len(keep) - 3)])
    return space


class TestStateCacheBitIdentity:
    def test_describe_matches_describe_matrix_across_widths(self, rng):
        space = _grown_space(rng)
        cache = StateCache(space)
        live = space.live_ids
        # Full live set, sub-clusters of every width, and singletons, in an
        # order that forces cache reuse across different contexts.
        requests = [live, live[:2], [live[0]], live[1:], [live[-1]], live]
        for fids in requests:
            expected = describe_matrix(space.matrix(fids))
            got = cache.describe(fids)
            assert got.tobytes() == expected.tobytes()

    def test_cached_stats_independent_of_batch_composition(self, rng):
        # A column's stats must not depend on which new-column batch first
        # computed them: warm one cache column-by-column and one in bulk.
        space = _grown_space(rng)
        live = space.live_ids
        one_by_one = StateCache(space)
        for f in live:
            one_by_one.describe([live[0], f])
        bulk = StateCache(space)
        assert bulk.describe(live).tobytes() == one_by_one.describe(live).tobytes()

    def test_sanitize_is_idempotent_on_stored_columns(self, rng):
        # The arena paths skip the second sanitize_features pass the seed
        # applied to already-sanitized columns; that is only sound if the
        # pass is exactly idempotent.
        space = _grown_space(rng)
        matrix = space.matrix()
        assert sanitize_features(matrix).tobytes() == matrix.tobytes()


def _target(space: FeatureSpace, task: str) -> np.ndarray:
    base = space.values(0) + 0.5 * space.values(1)
    if task == "regression":
        return np.asarray(base).round(2)
    if task == "detection":
        return (base > np.quantile(base, 0.9)).astype(int)
    return np.digitize(base, [-1.0, 0.0, 1.0])


class TestIncrementalClusteringBitIdentity:
    @pytest.mark.parametrize("task", ["classification", "regression", "detection"])
    @pytest.mark.parametrize("n_rows", [120, 600])  # below / above max_rows
    def test_cluster_matches_reference_across_steps(self, rng, task, n_rows):
        space = _grown_space(rng, n=n_rows)
        y = _target(space, task)
        clusterer = IncrementalClusterer(
            task=task, max_clusters=3, n_bins=8, max_rows=256, seed=0
        )
        for step in range(6):  # repeated calls exercise the cross-step caches
            live = space.live_ids_view
            X = sanitize_features(space.matrix())
            expected = reference.cluster_features(
                X, y, task=task, max_clusters=3, n_bins=8, max_rows=256, seed=0
            )
            assert clusterer.cluster(space, y, live) == expected
            # The distances themselves, to the bit: a merge rarely moves
            # when one MI flips its last bit, so the partition alone
            # would not notice a cache that ignores pair orientation.
            base = reference.pairwise_cluster_distance(
                X, y, task=task, n_bins=8, max_rows=256, seed=0
            )
            assert clusterer.base_distance(space, y, live).tobytes() == base.tobytes()
            # Grow, then prune in reversed, relevance or shuffled order, so
            # new pairs appear and old ones flip orientation (the ordered
            # pair cache must track both).
            space.apply_unary(["tanh", "square", "log"][step % 3], [live[0]])
            space.apply_binary("multiply", [live[-1]], [live[1]], max_new=1, rng=rng)
            keep = space.live_ids
            if step % 3 == 0:
                keep.reverse()
            elif step % 3 == 1:
                rng.shuffle(keep)
                keep = keep[:-1]
            space.prune(keep)

    def test_caches_grow_past_their_capacity(self, rng):
        # Feature ids far beyond the first allocation: the row-indexed code
        # table and pair matrix must grow without losing cached entries.
        space = _grown_space(rng, n=80, steps=9)
        y = _target(space, "classification")
        clusterer = IncrementalClusterer(max_clusters=4, seed=0)
        live = space.live_ids
        for fids in (live[:3], live, live[:3]):
            expected = reference.cluster_features(
                sanitize_features(space.matrix(fids)), y, max_clusters=4, seed=0
            )
            assert clusterer.cluster(space, y, fids) == expected

    def test_single_feature_returns_singleton(self, rng):
        X = rng.normal(size=(30, 1))
        space = FeatureSpace(X)
        y = (X[:, 0] > 0).astype(int)
        clusterer = IncrementalClusterer(seed=0)
        assert clusterer.cluster(space, y, space.live_ids) == [[0]]

    def test_unseeded_subsampling_refused(self, rng):
        space = _grown_space(rng, n=600)
        y = (space.values(0) > 0).astype(int)
        clusterer = IncrementalClusterer(seed=None, max_rows=256)
        with pytest.raises(ValueError, match="seed"):
            clusterer.cluster(space, y, space.live_ids)


class TestClusterFeaturesBitIdentity:
    @pytest.mark.parametrize("task", ["classification", "regression", "detection"])
    @pytest.mark.parametrize("n_rows", [40, 300])
    def test_matches_reference(self, rng, task, n_rows):
        space = _grown_space(rng, n=n_rows)
        y = _target(space, task)
        X = sanitize_features(space.matrix())
        for kwargs in (
            {},
            {"max_clusters": 2},
            {"distance_threshold": 0.5, "min_clusters": 1},
            {"n_bins": 4, "max_rows": 64, "seed": 3},
        ):
            expected = reference.cluster_features(X, y, task=task, **kwargs)
            assert cluster_features(X, y, task=task, **kwargs) == expected
            D = reference.pairwise_cluster_distance(X, y, task=task)
            assert pairwise_cluster_distance(X, y, task=task).tobytes() == D.tobytes()

    @pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
    def test_nan_distances_never_merge_first(self, rng):
        # varsigma=0 with constant columns makes 0/0 distances: the seed's
        # strict `<` scan never picks a NaN pair, and neither may argmin.
        X = rng.normal(size=(60, 6))
        X[:, [1, 3, 4]] = 2.0
        y = (X[:, 0] > 0).astype(int)
        for kwargs in ({}, {"max_clusters": 2}, {"distance_threshold": 1e9}):
            expected = reference.cluster_features(X, y, varsigma=0.0, **kwargs)
            assert cluster_features(X, y, varsigma=0.0, **kwargs) == expected


class TestMergeAgainstDoubleLoop:
    @pytest.mark.parametrize("seed", range(80))
    def test_same_clusters(self, seed):
        # Few distinct levels force exact ties between pairs (the first
        # strict minimum of the row-major scan must win); a few symmetric
        # NaN and inf cells are never picked.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 15))
        base = rng.integers(0, [3, 1000][seed % 2], size=(d, d)) / 4.0
        base = np.triu(base, 1) + np.triu(base, 1).T
        for _ in range(seed % 4):
            i, j = rng.choice(d, size=2, replace=False)
            base[i, j] = base[j, i] = rng.choice([np.nan, np.inf])
        threshold = ["auto", 0.0, 2.0, 1e9][seed % 4]
        min_clusters = int(rng.integers(1, 4))
        max_clusters = [None, 1, 2, 4][int(rng.integers(0, 4))]
        expected = reference.merge_double_loop(
            base,
            float(np.median(base[~np.eye(d, dtype=bool)])) if threshold == "auto" else threshold,
            min_clusters,
            max_clusters,
        )
        assert _merge_average_linkage(base, threshold, min_clusters, max_clusters) == expected


class TestRelevanceCacheBitIdentity:
    @pytest.mark.parametrize("task", ["classification", "regression", "detection"])
    def test_relevance_matches_batch_function(self, rng, task):
        space = _grown_space(rng)
        y = _target(space, task)
        cache = RelevanceCache(task, n_bins=8)
        for step in range(4):
            live = space.live_ids_view
            expected = reference.mutual_info_with_target(
                sanitize_features(space.matrix()), y, task=task, n_bins=8
            )
            got = cache.relevance(space, y, live)
            assert got.tobytes() == expected.tobytes()
            space.apply_unary("square", [live[-1]])
            if step == 1:  # several new features in one call
                space.apply_unary("tanh", live[:3])


class TestFusedEstimationBitIdentity:
    def test_score_with_embedding_matches_separate_calls(self):
        novelty = NoveltyEstimator(40, seed=3)
        for seq in ([1, 7, 9, 22, 2], [1, 5, 2], list(range(1, 30))):
            tokens = np.asarray(seq, dtype=np.int64)
            score, emb = novelty.score_with_embedding(tokens)
            assert score == novelty.score(tokens)
            assert emb.tobytes() == novelty.embedding(tokens).tobytes()

    def test_single_sequence_batch_matches_scalar_paths(self):
        predictor = PerformancePredictor(40, seed=3)
        novelty = NoveltyEstimator(40, seed=3)
        tokens = np.asarray([1, 8, 30, 9, 2], dtype=np.int64)
        assert float(predictor.predict_batch([tokens])[0]) == predictor.predict(tokens)
        assert float(novelty.score_batch([tokens])[0]) == novelty.score(tokens)


class TestEmbeddingLog:
    def test_view_matches_list_rebuild_across_doublings(self, rng):
        log = EmbeddingLog()
        history = []
        assert log.view() is None and len(log) == 0
        for _ in range(37):  # crosses the 8 -> 16 -> 32 -> 64 growths
            emb = rng.normal(size=16)
            history.append(emb)
            log.append(emb)
            assert log.view().tobytes() == np.array(history).tobytes()
        assert len(log) == 37
        probe = rng.normal(size=16)
        assert novelty_distance(probe, log.view()) == novelty_distance(
            probe, np.array(history)
        )


class TestSessionArenaVsNaive:
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_full_search_bit_identical(self, rng, task):
        X = rng.normal(size=(90, 4))
        if task == "classification":
            y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
        else:
            y = X[:, 0] * X[:, 1] + 0.5 * X[:, 2] ** 2
        kwargs = dict(
            episodes=3, steps_per_episode=2, cold_start_episodes=1,
            retrain_every_episodes=1, component_epochs=2, trigger_warmup=2,
            cv_splits=3, rf_estimators=4, max_clusters=3, mi_max_rows=64,
            seed=11,
        )
        naive = ReferenceSession(X, y, task, config=FastFTConfig(**kwargs)).run()
        arena = SearchSession(X, y, task, config=FastFTConfig(**kwargs)).run()
        assert repr(naive.base_score) == repr(arena.base_score)
        assert repr(naive.best_score) == repr(arena.best_score)
        assert naive.plan.to_json() == arena.plan.to_json()
        assert len(naive.history) == len(arena.history)
        for a, b in zip(naive.history, arena.history):
            assert a.deterministic_dict() == b.deterministic_dict()
        assert naive.n_downstream_calls == arena.n_downstream_calls
