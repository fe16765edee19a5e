"""The seed's search inner loop, as a :class:`SearchSession` subclass.

Production keeps each episode's features in the columnar arena, describes
and clusters them through incremental per-feature caches, and scores
novelty in one fused pass. :class:`ReferenceSession` restores the seed's
way of doing each of these:

- a dict-of-columns feature store (:class:`DictFeatureSpace`) and no caches;
- every recluster and prune recomputes MI and the state statistics over
  the full live matrix;
- the novelty score and the Fig 14 embedding each encode the sequence in
  a pass of their own.

Everything else is production code, so a search run here and one run on
:class:`SearchSession` must agree bit for bit;
``tests/core/test_incremental_search.py`` checks that, and
``benchmarks/test_search_throughput.py`` times the two.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.clustering import cluster_features
from repro.core.novelty import NoveltyEstimator
from repro.core.sequence import FeatureSpace
from repro.core.session import SearchSession
from repro.core.state import describe_matrix
from repro.ml.mutual_info import mutual_info_with_target
from repro.ml.preprocessing import sanitize_features
from tests.reference.sequence import DictFeatureSpace

__all__ = ["ReferenceSession", "TwoPassNovelty"]


class TwoPassNovelty:
    """A novelty estimator whose fused call runs the two seed passes."""

    def __init__(self, estimator: NoveltyEstimator) -> None:
        self.estimator = estimator

    def score_with_embedding(self, seq: np.ndarray) -> tuple[float, np.ndarray]:
        return self.estimator.score(seq), self.estimator.embedding(seq)

    def fit(self, *args, **kwargs):
        return self.estimator.fit(*args, **kwargs)


class ReferenceSession(SearchSession):
    """``SearchSession`` running the seed inner loop."""

    def _make_components(self, vocab_size: int):
        predictor, novelty = super()._make_components(vocab_size)
        return predictor, None if novelty is None else TwoPassNovelty(novelty)

    def _begin_episode(self) -> None:
        self._space = DictFeatureSpace(self._X, self._feature_names)
        self._body_tokens = []
        self._prev_seq = self._vocab.finalize(self._body_tokens, self.config.max_seq_len)

        t0 = time.perf_counter()
        self._clusters, self._overall_rep, self._cluster_reps = self._recluster(self._space)
        self.last_episode_setup_seconds = time.perf_counter() - t0
        self._timers.optimization += self.last_episode_setup_seconds

        self._prev_score_used = self._base_score
        self._prev_phi = None
        self._callbacks.on_episode_start(self, self._episode)

    def _recluster(
        self, space: FeatureSpace
    ) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        cfg = self.config
        matrix = sanitize_features(space.matrix())
        column_clusters = cluster_features(
            matrix,
            self._y,
            task=self.task,
            distance_threshold=cfg.cluster_threshold,
            max_clusters=cfg.max_clusters,
            n_bins=cfg.mi_bins,
            max_rows=cfg.mi_max_rows,
            seed=cfg.seed,
        )
        fid_clusters = self._cluster_fids(space, column_clusters)
        overall_rep = describe_matrix(matrix)
        cluster_reps = np.stack([describe_matrix(space.matrix(fids)) for fids in fid_clusters])
        return fid_clusters, overall_rep, cluster_reps

    def _prune(self, space: FeatureSpace) -> None:
        if space.n_features <= self._feature_cap:
            return
        matrix = sanitize_features(space.matrix())
        relevance = mutual_info_with_target(
            matrix, self._y, task=self.task, n_bins=self.config.mi_bins
        )
        live = space.live_ids
        order = np.argsort(-relevance)
        keep = [live[i] for i in order[: self._feature_cap]]
        space.prune(keep)
