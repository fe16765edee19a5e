"""Content-addressed memoization of downstream oracle scores.

The :class:`EvaluationCache` attacks the *evaluation* bucket of the paper's
Table II time breakdown: downstream cross-validation dominates search cost,
and identical feature matrices recur — across restarted sessions, repeated
plans within a search, ablation arms sharing a cold start, and batch jobs
re-validating the same candidates. Scores are memoized by a content
signature of the evaluated matrix/target plus an evaluator fingerprint, so
a hit is exact, not approximate.

Two layers:

- :class:`EvaluationCache` — process-local dict, picklable, travels inside
  session checkpoints. Each job of a pooled
  :class:`repro.core.parallel.SearchOrchestrator` run gets its own,
  seeded from the caller's entries, and hands back the entries it added.
- :class:`CachedEvaluator` — the drop-in evaluator front that consults
  it.

Historically these classes lived in :mod:`repro.api`, which still
re-exports them (existing imports and pickled checkpoints keep working);
they moved here so :mod:`repro.core.parallel` can use them without
importing the facade.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Mapping

import numpy as np

from repro.ml.evaluation import DownstreamEvaluator

__all__ = ["EvaluationCache", "CachedEvaluator"]


class EvaluationCache:
    """Process-local memo of downstream CV scores, keyed by content.

    The key covers the exact feature matrix bytes, the target bytes and a
    fingerprint of the evaluator (task, folds, seed, model template), so
    two differently-configured oracles never share entries. Use
    :meth:`wrap` to attach the cache to an evaluator::

        cache = EvaluationCache()
        result = api.search(X, y, cache=cache)
        cache.hits, cache.misses

    The cache is a plain picklable object: a session checkpointed with a
    cache-wrapped evaluator carries its entries into the resumed run.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: dict[str, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def _digest_array(arr: np.ndarray) -> bytes:
        # Keys are derived from the row-major bytes, so logically equal
        # matrices hash identically whatever their layout. C-contiguous
        # inputs — e.g. the arena FeatureSpace's matrix() gathers — are
        # hashed straight from the buffer via the memoryview, skipping the
        # tobytes() copy the seed implementation paid on every signature;
        # other layouts pay exactly one ascontiguousarray copy (the seed
        # paid that copy *plus* tobytes).
        h = hashlib.sha1()
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        h.update(arr.data)
        return h.digest()

    def signature(self, X: np.ndarray, y: np.ndarray, fingerprint: bytes = b"") -> str:
        h = hashlib.sha1()
        h.update(fingerprint)
        h.update(self._digest_array(np.asarray(X)))
        h.update(self._digest_array(np.asarray(y)))
        return h.hexdigest()

    def get(self, key: str) -> float | None:
        score = self._entries.get(key)
        if score is None:
            self.misses += 1
        else:
            self.hits += 1
        return score

    def put(self, key: str, score: float) -> None:
        if len(self._entries) >= self.max_entries and key not in self._entries:
            # Drop the oldest entry (dicts preserve insertion order).
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = float(score)

    def snapshot_entries(self) -> dict[str, float]:
        """Copy of the stored ``{key: score}`` entries (for seeding/merging)."""
        return dict(self._entries)

    def merge_entries(self, entries: Mapping[str, float]) -> int:
        """Absorb entries from another cache; returns how many were new.

        Respects ``max_entries`` through the normal :meth:`put` eviction.
        """
        added = 0
        for key, score in entries.items():
            if key not in self._entries:
                added += 1
            self.put(key, score)
        return added

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def wrap(self, evaluator: DownstreamEvaluator) -> "CachedEvaluator":
        return CachedEvaluator(evaluator, self)


class CachedEvaluator:
    """Drop-in :class:`DownstreamEvaluator` front that consults a cache.

    ``n_calls``/``total_time`` mirror the wrapped evaluator, so they count
    only *actual* CV runs — exactly what
    :meth:`SearchSession._evaluate_matrix` needs to report honest
    ``n_downstream_calls`` figures.
    """

    def __init__(self, evaluator: DownstreamEvaluator, cache: EvaluationCache) -> None:
        self.evaluator = evaluator
        self.cache = cache
        self._fingerprint = self._evaluator_fingerprint(evaluator)

    @staticmethod
    def _evaluator_fingerprint(evaluator: DownstreamEvaluator) -> bytes:
        # Metrics and models are keyed by their pickled bytes. Two distinct
        # closures share a __qualname__, so anything unpicklable falls back
        # to its object identity: such evaluators never share cache entries
        # (correct, just less sharing) instead of silently colliding.
        def blob(obj) -> bytes:
            try:
                return pickle.dumps(obj)
            except Exception:
                return f"{obj!r}@{id(obj)}".encode()

        h = hashlib.sha1()
        h.update(getattr(evaluator, "task", "?").encode())
        h.update(str(getattr(evaluator, "n_splits", "?")).encode())
        h.update(str(getattr(evaluator, "seed", "?")).encode())
        h.update(blob(getattr(evaluator, "metric", None)))
        h.update(blob(getattr(evaluator, "model", None)))
        return h.digest()

    @property
    def fingerprint(self) -> bytes:
        """The evaluator identity folded into every cache key.

        Public so out-of-band cache users — e.g. the
        :class:`~repro.core.async_oracle.AsyncOracle`, which consults the
        cache at submission time and writes scores back when they land —
        derive exactly the keys this front would.
        """
        return self._fingerprint

    # -- DownstreamEvaluator interface parity ---------------------------------

    @property
    def task(self) -> str:
        return self.evaluator.task

    @property
    def n_calls(self) -> int:
        return self.evaluator.n_calls

    @property
    def total_time(self) -> float:
        return self.evaluator.total_time

    def reset_counters(self) -> None:
        self.evaluator.reset_counters()

    def __call__(self, X: np.ndarray, y: np.ndarray) -> float:
        key = self.cache.signature(X, y, self._fingerprint)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        score = self.evaluator(X, y)
        self.cache.put(key, score)
        return score

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> float:
        """Alias of :meth:`__call__`, mirroring ``DownstreamEvaluator``."""
        return self(X, y)
