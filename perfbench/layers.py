"""The traced run's instrumentation: time the calls into each layer's
public functions from outside the program, then remove the wrappers.

Spans are kept in memory while the traced unit runs and written out
afterwards in the ``repro.obs`` trace schema (``Tracer.record_span``), so
``python -m repro trace <file>`` renders them. A layer nested inside the
same layer (``RandomForestClassifier.predict`` calling ``predict_proba``)
is counted once, at the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (layer span name, module, public class, method)
LAYER_FUNCTIONS = (
    ("session.step", "repro.core.session", "SearchSession", "step"),
    ("agents.decide", "repro.core.agents", "CascadingAgents", "decide"),
    ("agents.optimize", "repro.core.agents", "CascadingAgents", "optimize"),
    ("sequence.apply", "repro.core.sequence", "FeatureSpace", "apply_unary"),
    ("sequence.apply", "repro.core.sequence", "FeatureSpace", "apply_binary"),
    ("sequence.prune", "repro.core.sequence", "FeatureSpace", "prune"),
    ("sequence.matrix", "repro.core.sequence", "FeatureSpace", "matrix"),
    ("clustering.cluster", "repro.core.clustering", "IncrementalClusterer", "cluster"),
    ("state.describe", "repro.core.state", "StateCache", "describe"),
    ("predictor.predict_batch", "repro.core.predictor", "PerformancePredictor", "predict_batch"),
    ("predictor.fit", "repro.core.predictor", "PerformancePredictor", "fit"),
    ("novelty.score_with_embedding", "repro.core.novelty", "NoveltyEstimator",
     "score_with_embedding"),
    ("novelty.fit", "repro.core.novelty", "NoveltyEstimator", "fit"),
    ("async_oracle.submit", "repro.core.async_oracle", "AsyncOracle", "submit"),
    ("async_oracle.drain", "repro.core.async_oracle", "AsyncOracle", "drain"),
    ("evaluation", "repro.ml.evaluation", "DownstreamEvaluator", "__call__"),
    ("forest.fit", "repro.ml.forest", "RandomForestClassifier", "fit"),
    ("forest.predict", "repro.ml.forest", "RandomForestClassifier", "predict"),
    ("forest.predict", "repro.ml.forest", "RandomForestClassifier", "predict_proba"),
    ("forest.predict", "repro.ml.forest", "RandomForestRegressor", "predict"),
    ("tree.fit", "repro.ml.tree", "DecisionTreeClassifier", "fit"),
    ("compile.apply", "repro.serve.compile", "CompiledPlan", "apply"),
    ("artifact.transform", "repro.serve.artifact", "PipelineArtifact", "transform"),
)


class LayerTrace:
    """Records one span per outermost call into a wrapped layer function.

    Use as a context manager: entering installs the wrappers on the
    classes that define the methods, leaving restores the originals.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, duration)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        # Real scores seen in call order, for evaluation.useful_ratio.
        self.scores: list[float] = []
        self.worker_evaluations = 0
        self.degraded = 0

    # -- install / remove ------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        seen = set()
        for name, module, cls_name, method in LAYER_FUNCTIONS:
            cls = getattr(importlib.import_module(module), cls_name)
            owner = next(k for k in cls.__mro__ if method in k.__dict__)
            if (owner, method) in seen:
                continue
            seen.add((owner, method))
            original = owner.__dict__[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = trace._stack()
            if any(entry[1] == name for entry in stack):
                return fn(*args, **kwargs)
            sid = next(trace._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                trace.spans.append((sid, parent, name, start, duration))
            trace._observe(name, out)
            return out

        return wrapper

    def _observe(self, name: str, out) -> None:
        if name == "evaluation":
            self.scores.append(float(out))
        elif name == "async_oracle.drain":
            # Work done in the oracle's worker processes is taken from the
            # outcomes they return.
            for outcome in out:
                if not outcome.ok:
                    self.degraded += 1
                elif outcome.n_calls:
                    self.worker_evaluations += outcome.n_calls
                    self.scores.append(float(outcome.score))

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict:
        """Per layer: ``calls``, ``busy_s`` (inclusive) and ``self_s``."""
        child_time = defaultdict(float)
        for _, parent, _, _, duration in self.spans:
            if parent is not None:
                child_time[parent] += duration
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, _, name, _, duration in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time[sid]
        return out

    def useful_evaluations(self) -> int:
        """Evaluations whose score beat every earlier score (the first call
        only sets the baseline)."""
        useful, best = 0, None
        for score in self.scores:
            if best is not None and score > best:
                useful += 1
            best = score if best is None else max(best, score)
        return useful

    def write(self, path: str, root_name: str, root_start: float, root_duration: float,
              meta: dict) -> None:
        """Write the spans as a ``repro.obs`` trace JSONL file."""
        from repro.obs.trace import Tracer

        tracer = Tracer(path=path, meta=meta)
        try:
            root = tracer.record_span(root_name, root_duration, start=root_start)
            ids = {}
            for sid, parent, name, start, duration in sorted(self.spans, key=lambda s: s[3]):
                ids[sid] = tracer.record_span(
                    name, duration, start=start, parent=ids.get(parent, root)
                )
            tracer.annotate(
                layers={name: dict(v) for name, v in sorted(self.totals().items())}
            )
        finally:
            tracer.close()
