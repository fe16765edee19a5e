"""Structured tracing: nested spans + metrics, streamed to JSONL.

A :class:`Tracer` records what a run *did* and where its time went:

- **spans** — named, attributed time intervals forming a tree (``search``
  → ``episode`` → ``step`` → Table-II buckets). Spans stream to a JSONL
  file the moment they finish, so memory stays bounded no matter how long
  the run is (an in-memory ring keeps the most recent ``max_spans`` for
  programmatic inspection).
- **metrics** — counters/gauges/histograms from :mod:`repro.obs.metrics`,
  summarized into the trace on :meth:`close`.

The trace file is self-describing: line 1 is a ``meta`` record carrying
the schema version and the producing environment
(:func:`repro.obs.runmeta.run_metadata`), followed by ``span`` records in
completion order, optional ``annotation`` records, and one summary record
per metric at close. :func:`load_trace` reads it all back;
``repro trace <run.jsonl>`` renders it (:mod:`repro.obs.report`).

Searches attach tracing through the existing callback protocol::

    from repro.obs import TracingCallback
    cb = TracingCallback(path="run.trace.jsonl")
    result = api.search(X, y, task, callbacks=[cb])

Tracing is **off by default and passive**: it observes timings the
session already measures and never feeds anything back, so a traced run's
trajectory is byte-identical to an untraced one (pinned by the goldens)
and the enabled overhead is benchmarked ≤5 % of the search loop
(``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.callbacks import Callback
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.runmeta import run_metadata

__all__ = [
    "Tracer",
    "TracingCallback",
    "TraceData",
    "load_trace",
    "merge_trace_metrics",
    "TRACE_SCHEMA_VERSION",
    "BUCKET_SPAN_NAMES",
]

TRACE_SCHEMA_VERSION = 1

# Span names that sum into the paper's Table II time buckets. Structural
# spans (search/episode/step) overlap their children and are excluded
# from bucket totals by the report.
BUCKET_SPAN_NAMES = ("optimization", "estimation", "evaluation")


class Tracer:
    """Nested-span recorder with attached metrics and JSONL streaming.

    Parameters
    ----------
    path:
        JSONL output file. ``None`` keeps everything in memory (the span
        ring plus the metrics registry) — useful for tests and ad-hoc use.
    max_spans:
        Size of the in-memory span ring. The file, when given, always
        receives *every* span; the ring only bounds what :attr:`spans`
        keeps around.
    registry:
        Share an existing :class:`MetricsRegistry` (e.g. the serving
        registry) instead of creating a private one.
    meta:
        Extra key/values merged into the trace's ``meta`` header line.
    """

    def __init__(
        self,
        path: str | None = None,
        max_spans: int = 4096,
        registry: MetricsRegistry | None = None,
        meta: dict | None = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.path = path
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.max_spans = max_spans
        self.spans: list[dict] = []  # ring; see _emit
        self.meta = {"type": "meta", "schema": TRACE_SCHEMA_VERSION, **run_metadata()}
        if meta:
            self.meta.update(meta)
        self._epoch = time.perf_counter()
        self._wall_epoch = time.time()
        self.meta["wall_time_start"] = round(self._wall_epoch, 3)
        self._next_id = 1
        self._id_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._local = threading.local()  # per-thread open-span stack
        self._closed = False
        self._fh = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
        self._write_line(self.meta)

    # -- plumbing ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    def _write_line(self, payload: dict) -> None:
        if self._fh is None:
            return
        line = json.dumps(payload, separators=(",", ":"), default=str)
        with self._write_lock:
            if not self._closed:
                self._fh.write(line + "\n")

    def _emit(self, record: dict) -> None:
        self._write_line(record)
        with self._write_lock:
            self.spans.append(record)
            if len(self.spans) > self.max_spans:
                del self.spans[: len(self.spans) - self.max_spans]

    # -- span API ----------------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        """Open a span on this thread's stack; close it with :meth:`end`."""
        sid = self._new_id()
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append((sid, name, time.perf_counter(), parent, dict(attrs)))
        return sid

    def end(self, span_id: int | None = None, **extra_attrs) -> None:
        """Close the innermost open span (or spans, down to ``span_id``).

        Closing a span that is not the innermost closes everything opened
        after it first, so an exception that skips ``end`` calls cannot
        leave phantom parents on the stack.
        """
        stack = self._stack()
        if not stack:
            raise RuntimeError("Tracer.end() with no open span")
        if span_id is not None and all(s[0] != span_id for s in stack):
            raise RuntimeError(f"span {span_id} is not open on this thread")
        while stack:
            sid, name, start, parent, attrs = stack.pop()
            last = span_id is None or sid == span_id
            if last and extra_attrs:
                attrs.update(extra_attrs)
            self._emit_span(sid, name, start, time.perf_counter() - start, parent, attrs)
            if last:
                return

    @contextmanager
    def span(self, name: str, **attrs):
        """Context-managed span. Exceptions tag the span (``error`` attr),
        unwind cleanly, and propagate."""
        sid = self.begin(name, **attrs)
        try:
            yield sid
        except BaseException as exc:
            self.end(sid, error=type(exc).__name__)
            raise
        else:
            self.end(sid)

    def record_span(
        self,
        name: str,
        duration: float,
        start: float | None = None,
        parent: int | None = None,
        **attrs,
    ) -> int:
        """Emit a span from a pre-measured duration.

        The instrumentation hooks use this to re-use ``perf_counter``
        deltas the code already computes, so tracing adds no extra clock
        reads to the hot path. ``start`` is a ``perf_counter`` timestamp
        (default: now − duration); ``parent`` defaults to the innermost
        open span on this thread.
        """
        sid = self._new_id()
        if start is None:
            start = time.perf_counter() - duration
        if parent is None:
            stack = self._stack()
            parent = stack[-1][0] if stack else None
        self._emit_span(sid, name, start, duration, parent, attrs)
        return sid

    def _emit_span(self, sid, name, start, duration, parent, attrs) -> None:
        record = {
            "type": "span",
            "id": sid,
            "name": name,
            "t": round(start - self._epoch, 6),
            # Full precision: bucket spans must sum to result.time exactly,
            # and rounding errors would accumulate across thousands of spans.
            "dur": float(duration),
        }
        if parent is not None:
            record["parent"] = parent
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # -- metrics shortcuts -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0, labels: dict | None = None) -> None:
        self.metrics.counter(name, labels=labels).inc(amount)

    def gauge(self, name: str, value: float, labels: dict | None = None) -> None:
        self.metrics.gauge(name, labels=labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple | list | None = None,
        labels: dict | None = None,
    ) -> None:
        self.metrics.histogram(name, bounds=bounds, labels=labels).observe(value)

    # -- lifecycle ---------------------------------------------------------------

    def annotate(self, **kv) -> None:
        """Append an ``annotation`` record (run-level facts, e.g. scores)."""
        self._emit({"type": "annotation", **kv})

    def close(self) -> None:
        """Flush metric summaries and close the file. Idempotent."""
        if self._closed:
            return
        for metric in self.metrics:
            self._write_line(
                {
                    "type": metric.kind,
                    "name": metric.name,
                    "labels": metric.labels,
                    **metric.summary(),
                }
            )
        self._write_line(
            {"type": "end", "elapsed": round(time.perf_counter() - self._epoch, 6)}
        )
        with self._write_lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown varies
        try:
            self.close()
        except Exception:
            pass


class TracingCallback(Callback):
    """Attach a :class:`Tracer` to a search through the callback protocol.

    Every lifecycle event becomes a span with structured attributes:

    - ``search`` → ``episode`` → ``step`` nesting, with per-step op,
      score, φ estimate vs real flag, trigger/deferral state;
    - one child span per Table-II bucket under each step (re-using the
      durations the session already measures — no extra clock reads);
    - ``evaluation``-bucket spans for the base-score measurement and
      async reconciles, ``estimation``-bucket spans for component
      (re)training (with ``predictor_fit`` and ``novelty_fit`` children,
      which are not bucket spans), ``optimization``-bucket spans for
      episode setup;
    - counters/gauges/histograms: steps, real/deferred evaluations,
      oracle cache hits/misses, step-latency histogram, best score.

    At ``on_finish`` any bucket time the callback could not see live
    (e.g. the pseudo-best validation inside ``result()``) is emitted as an
    explicit ``kind="residual"`` span per bucket, so the trace's bucket
    totals equal ``result.time`` exactly — ``repro trace`` reproduces the
    Table II breakdown from the file alone.

    Works both attached to a live :class:`~repro.core.session.SearchSession`
    and driven by the sweep event relay (where it receives
    :class:`~repro.core.parallel.SessionView` snapshots): every session
    attribute it reads is optional.
    """

    def __init__(
        self,
        path: str | None = None,
        tracer: Tracer | None = None,
        max_spans: int = 4096,
        close_on_finish: bool | None = None,
    ) -> None:
        self._owns_tracer = tracer is None
        self.tracer = tracer if tracer is not None else Tracer(path=path, max_spans=max_spans)
        self._close_on_finish = (
            close_on_finish if close_on_finish is not None else self._owns_tracer
        )
        self._search_span: int | None = None
        self._episode_span: int | None = None
        self._traced = dict.fromkeys(BUCKET_SPAN_NAMES, 0.0)
        self._cache = None

    # -- helpers -----------------------------------------------------------------

    def _bucket_span(self, name: str, duration: float, **attrs) -> int | None:
        if duration <= 0.0:
            return None
        self._traced[name] += duration
        return self.tracer.record_span(name, duration, **attrs)

    # -- callback protocol -------------------------------------------------------

    def on_search_start(self, session) -> None:
        tracer = self.tracer
        self._search_span = tracer.begin(
            "search",
            task=getattr(session, "task", None),
            total_steps=getattr(session, "total_steps", None),
        )
        # Deep instrumentation: the session forwards the tracer to its
        # evaluator (per-fold timings) and async oracle (queue telemetry).
        set_tracer = getattr(session, "set_tracer", None)
        if set_tracer is not None:
            set_tracer(tracer)
        evaluator = getattr(session, "_evaluator", None)
        self._cache = getattr(evaluator, "cache", None)
        base_eval = getattr(session, "base_eval_seconds", 0.0)
        self._bucket_span("evaluation", base_eval, kind="base_score")
        tracer.count("search.sessions")
        base = getattr(session, "base_score", None)
        if base is not None:
            tracer.gauge("search.base_score", base)

    def on_episode_start(self, session, episode) -> None:
        self._episode_span = self.tracer.begin("episode", episode=episode)
        self._bucket_span(
            "optimization",
            getattr(session, "last_episode_setup_seconds", 0.0),
            kind="episode_setup",
            episode=episode,
        )

    def on_step(self, session, record) -> None:
        tracer = self.tracer
        dur = record.time_optimization + record.time_estimation + record.time_evaluation
        attrs = {
            "episode": record.episode,
            "step": record.step,
            "global_step": record.global_step,
            "op": record.op_name,
            "score": record.score,
            "is_real": record.is_real,
            "triggered": record.triggered,
            "n_features": record.n_features,
        }
        if record.predicted_score is not None:
            attrs["phi"] = record.predicted_score
        if record.triggered and not record.is_real:
            attrs["deferred"] = True
        sid = tracer.record_span("step", dur, **attrs)
        self._bucket_span(
            "optimization", record.time_optimization, parent=sid, kind="step"
        )
        self._bucket_span("estimation", record.time_estimation, parent=sid, kind="step")
        self._bucket_span("evaluation", record.time_evaluation, parent=sid, kind="step")
        tracer.observe("search.step_seconds", dur)
        tracer.count("search.steps")
        if record.triggered:
            tracer.count("search.triggered")
        if record.is_real:
            tracer.count("search.real_evaluations")
        elif record.triggered:
            tracer.count("search.deferred_evaluations")
        tracer.gauge("search.best_score", record.best_score_so_far)
        tracer.gauge("search.n_features", record.n_features)

    def on_reconcile(self, session, landed, degraded) -> None:
        self._bucket_span(
            "evaluation",
            getattr(session, "last_reconcile_seconds", 0.0),
            kind="reconcile",
            landed=landed,
            degraded=degraded,
        )
        tracer = self.tracer
        if landed:
            tracer.count("oracle.landed", landed)
        if degraded:
            tracer.count("oracle.degraded", degraded)

    def on_retrain(self, session, episode, stage) -> None:
        retrain = getattr(session, "last_retrain_seconds", 0.0)
        start = time.perf_counter() - retrain
        sid = self._bucket_span(
            "estimation", retrain, start=start, kind="retrain", stage=stage, episode=episode
        )
        if sid is not None:
            # The retrain is the two fits back to back; the session sums
            # their durations into it, so the children tile the span.
            predictor_fit = getattr(session, "last_predictor_fit_seconds", 0.0)
            self.tracer.record_span("predictor_fit", predictor_fit, start=start, parent=sid)
            self.tracer.record_span(
                "novelty_fit",
                getattr(session, "last_novelty_fit_seconds", 0.0),
                start=start + predictor_fit,
                parent=sid,
            )
        self.tracer.count("search.retrains")

    def on_episode_end(self, session, episode) -> None:
        if self._cache is not None:
            self.tracer.gauge("oracle.cache_hits", getattr(self._cache, "hits", 0))
            self.tracer.gauge("oracle.cache_misses", getattr(self._cache, "misses", 0))
        if self._episode_span is not None:
            self.tracer.end(
                self._episode_span,
                best_score=getattr(session, "best_score", None),
                n_downstream_calls=getattr(session, "n_downstream_calls", None),
            )
            self._episode_span = None

    def on_finish(self, session, result) -> None:
        tracer = self.tracer
        # Bucket time the callback stream never saw (pseudo-best
        # validation in result(), pre-attach work on resumed sessions):
        # emit it explicitly so trace totals equal result.time exactly.
        totals = {
            "optimization": result.time.optimization,
            "estimation": result.time.estimation,
            "evaluation": result.time.evaluation,
        }
        for name, total in totals.items():
            residual = total - self._traced[name]
            if residual > 1e-9:
                self._bucket_span(name, residual, kind="residual")
        if self._episode_span is not None:  # stopped mid-episode
            self.tracer.end(self._episode_span, stopped=True)
            self._episode_span = None
        if self._search_span is not None:
            tracer.end(
                self._search_span,
                best_score=result.best_score,
                n_downstream_calls=result.n_downstream_calls,
            )
            self._search_span = None
        tracer.annotate(
            base_score=result.base_score,
            best_score=result.best_score,
            n_downstream_calls=result.n_downstream_calls,
            n_steps=len(result.history),
            time_optimization=result.time.optimization,
            time_estimation=result.time.estimation,
            time_evaluation=result.time.evaluation,
        )
        if self._close_on_finish:
            tracer.close()

    def close(self) -> None:
        self.tracer.close()

    def __enter__(self) -> "TracingCallback":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- reading traces back ----------------------------------------------------------


@dataclass
class TraceData:
    """A parsed trace file: header, spans, annotations, restored metrics."""

    path: str
    meta: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    annotations: list[dict] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    elapsed: float | None = None

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def bucket_totals(self) -> dict[str, float]:
        """Seconds per Table-II bucket, summed over bucket spans."""
        totals = dict.fromkeys(BUCKET_SPAN_NAMES, 0.0)
        for span in self.spans:
            if span["name"] in totals:
                totals[span["name"]] += span["dur"]
        return totals


def load_trace(path: str) -> TraceData:
    """Parse a trace JSONL file written by :class:`Tracer`.

    Raises ``ValueError`` on a missing/foreign header or an unsupported
    schema version; unknown record types are preserved nowhere (skipped)
    so newer traces degrade gracefully in older readers.
    """
    data = TraceData(path=str(path))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno + 1}: not JSONL ({exc})") from None
            kind = record.get("type")
            if lineno == 0:
                if kind != "meta":
                    raise ValueError(f"{path} is not a repro trace (no meta header)")
                if record.get("schema") != TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: unsupported trace schema {record.get('schema')!r} "
                        f"(this build reads version {TRACE_SCHEMA_VERSION})"
                    )
                data.meta = record
            elif kind == "span":
                data.spans.append(record)
            elif kind == "annotation":
                data.annotations.append(record)
            elif kind == "counter":
                data.metrics.counter(
                    record["name"], labels=record.get("labels")
                ).load_summary(record)
            elif kind == "gauge":
                data.metrics.gauge(
                    record["name"], labels=record.get("labels")
                ).load_summary(record)
            elif kind == "histogram":
                hist = data.metrics.histogram(
                    record["name"], bounds=record["bounds"], labels=record.get("labels")
                )
                hist.load_summary(record)
            elif kind == "end":
                data.elapsed = record.get("elapsed")
    if not data.meta:
        raise ValueError(f"{path} is empty — not a repro trace")
    return data


def merge_trace_metrics(traces: list[TraceData]) -> MetricsRegistry:
    """One registry over several traces (sweep workers, serving replicas).

    Counters and histograms sum exactly; gauges keep the last trace's
    value. :class:`Histogram` merging requires matching bucket bounds,
    which all same-name histograms produced by this package share.
    """
    merged = MetricsRegistry()
    for trace in traces:
        merged.merge(trace.metrics)
    return merged
