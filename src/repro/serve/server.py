"""Production micro-batching inference front end for pipeline artifacts.

Four layers, separable on purpose:

- :class:`MicroBatcher` — a single worker thread that batches
  continuously: an idle worker runs a request at once, and the requests
  that queue while a batch runs go out together as the next batch, one
  vectorized pipeline apply. N concurrent single-row ``/predict`` calls
  cost one compiled-plan execution and one model descent over an (N, d)
  matrix instead of N of each — the serving-side analogue of the
  search-side batching the paper leans on. ``max_wait_ms`` (default 0)
  optionally lingers on a batch's first request for followers, up to that
  ceiling. The admission queue is optionally bounded (``max_queue``):
  overflow raises :class:`QueueFullError` instead of letting latency grow
  without limit, per-request deadlines expire queued work that can no
  longer be answered in time, and :meth:`swap_artifact` atomically
  replaces the served artifact between batches (every batch runs
  entirely on one artifact snapshot — no mixed-version responses).
- :class:`ShadowRouter` — optional challenger artifact fed a best-effort
  async copy of live traffic; output mismatches increment a divergence
  counter instead of affecting responses.
- :class:`PipelineService` — the in-process client: ``transform``,
  ``predict`` and ``healthz`` against an artifact through the batcher,
  no sockets involved. Tests (and embedders) use this directly.
- :class:`InferenceServer` — a standard-library
  :class:`~http.server.ThreadingHTTPServer` exposing the service as JSON:
  ``POST /transform``, ``POST /predict``, ``GET /healthz``, ``GET /metrics``
  (Prometheus text format), and ``POST /admin/reload`` for zero-downtime
  hot swap of a registry tag. Each connection's thread parses its requests
  with the stdlib and waits in :meth:`MicroBatcher.wait_for`, the same wait
  in-process callers use.

Request/response shapes::

    POST /transform {"rows": [[...], ...]}  -> {"features": [[...], ...],
                                                "artifact_version": "..."}
    POST /predict   {"rows": [[...], ...]}  -> {"predictions": [...],
                                                "proba": [[...], ...]?,
                                                "artifact_version": "..."}
    GET  /healthz                           -> {"status": "ok", ...stats}
    GET  /metrics                           -> Prometheus exposition text
    POST /admin/reload                      -> {"swapped": bool, ...}

Error envelope: ``{"error": "..."}`` on every error response, with 400
(input rejected before it was queued), 404 (unknown path), 429 +
``Retry-After`` (admission queue full), 500 (the batch raised), 501
(``Transfer-Encoding`` or a method without a handler), 503 (batcher
stopped, or the connection cap reached), 504 (deadline expired) and the
stdlib parser's 414/431 for oversized request or header lines. A client
disconnecting mid-response is counted under the ``disconnect`` status
label and never kills a worker.

Observability: the batcher always records per-request latency, queue
wait (submit to batch claim) and per-batch latency histograms plus
batch-size distributions (an ``observe()`` is two dict lookups and a
bisect — noise next to a pipeline apply); ``/healthz`` reports their
p50/p99 and ``/metrics`` renders everything for scraping,
including ``serve_queue_depth``, ``serve_requests_shed_total``,
``serve_deadline_expired_total``, ``serve_reloads_total`` and the shadow
divergence counters. An opt-in access log (``access_log=``, CLI
``--access-log``) restores per-request lines.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.serve.artifact import PipelineArtifact

__all__ = [
    "DeadlineExceededError",
    "InferenceServer",
    "InvalidRequestError",
    "MicroBatcher",
    "PipelineService",
    "QueueFullError",
    "ServiceUnavailableError",
    "ShadowRouter",
]

# Upper bucket edges for batch-size distributions (requests and rows).
_BATCH_SIZE_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

# Classifiers whose ``predict`` is exactly ``classes_[argmax(predict_proba)]``:
# one ``predict_proba`` call (one forest descent) serves both outputs of a
# predict batch. Exact types only — a subclass may override ``predict``.
_PROBA_ARGMAX_MODELS = (
    RandomForestClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
)

# Waiter-side poll interval: bounds how long a client can block after the
# worker thread has died without an explicit wake-up (the worker normally
# sets the event; the poll is the liveness backstop). A request's deadline
# cuts the last poll short.
_WAIT_POLL_SECONDS = 0.05


class QueueFullError(RuntimeError):
    """The bounded admission queue rejected a request (HTTP 429)."""

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(RuntimeError):
    """A request's deadline passed before its batch ran (HTTP 504)."""


class ServiceUnavailableError(RuntimeError):
    """The batcher is stopped or its worker thread died (HTTP 503)."""


class InvalidRequestError(ValueError):
    """A request rejected before it was queued (HTTP 400)."""


def _artifact_version_label(artifact: PipelineArtifact) -> str:
    """Default serving version label: the saved content hash, if any."""
    short = getattr(artifact, "short_hash", None)
    return f"sha:{short}" if short else "unversioned"


class _Pending:
    """One enqueued request: rows in, slice of the batched result out."""

    __slots__ = (
        "kind",
        "rows",
        "event",
        "result",
        "error",
        "t_submit",
        "deadline",
        "cancelled",
        "served_by",
    )

    def __init__(self, kind: str, rows: np.ndarray, deadline: float | None = None) -> None:
        self.kind = kind
        self.rows = rows
        self.event = threading.Event()
        self.result: dict | None = None
        self.error: Exception | None = None
        self.t_submit = time.perf_counter()
        self.deadline = deadline  # absolute time.monotonic(), or None
        self.cancelled = False  # waiter gave up; worker skips the work
        self.served_by: str | None = None  # artifact version label


class MicroBatcher:
    """Coalesce concurrent requests into one vectorized apply.

    Batching is continuous: an idle worker claims whatever is queued at
    once, executes every pending request of each kind in a single
    pipeline call and fans the row slices back out; the requests that
    arrived meanwhile form the next batch. A positive ``max_wait_ms``
    (default 0) opts into lingering on a batch's first request for up to
    that long, until followers fill ``max_batch_rows``.
    ``max_batch_rows`` bounds a batch; overflow rolls into the next one.

    Admission control: ``max_queue`` (optional) bounds how many requests
    may wait; overflow raises :class:`QueueFullError` immediately instead
    of queueing unbounded latency. Requests may carry an absolute
    ``deadline`` (``time.monotonic()`` seconds): the worker drops expired
    requests with :class:`DeadlineExceededError` rather than spending a
    batch slot on an answer nobody is waiting for.

    Hot swap: :meth:`swap_artifact` atomically replaces the served
    artifact. The swap happens between batches — each batch snapshots
    ``(artifact, version)`` under the queue lock, so every response in a
    batch comes from exactly one artifact version.

    Robustness: the worker finishing a request (setting its event,
    recording metrics) can no longer be skipped by an exception mid-batch,
    and waiters poll worker liveness — if the worker thread dies, current
    and future submitters get a :class:`ServiceUnavailableError` instead
    of blocking forever. :meth:`close` fails still-queued requests the
    same way.
    """

    def __init__(
        self,
        artifact: PipelineArtifact,
        max_wait_ms: float = 0.0,
        max_batch_rows: int = 4096,
        metrics: MetricsRegistry | None = None,
        *,
        max_queue: int | None = None,
        version: str | None = None,
    ) -> None:
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self._artifact = artifact
        self._version = version if version is not None else _artifact_version_label(artifact)
        self.max_wait_ms = max_wait_ms
        self.max_batch_rows = max_batch_rows
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._req_latency = self.metrics.histogram(
            "serve_request_seconds", help="Per-request latency (submit to response)"
        )
        self._queue_wait = self.metrics.histogram(
            "serve_queue_wait_seconds",
            help="Per-request queue wait (submit to batch claim)",
        )
        self._batch_latency = self.metrics.histogram(
            "serve_batch_execute_seconds", help="Per-batch pipeline execution latency"
        )
        self._batch_requests = self.metrics.histogram(
            "serve_batch_requests",
            help="Requests coalesced per batch",
            bounds=_BATCH_SIZE_BOUNDS,
        )
        self._batch_rows = self.metrics.histogram(
            "serve_batch_rows", help="Rows per batch", bounds=_BATCH_SIZE_BOUNDS
        )
        self._queue_depth = self.metrics.gauge(
            "serve_queue_depth", help="Requests waiting in the admission queue"
        )
        self._shed = self.metrics.counter(
            "serve_requests_shed",
            help="Requests rejected because the admission queue was full",
        )
        self._deadline_expired = self.metrics.counter(
            "serve_deadline_expired",
            help="Requests dropped or abandoned past their deadline",
        )
        self._queue: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._stopped = False
        self.n_requests = 0
        self.n_batches = 0
        self.n_rows = 0
        self.max_batch_seen = 0
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    # -- client side -----------------------------------------------------------

    @property
    def artifact(self) -> PipelineArtifact:
        return self._artifact

    @property
    def version(self) -> str:
        return self._version

    def swap_artifact(self, artifact: PipelineArtifact, version: str | None = None) -> str:
        """Atomically replace the served artifact; returns the old version.

        The reference swaps under the queue lock, and the worker snapshots
        the pair at batch-claim time — in-flight batches finish on the old
        artifact, later batches run on the new one, never a mix.
        """
        with self._wake:
            previous = self._version
            self._artifact = artifact
            self._version = version if version is not None else _artifact_version_label(artifact)
        return previous

    def _retry_after(self) -> int:
        """Seconds a shed client should back off: queue drain time, ceil'd."""
        p99 = self._batch_latency.quantile(0.99)
        if p99 <= 0:
            return 1
        return max(1, min(60, math.ceil(p99 * (self.max_queue or 1))))

    def submit_nowait(
        self, kind: str, rows: np.ndarray, deadline: float | None = None
    ) -> _Pending:
        """Enqueue one request without blocking; returns its handle.

        Raises :class:`QueueFullError` when the bounded queue is at
        capacity and :class:`ServiceUnavailableError` when the batcher is
        stopped or its worker thread has died.
        """
        pending = _Pending(kind, rows, deadline=deadline)
        with self._wake:
            if self._stopped:
                raise ServiceUnavailableError("MicroBatcher is stopped")
            if not self._worker.is_alive():
                raise ServiceUnavailableError(
                    "MicroBatcher worker thread has died; restart the service"
                )
            if self.max_queue is not None and len(self._queue) >= self.max_queue:
                self._shed.inc()
                raise QueueFullError(
                    f"admission queue full ({self.max_queue} waiting requests)",
                    retry_after=self._retry_after(),
                )
            self._queue.append(pending)
            self.n_requests += 1
            self._queue_depth.set(len(self._queue))
            self._wake.notify()
        return pending

    def wait_for(self, pending: _Pending) -> dict:
        """Block until ``pending`` finishes; raise its error if it failed.

        Polls worker liveness so a dead worker raises
        :class:`ServiceUnavailableError` instead of hanging, and enforces
        the request deadline on the waiter side (the worker may be
        mid-batch and unable to check): the wait returns by the deadline,
        not up to a poll interval after it.
        """
        while True:
            timeout = _WAIT_POLL_SECONDS
            if pending.deadline is not None:
                timeout = max(0.0, min(timeout, pending.deadline - time.monotonic()))
            if pending.event.wait(timeout=timeout):
                break
            if pending.deadline is not None and time.monotonic() >= pending.deadline:
                self.abandon(pending)
                raise DeadlineExceededError(
                    f"deadline expired after {time.perf_counter() - pending.t_submit:.3f}s"
                )
            if not self._worker.is_alive():
                # Re-check after observing death: the dying worker's rescue
                # pass may have finished this pending between our wait and
                # the liveness read.
                if pending.event.wait(timeout=_WAIT_POLL_SECONDS):
                    break
                raise ServiceUnavailableError(
                    "MicroBatcher worker thread died while the request was queued"
                )
        if pending.error is not None:
            raise pending.error
        return pending.result

    def submit(self, kind: str, rows: np.ndarray, deadline: float | None = None) -> dict:
        """Enqueue one request and block until its batch has run."""
        return self.wait_for(self.submit_nowait(kind, rows, deadline=deadline))

    def abandon(self, pending: _Pending) -> None:
        """Waiter gave up (deadline): mark so the worker skips the work."""
        pending.cancelled = True
        self._deadline_expired.inc()

    def close(self) -> None:
        with self._wake:
            self._stopped = True
            self._wake.notify_all()
        self._worker.join(timeout=5.0)
        # The worker's own shutdown path rescues the queue; this second
        # pass covers a worker that was already dead (or failed to exit
        # within the join timeout) so no pending is left waiting.
        self._fail_queued("MicroBatcher is stopped")

    def stats(self) -> dict:
        with self._lock:
            out = {
                "requests": self.n_requests,
                "batches": self.n_batches,
                "rows": self.n_rows,
                "max_batch_requests": self.max_batch_seen,
                "queue_depth": len(self._queue),
                "max_queue": self.max_queue,
                "version": self._version,
            }
        out["shed"] = int(self._shed.value)
        out["deadline_expired"] = int(self._deadline_expired.value)
        # Latency/batch-shape quantiles from the always-on histograms
        # (outside the queue lock: histograms carry their own locks).
        out["request_latency_p50"] = round(self._req_latency.quantile(0.5), 6)
        out["request_latency_p99"] = round(self._req_latency.quantile(0.99), 6)
        out["queue_wait_p50"] = round(self._queue_wait.quantile(0.5), 6)
        out["queue_wait_p99"] = round(self._queue_wait.quantile(0.99), 6)
        out["batch_requests_p50"] = round(self._batch_requests.quantile(0.5), 2)
        out["batch_requests_p99"] = round(self._batch_requests.quantile(0.99), 2)
        out["batch_rows_p50"] = round(self._batch_rows.quantile(0.5), 2)
        out["batch_rows_p99"] = round(self._batch_rows.quantile(0.99), 2)
        return out

    # -- worker side -----------------------------------------------------------

    def _finish(self, pending: _Pending) -> None:
        """Complete one request: metrics, then wake the waiter.

        Exception-safe by construction — ``event.set()`` runs in a
        ``finally`` so a raising histogram can never strand the waiter
        (the pre-rebuild hang bug).
        """
        if pending.event.is_set():
            return
        try:
            self._req_latency.observe(time.perf_counter() - pending.t_submit)
            self.metrics.counter("serve_requests", labels={"kind": pending.kind}).inc()
            if pending.error is not None:
                self.metrics.counter(
                    "serve_request_errors", labels={"kind": pending.kind}
                ).inc()
        finally:
            pending.event.set()

    def _fail_queued(self, message: str) -> None:
        with self._wake:
            leftovers = list(self._queue)
            self._queue.clear()
            self._queue_depth.set(0)
        for pending in leftovers:
            pending.error = ServiceUnavailableError(message)
            self._finish(pending)

    def _drain(self):
        """Wait for work, linger up to ``max_wait_ms`` (0: not at all) for
        followers, take a batch.

        Returns ``(batch, artifact, version)`` — the artifact pair is
        snapshotted under the lock so the whole batch runs on one version
        even if :meth:`swap_artifact` lands mid-execution.
        """
        dropped: list[_Pending] = []
        with self._wake:
            while not self._queue and not self._stopped:
                self._wake.wait()
            if self._stopped:
                return [], None, None
            if self._queue and self.max_wait_ms > 0:
                # Linger on the condition — each follower's notify re-checks
                # the row cap, so a full batch departs immediately and an
                # idle window costs no wakeups.
                deadline = time.monotonic() + self.max_wait_ms / 1000.0
                while not self._stopped:
                    if sum(len(p.rows) for p in self._queue) >= self.max_batch_rows:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wake.wait(timeout=remaining)
            batch: list[_Pending] = []
            rows = 0
            now = time.monotonic()
            claimed_at = time.perf_counter()
            while self._queue and rows < self.max_batch_rows:
                pending = self._queue.popleft()
                if pending.cancelled:
                    # Waiter already raised; nothing to compute or report.
                    dropped.append(pending)
                    continue
                if pending.deadline is not None and pending.deadline <= now:
                    pending.error = DeadlineExceededError(
                        "deadline expired while queued"
                    )
                    self._deadline_expired.inc()
                    dropped.append(pending)
                    continue
                batch.append(pending)
                rows += len(pending.rows)
            if batch:
                self.n_batches += 1
                self.n_rows += rows
                self.max_batch_seen = max(self.max_batch_seen, len(batch))
            self._queue_depth.set(len(self._queue))
            artifact, version = self._artifact, self._version
        for pending in dropped:
            if pending.error is None:
                pending.error = DeadlineExceededError("request abandoned past its deadline")
            self._finish(pending)
        if batch:
            for pending in batch:
                self._queue_wait.observe(claimed_at - pending.t_submit)
            self._batch_requests.observe(len(batch))
            self._batch_rows.observe(rows)
        return batch, artifact, version

    def _execute(
        self,
        kind: str,
        group: list[_Pending],
        artifact: PipelineArtifact,
        version: str,
    ) -> None:
        """One vectorized pipeline call for every request of ``kind``."""
        stacked = np.vstack([p.rows for p in group])
        features = artifact.transform(stacked)
        predictions = proba = None
        if kind == "predict":
            model = artifact.model
            if model is None:
                raise RuntimeError("Artifact carries no downstream model")
            if type(model) in _PROBA_ARGMAX_MODELS:
                proba = model.predict_proba(features)
                predictions = model.classes_[np.argmax(proba, axis=1)]
            else:
                predictions = model.predict(features)
                proba = (
                    model.predict_proba(features)
                    if hasattr(model, "predict_proba")
                    else None
                )
        offset = 0
        for p in group:
            stop = offset + len(p.rows)
            if kind == "transform":
                p.result = {"features": features[offset:stop]}
            else:
                p.result = {"predictions": predictions[offset:stop]}
                if proba is not None:
                    p.result["proba"] = proba[offset:stop]
            p.served_by = version
            offset = stop

    def _run_batch(
        self,
        batch: list[_Pending],
        artifact: PipelineArtifact,
        version: str,
    ) -> None:
        try:
            for kind in ("transform", "predict"):
                group = [p for p in batch if p.kind == kind]
                if not group:
                    continue
                t0 = time.perf_counter()
                try:
                    self._execute(kind, group, artifact, version)
                except Exception as exc:  # surface per-request, keep serving
                    for p in group:
                        p.error = exc
                        p.served_by = version
                self._batch_latency.observe(time.perf_counter() - t0)
        finally:
            # Every claimed request finishes, whatever happened above — a
            # raising metrics hook must not strand a waiter.
            for p in batch:
                self._finish(p)

    def _loop(self) -> None:
        batch: list[_Pending] = []
        try:
            while True:
                batch, artifact, version = self._drain()
                if not batch:
                    if self._stopped:
                        return
                    continue
                self._run_batch(batch, artifact, version)
                batch = []
        finally:
            # Orderly stop or crash: no claimed or queued request may be
            # left waiting on an event nobody will ever set.
            message = (
                "MicroBatcher is stopped"
                if self._stopped
                else "MicroBatcher worker thread died"
            )
            for p in batch:
                if not p.event.is_set():
                    p.error = ServiceUnavailableError(message)
                    self._finish(p)
            self._fail_queued(message)


class ShadowRouter:
    """Mirror live traffic onto a challenger artifact, off the hot path.

    ``offer`` enqueues (rows, primary result) pairs into a bounded buffer
    consumed by a single daemon thread; when the buffer is full the pair
    is dropped (and counted) rather than slowing the live request. The
    worker re-runs the challenger and compares outputs exactly
    (``np.array_equal``), incrementing ``serve_shadow_divergence`` per
    mismatching request.
    """

    def __init__(
        self,
        artifact: PipelineArtifact,
        version: str | None = None,
        metrics: MetricsRegistry | None = None,
        max_pending: int = 256,
    ) -> None:
        self.artifact = artifact
        self.version = version if version is not None else _artifact_version_label(artifact)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_pending = max_pending
        self.n_requests = 0
        self.n_divergences = 0
        self.n_dropped = 0
        self.n_errors = 0
        self._queue: deque[tuple] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._stopped = False
        self._busy = False
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    def offer(self, kind: str, rows: np.ndarray, primary: dict) -> bool:
        """Queue one mirrored request; returns False when shed."""
        with self._wake:
            if self._stopped:
                return False
            if len(self._queue) >= self.max_pending:
                self.n_dropped += 1
                self.metrics.counter(
                    "serve_shadow_dropped",
                    help="Shadow comparisons shed because the mirror queue was full",
                ).inc()
                return False
            self._queue.append((kind, rows, primary))
            self._wake.notify()
        return True

    def _compare(self, kind: str, rows: np.ndarray, primary: dict) -> None:
        features = self.artifact.transform(rows)
        if kind == "transform":
            diverged = not np.array_equal(features, primary["features"])
        else:
            model = self.artifact.model
            if model is None:
                raise RuntimeError("shadow artifact carries no downstream model")
            predictions = model.predict(features)
            diverged = not np.array_equal(predictions, primary["predictions"])
        self.n_requests += 1
        self.metrics.counter(
            "serve_shadow_requests",
            help="Live requests mirrored to the shadow artifact",
            labels={"kind": kind},
        ).inc()
        if diverged:
            self.n_divergences += 1
            self.metrics.counter(
                "serve_shadow_divergence",
                help="Mirrored requests whose shadow output differed",
                labels={"kind": kind},
            ).inc()

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stopped:
                    self._wake.wait()
                if self._stopped and not self._queue:
                    return
                kind, rows, primary = self._queue.popleft()
                self._busy = True
            try:
                self._compare(kind, rows, primary)
            except Exception:
                self.n_errors += 1
                self.metrics.counter(
                    "serve_shadow_errors", help="Shadow comparisons that raised"
                ).inc()
            finally:
                with self._wake:
                    self._busy = False
                    self._wake.notify_all()

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until the mirror queue is idle (tests); False on timeout."""
        deadline = time.monotonic() + timeout
        with self._wake:
            while self._queue or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wake.wait(timeout=remaining)
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "version": self.version,
                "pending": len(self._queue),
                "requests": self.n_requests,
                "divergences": self.n_divergences,
                "dropped": self.n_dropped,
                "errors": self.n_errors,
            }

    def close(self) -> None:
        with self._wake:
            self._stopped = True
            self._wake.notify_all()
        self._worker.join(timeout=5.0)


class PipelineService:
    """In-process client: artifact + micro-batcher, no sockets.

    This is the object the HTTP handler delegates to, so in-process tests
    exercise exactly the code the server runs. ``deadline_ms`` sets a
    default per-request deadline; ``max_queue`` bounds admission;
    ``shadow_artifact`` mirrors traffic onto a challenger through a
    :class:`ShadowRouter`.
    """

    def __init__(
        self,
        artifact: PipelineArtifact,
        max_wait_ms: float = 0.0,
        max_batch_rows: int = 4096,
        *,
        max_queue: int | None = None,
        deadline_ms: float | None = None,
        version: str | None = None,
        shadow_artifact: PipelineArtifact | None = None,
        shadow_version: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        self.batcher = MicroBatcher(
            artifact,
            max_wait_ms=max_wait_ms,
            max_batch_rows=max_batch_rows,
            metrics=metrics,
            max_queue=max_queue,
            version=version,
        )
        self.deadline_ms = deadline_ms
        self.shadow: ShadowRouter | None = None
        if shadow_artifact is not None:
            self.shadow = ShadowRouter(
                shadow_artifact, version=shadow_version, metrics=self.batcher.metrics
            )
        self._started = time.monotonic()

    @property
    def artifact(self) -> PipelineArtifact:
        return self.batcher.artifact

    @property
    def version(self) -> str:
        return self.batcher.version

    @property
    def metrics(self) -> MetricsRegistry:
        """The serving metrics registry (rendered by ``GET /metrics``)."""
        return self.batcher.metrics

    def _rows(self, rows) -> np.ndarray:
        try:
            arr = np.asarray(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRequestError(f"rows must be numeric: {exc}") from None
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.artifact.plan.n_input_columns:
            raise InvalidRequestError(
                f"rows must be (n, {self.artifact.plan.n_input_columns}); "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            # Non-finite inputs would be imputed with *batch* column medians
            # by the final sanitization pass, making a response depend on
            # which requests it was coalesced with; rejecting them keeps
            # micro-batching exact (every op output is already finite).
            raise InvalidRequestError("rows must be finite numbers")
        return arr

    def resolve_deadline(self, deadline_ms: float | None = None) -> float | None:
        """Per-request override or service default, as absolute monotonic."""
        ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        if ms is None:
            return None
        if not ms > 0:
            raise InvalidRequestError("deadline_ms must be > 0")
        return time.monotonic() + ms / 1000.0

    def submit_nowait(self, kind: str, rows, deadline: float | None = None) -> _Pending:
        """Validate and enqueue without blocking; ``batcher.wait_for`` waits.

        Raises :class:`InvalidRequestError` for rows of the wrong shape or
        with non-finite values, and for a predict against an artifact that
        carries no model.
        """
        arr = self._rows(rows)
        if kind == "predict" and self.artifact.model is None:
            raise InvalidRequestError("artifact carries no downstream model")
        return self.batcher.submit_nowait(kind, arr, deadline=deadline)

    def shadow_offer(self, kind: str, rows: np.ndarray, result: dict) -> None:
        if self.shadow is not None and result is not None:
            self.shadow.offer(kind, rows, result)

    def _call(self, kind: str, rows, deadline_ms: float | None = None) -> _Pending:
        """The one submit-and-wait path, for in-process and HTTP callers:
        validate, enqueue, wait for the batch, mirror to the shadow."""
        pending = self.submit_nowait(kind, rows, deadline=self.resolve_deadline(deadline_ms))
        result = self.batcher.wait_for(pending)
        self.shadow_offer(kind, pending.rows, result)
        return pending

    def transform(self, rows) -> np.ndarray:
        return self._call("transform", rows).result["features"]

    def predict(self, rows) -> dict:
        """Returns ``{"predictions": ndarray, "proba": ndarray?}``."""
        return self._call("predict", rows).result

    def reload(self, artifact: PipelineArtifact, version: str | None = None) -> str:
        """Hot-swap the served artifact; returns the previous version.

        Rejects artifacts with a different input width — a swap must never
        turn valid in-flight request shapes into 400s.
        """
        current = self.batcher.artifact
        if artifact.plan.n_input_columns != current.plan.n_input_columns:
            raise ValueError(
                f"cannot hot-swap: new artifact expects "
                f"{artifact.plan.n_input_columns} input columns, "
                f"serving expects {current.plan.n_input_columns}"
            )
        previous = self.batcher.swap_artifact(artifact, version=version)
        self.metrics.counter(
            "serve_reloads", help="Successful artifact hot swaps"
        ).inc()
        return previous

    def healthz(self) -> dict:
        out = {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "version": self.version,
            "artifact": self.artifact.summary(),
            "batcher": self.batcher.stats(),
            "admission": {
                "max_queue": self.batcher.max_queue,
                "deadline_ms": self.deadline_ms,
                "shed": int(self.batcher._shed.value),
            },
        }
        if self.shadow is not None:
            out["shadow"] = self.shadow.stats()
        return out

    def close(self) -> None:
        self.batcher.close()
        if self.shadow is not None:
            self.shadow.close()


# Paths with their own metric label; everything else is clamped to
# "other" so a scanner cannot explode label cardinality.
_KNOWN_PATHS = ("/transform", "/predict", "/healthz", "/metrics", "/admin/reload")

_MAX_BODY_BYTES = 64 * 1024 * 1024
# Seconds one socket read or write may block: a client that stalls mid
# request, or sits idle on a keep-alive connection, is then disconnected.
_IDLE_TIMEOUT_SECONDS = 30.0
# Open connections, each holding a handler thread; the next one is
# answered 503 and closed without starting a thread.
_MAX_CONNECTIONS = 256
# Listen backlog: load tests open dozens of connections at once.
_BACKLOG = 128
# How often the accept loop checks for shutdown; stop() waits up to this.
_SHUTDOWN_POLL_SECONDS = 0.02
# How long stop() lets in-flight requests finish before it closes the
# service under them.
_DRAIN_SECONDS = 5.0


def _http_response(status: int, body: bytes, content_type: str, headers=()) -> bytes:
    """Status line, headers and body as one buffer, for a single write:
    a body sent behind a separate header write waits on a delayed ACK."""
    head = [
        f"HTTP/1.1 {status} {BaseHTTPRequestHandler.responses[status][0]}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in headers),
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class _Handler(BaseHTTPRequestHandler):
    """One connection: the stdlib parses each request, the handler answers
    it through the server's :class:`PipelineService` and blocks in
    :meth:`MicroBatcher.wait_for` while the request's batch runs."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _IDLE_TIMEOUT_SECONDS  # read per connection: tests shorten it
        super().setup()

    def handle(self) -> None:
        try:
            super().handle()
        except OSError:
            pass  # reset while idle or reading: close without a traceback

    def log_message(self, format, *args) -> None:
        pass  # the stdlib logs every error to stderr; access_log is opt-in

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own rejections (request line, headers, method
        without a handler) in the JSON envelope; the connection closes."""
        code = int(code)
        self.close_connection = True
        path = self.path.partition("?")[0] if self.command else "other"
        self._send_json(code, {"error": message or self.responses[code][0]}, path)

    def _route(self) -> None:
        # Strip the query string before routing *and* counting.
        path = self.path.partition("?")[0]
        body = self._read_body(path)
        if body is None:  # answered, or the client left: framing is lost
            self.close_connection = True
            return
        server = self.server
        if self.command == "GET" and path == "/healthz":
            payload = {**server.service.healthz(), "requests_served": server.requests_served}
            self._send_json(200, payload, path)
        elif self.command == "GET" and path == "/metrics":
            text = server.service.metrics.render_prometheus()
            self._send(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, path)
        elif self.command == "POST" and path in ("/transform", "/predict"):
            self._inference(path, body)
        elif self.command == "POST" and path == "/admin/reload":
            self._reload(path)
        else:
            self._send_json(404, {"error": f"unknown path {path}"}, path)
        server._note_request_served()

    do_GET = do_POST = _route

    def _read_body(self, path: str) -> bytes | None:
        """The request body; None once the request was answered or the
        client left."""
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length framing is read; a chunked body left
            # unread would be parsed as the next request.
            self._send_json(501, {"error": "Transfer-Encoding is not supported"}, path)
            return None
        lengths = {value.strip() for value in self.headers.get_all("Content-Length", ())}
        if len(lengths) > 1:
            self._send_json(400, {"error": "conflicting Content-Length headers"}, path)
            return None
        if not lengths:
            return b""
        text = lengths.pop()
        # ASCII digits only (int() also takes "+100" and "1_0_0"), and few
        # enough that int() takes them (it refuses over 4300 digits).
        length = int(text) if text.isascii() and text.isdigit() and len(text) < 20 else -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            self._send_json(400, {"error": f"invalid Content-Length {text!r}"}, path)
            return None
        body = self.rfile.read(length)
        if len(body) < length:  # the client closed mid-body
            self.server._count_disconnect(path)
            return None
        return body

    def _inference(self, path: str, body: bytes) -> None:
        try:
            rows = json.loads(body or b"{}")["rows"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            self._send_json(400, {"error": f"bad request body: {exc}"}, path)
            return
        deadline_ms = None
        header = self.headers.get("X-Deadline-Ms")
        if header:
            try:
                deadline_ms = float(header)
                if not deadline_ms > 0:
                    raise ValueError
            except ValueError:
                self._send_json(400, {"error": f"invalid X-Deadline-Ms: {header!r}"}, path)
                return
        kind = path[1:]
        headers = ()
        try:
            pending = self.server.service._call(kind, rows, deadline_ms)
        except InvalidRequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except QueueFullError as exc:
            status, payload = 429, {"error": str(exc), "retry_after": exc.retry_after}
            headers = (("Retry-After", str(exc.retry_after)),)
        except DeadlineExceededError as exc:
            status, payload = 504, {"error": str(exc)}
        except ServiceUnavailableError as exc:
            status, payload = 503, {"error": str(exc)}
        except Exception as exc:  # raised while the batch ran: a server fault
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        else:
            result = pending.result
            if kind == "transform":
                payload = {"features": result["features"].tolist()}
            else:
                payload = {"predictions": result["predictions"].tolist()}
                if "proba" in result:
                    payload["proba"] = result["proba"].tolist()
            payload["artifact_version"] = pending.served_by
            status = 200
        self._send_json(status, payload, path, headers)

    def _reload(self, path: str) -> None:
        server = self.server
        if server._reload_source is None:
            error = "reload not configured; serve with --registry and --reload"
            self._send_json(400, {"error": error}, path)
            return
        try:
            status, payload = 200, server._reload()
        except ValueError as exc:  # incompatible artifact shape
            status, payload = 409, {"error": str(exc)}
        except Exception as exc:
            status, payload = 500, {"error": f"reload failed: {type(exc).__name__}: {exc}"}
        self._send_json(status, payload, path)

    def _send_json(self, status: int, payload: dict, path: str, headers=()) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json", path, headers)

    def _send(self, status: int, body: bytes, content_type: str, path: str, headers=()) -> None:
        """Write one response, counted before its bytes leave: a client that
        reads it and then scrapes ``/metrics`` must find it counted. A write
        the client's reset fails is counted under ``disconnect`` as well."""
        server = self.server
        server._count_response(path, status)
        try:
            self.wfile.write(_http_response(status, body, content_type, headers))
        except OSError:
            self.close_connection = True
            server._count_disconnect(path)
            status = "disconnect"
        server._log_access(self.client_address[0], self.requestline, status)


class InferenceServer(ThreadingHTTPServer):
    """Threaded HTTP/1.1 front of a :class:`PipelineService`.

    ::

        server = InferenceServer(artifact, port=0)   # 0 = ephemeral port
        server.start()                               # background thread
        ... requests against server.url ...
        server.stop()

    The listening socket is bound in ``__init__`` (so ``.url`` is valid
    before serving starts). The accept loop hands each connection to its
    own thread, which parses requests with the standard library and blocks
    in :meth:`MicroBatcher.wait_for` while its batch runs; slow pipelines
    never block accepting connections. A connection idle or stalled for
    ``_IDLE_TIMEOUT_SECONDS`` is closed, and one past ``_MAX_CONNECTIONS``
    open connections is answered 503.

    ``max_requests`` (optional) shuts the server down after that many
    requests have been answered — the hook ``repro serve --max-requests``
    and the tests use for bounded runs. Also usable as a context manager
    and blocking via :meth:`serve_forever`. :meth:`stop` lets in-flight
    requests finish, closes idle keep-alive connections, then closes the
    service; it is safe before :meth:`start` and when repeated.

    ``access_log`` opts into per-request log lines (CLI ``--access-log``):
    ``True`` logs to stderr, or pass any text stream.

    Production knobs: ``max_queue`` bounds admission (overflow answers
    429 + ``Retry-After``), ``deadline_ms`` sets a default per-request
    deadline (expired answers 504; clients override per request with an
    ``X-Deadline-Ms`` header), ``reload_source`` — a zero-arg callable
    returning ``(artifact, version)`` — enables ``POST /admin/reload``
    hot swap, and ``shadow_artifact`` mirrors traffic to a challenger.
    """

    request_queue_size = _BACKLOG

    def __init__(
        self,
        artifact: PipelineArtifact,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_wait_ms: float = 0.0,
        max_batch_rows: int = 4096,
        max_requests: int | None = None,
        access_log=None,
        *,
        max_queue: int | None = None,
        deadline_ms: float | None = None,
        version: str | None = None,
        reload_source=None,
        shadow_artifact: PipelineArtifact | None = None,
        shadow_version: str | None = None,
    ) -> None:
        self.service = PipelineService(
            artifact,
            max_wait_ms=max_wait_ms,
            max_batch_rows=max_batch_rows,
            max_queue=max_queue,
            deadline_ms=deadline_ms,
            version=version,
            shadow_artifact=shadow_artifact,
            shadow_version=shadow_version,
        )
        self.max_requests = max_requests
        self.access_log = sys.stderr if access_log is True else (access_log or None)
        self._reload_source = reload_source
        self._reload_lock = threading.Lock()
        self._served = 0
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._connections: set[socket.socket] = set()
        self._done = threading.Event()
        self._serving = False
        self._stopping = False
        self._cleaned = False
        self._thread: threading.Thread | None = None
        try:
            # Bind eagerly: `.url` must work before start() (the CLI writes
            # --url-file between construction and serve_forever()).
            super().__init__((host, port), _Handler)
        except OSError:
            self.service.close()  # a taken port must not leak its threads
            raise

    # -- public surface --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def requests_served(self) -> int:
        with self._lock:
            return self._served

    def start(self) -> "InferenceServer":
        """Serve on a background thread; returns self (already listening)."""
        if self._thread is not None:
            raise RuntimeError("Server already started")
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (until stop(), Ctrl-C, or max_requests)."""
        with self._lock:
            self._serving = not self._stopping
        try:
            if self._serving:
                super().serve_forever(poll_interval=_SHUTDOWN_POLL_SECONDS)
        except KeyboardInterrupt:
            pass
        finally:
            self._cleanup()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a ``max_requests`` shutdown has triggered."""
        return self._done.wait(timeout)

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            serving = self._serving
        if serving:  # shutdown() would block forever without a serve loop
            self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._cleanup()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connections -----------------------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._lock:
            admitted = len(self._connections) < _MAX_CONNECTIONS
            if admitted:
                self._connections.add(request)
        if admitted:
            super().process_request(request, client_address)
            return
        self._count_response("other", 503)
        error = json.dumps({"error": f"connection limit ({_MAX_CONNECTIONS}) reached"})
        try:
            request.sendall(_http_response(503, error.encode(), "application/json"))
        except OSError:
            pass
        self.shutdown_request(request)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._lock:
            self._connections.discard(request)
            self._drained.notify_all()

    def _cleanup(self) -> None:
        # Runs from the serving thread (max_requests, Ctrl-C) and from
        # stop(); the first call does the work.
        with self._lock:
            if self._cleaned:
                return
            self._cleaned = True
            # Idle keep-alive readers see EOF; a response being computed
            # still goes out on the open write side.
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._drained.wait_for(lambda: not self._connections, timeout=_DRAIN_SECONDS)
        self.server_close()
        self.service.close()

    def _note_request_served(self) -> None:
        with self._lock:
            self._served += 1
            done = self.max_requests is not None and self._served >= self.max_requests
        if done:
            self._done.set()
            self.shutdown()  # from a handler thread, so the serve loop is running

    # -- response plumbing -----------------------------------------------------

    def _count_response(self, path: str, status) -> None:
        # Label values are strings: the registry sorts a path's series by
        # label, and an int beside "disconnect" cannot be sorted.
        label = path if path in _KNOWN_PATHS else "other"
        self.service.metrics.counter(
            "serve_http_responses", labels={"path": label, "status": str(status)}
        ).inc()

    def _count_disconnect(self, path: str) -> None:
        self.service.metrics.counter(
            "serve_client_disconnects",
            help="Clients that disconnected before their response was written",
        ).inc()
        self._count_response(path, "disconnect")

    def _log_access(self, client: str, requestline: str, status) -> None:
        stream = self.access_log
        if stream is None:  # quiet by default
            return
        stamp = time.strftime("%d/%b/%Y %H:%M:%S")
        stream.write(f'{client} - - [{stamp}] "{requestline}" {status} -\n')
        stream.flush()

    def _reload(self) -> dict:
        # Serialized: two concurrent POSTs must not interleave
        # resolve/load/swap.
        with self._reload_lock:
            artifact, version = self._reload_source()
            previous = self.service.version
            if version is not None and version == previous:
                return {"swapped": False, "version": previous, "previous": previous}
            previous = self.service.reload(artifact, version=version)
            return {"swapped": True, "version": self.service.version, "previous": previous}
