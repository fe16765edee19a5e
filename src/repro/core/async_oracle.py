"""Asynchronous downstream oracle: overlap real evaluation with search.

The paper replaces most downstream evaluations with the predictor φ, but
the evaluations that *do* trigger still block the step loop: a step's
Table II cost is optimization + estimation + evaluation in sequence. The
:class:`AsyncOracle` decouples the oracle from the step machine — triggered
evaluations are submitted to a pool of persistent worker processes while
:class:`~repro.core.session.SearchSession` keeps advancing on φ estimates,
and the real scores land at pinned reconcile points. With enough workers,
s/episode approaches max(buckets) instead of their sum.

Determinism contract
--------------------
Worker timing never touches the trajectory. Submissions are resolved in
submission order, and the session only consumes them at schedule-pinned
reconcile points (every ``reconcile_every_k`` global steps, episode end,
``result()``, ``checkpoint()``). Scores are exact — the workers run the
same :class:`~repro.ml.evaluation.DownstreamEvaluator` — so a pooled run
is bit-identical to the *inline reference arm* (``n_workers=0``), which
evaluates the same deferred queue serially at each reconcile point. That
inline arm is the definition of ``oracle_mode="async"`` semantics and is
what the async golden digests pin.

Failure contract
----------------
A submission that crashes, or exceeds ``timeout`` seconds, is retried at
most ``retries`` times; past that it *degrades*: the outcome comes back
``ok=False`` with a :class:`RuntimeWarning`, and the session keeps the
predictor-estimated score for that step. A hung or dead worker is
terminated and replaced, and its tickets move to the live workers: the one
it was running spends an attempt, the ones still queued behind it are
re-sent as they are. Drain never deadlocks on a dead worker, busy or idle.

Cache discipline (PR 4)
-----------------------
A :class:`~repro.ml.cache.CachedEvaluator` front is honored on both arms,
in the parent only: the content-signature cache is consulted at
submission time and updated when real scores land. Workers run the raw
evaluator and hold no cache. Cache hits can shrink ``n_downstream_calls``
— never change scores.

Workers are plain processes started the :mod:`repro.procs` way (``fork``
where available, else ``spawn``). Each has its own task queue and its own
result pipe, and no other process reads or writes either, so a worker
killed at any instruction can wedge nothing but its own channels, which
are discarded with it. Discarding a queue reads its pipe until the
queue's feeder thread has written out the tickets it still held, so a
dead worker leaves no thread blocked on a full pipe. A ticket goes to the
live worker with the fewest unresolved tickets (the lowest id on ties).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import procs
from repro.ml.cache import CachedEvaluator

__all__ = ["AsyncOracle", "EvalOutcome"]

# How often the drain loop wakes to check worker health while waiting.
_POLL_SECONDS = 0.05
# How long retiring a worker may read its task pipe for the feeder thread.
_FEEDER_DRAIN_SECONDS = 5.0


@dataclass
class EvalOutcome:
    """One resolved submission, in submission order.

    ``ok=False`` means the evaluation degraded (crash/timeout past the
    retry budget): ``score`` is ``None`` and the caller should keep its
    predictor-estimated score for that step.
    """

    ticket: int
    score: float | None
    ok: bool
    n_calls: int = 0
    attempts: int = 1
    error: str | None = None


def _worker_loop(evaluator, y, tasks, results):
    """Persistent worker: take a ticket, evaluate, report.

    The claim message lets the parent enforce per-submission deadlines
    (it knows *when* each ticket actually started); evaluator exceptions
    are reported rather than raised so the process survives for the next
    task. ``None`` is the shutdown pill.

    ``tasks`` (a queue) and ``results`` (a pipe connection) belong to this
    worker alone, and that is load-bearing. A ``multiprocessing.Queue``
    reader holds the queue's read lock while it waits, so a worker
    hard-killed while idle (``os._exit``, SIGKILL, the OOM killer) leaves
    that lock held for good: on a task queue shared with its siblings, none
    of them could take another ticket. ``Connection.send`` writes in the
    calling thread (no feeder thread) and our messages are far below the
    atomic-pipe-write size, so a dead worker's pipe holds whole messages,
    then EOF.
    """
    while True:
        item = tasks.get()
        if item is None:
            return
        ticket, X = item
        results.send(("start", ticket, None))
        try:
            before = getattr(evaluator, "n_calls", None)
            score = float(evaluator(X, y))
            n_new = 1 if before is None else max(0, evaluator.n_calls - before)
            results.send(("done", ticket, (score, n_new)))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            results.send(("fail", ticket, repr(exc)))


@dataclass(eq=False)
class _Worker:
    """The parent's side of one worker: its process and its two channels.

    ``tickets`` were sent to this worker and have not resolved, oldest
    first. The worker runs them in that order, so ``claim`` (the ticket it
    reported starting, and when the parent read that) is their first.
    """

    wid: int
    process: multiprocessing.Process
    tasks: multiprocessing.queues.Queue
    results: mp_connection.Connection
    tickets: list[int] = field(default_factory=list)
    claim: tuple[int, float] | None = None

    def close_channels(self) -> None:
        self.results.close()
        feeder = self.tasks._thread
        if feeder is None:  # nothing was ever sent
            self.tasks.close()
            return
        # Closing queues a stop marker behind the unsent tickets; the
        # queue's feeder thread (in this process) writes those into the
        # pipe first and then closes the read end. With the worker gone, a
        # full pipe would block it for good, holding the matrices, so this
        # process reads the pipe itself, through a duplicate of the read
        # end taken before the thread can close it, until the thread ends.
        fd = os.dup(self.tasks._reader.fileno())
        self.tasks.close()
        _drain_until_ended(fd, feeder)
        # Never wait for it at exit, should the drain have timed out.
        self.tasks.cancel_join_thread()


def _drain_until_ended(fd: int, feeder) -> None:
    """Read and drop a queue pipe's bytes from ``fd`` until its feeder
    thread ends, then close ``fd``.

    Forked siblings hold copies of the write end, so the pipe never
    reports EOF: every read waits for data first, and the drain gives up
    after ``_FEEDER_DRAIN_SECONDS``. Raw reads keep working when the dead
    worker left half a message behind, and they need no read lock (a
    worker killed inside ``get`` keeps the queue's for good).
    """
    try:
        deadline = time.monotonic() + _FEEDER_DRAIN_SECONDS
        while feeder.is_alive() and time.monotonic() < deadline:
            if mp_connection.wait([fd], _POLL_SECONDS):
                os.read(fd, 1 << 16)
    finally:
        os.close(fd)


class AsyncOracle:
    """Submit/drain front over a pool of evaluator worker processes.

    Parameters
    ----------
    evaluator:
        The downstream oracle (optionally a
        :class:`~repro.ml.cache.CachedEvaluator`; the cache front is
        unwrapped and honored on the parent side).
    y:
        The target vector every submission is evaluated against.
    n_workers:
        Pool size. ``0`` selects the inline reference arm (deferred
        submissions evaluated serially at drain — the determinism
        baseline); ``-1`` means all cores. An unpicklable evaluator also
        falls back to inline, with a :class:`RuntimeWarning`.
    timeout:
        Per-attempt deadline in seconds (``None`` = no deadline; crashed
        workers are still detected and retried).
    retries:
        How many times a crashed/timed-out submission is re-queued before
        degrading to ``ok=False``.
    """

    def __init__(
        self,
        evaluator,
        y: np.ndarray,
        n_workers: int = 2,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        self._y = np.asarray(y)
        self._timeout = timeout
        self._retries = int(retries)
        self._pending: dict[int, dict] = {}
        self._next_ticket = 0
        # Live workers by id; ids only grow, so iteration order is id order.
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._ctx = None
        # Observability (repro.obs): a parent-side tracer records queue
        # telemetry — submit/land latencies, queue depth, per-worker
        # utilization, degradations. Never pickled, never shipped to the
        # workers, and every hook is a no-op when no tracer is attached.
        self._tracer = None

        # Unwrap a cache front: the parent consults/updates the cache, the
        # raw evaluator ships to the workers.
        self._cache = None
        self._fingerprint = b""
        inner = evaluator
        if isinstance(evaluator, CachedEvaluator):
            self._cache = evaluator.cache
            self._fingerprint = evaluator.fingerprint
            inner = evaluator.evaluator
        self._inner = inner
        self._worker_eval = inner.for_worker() if hasattr(inner, "for_worker") else inner

        n_workers = int(n_workers)
        self.n_workers = procs.resolve_workers(n_workers, name="n_workers") if n_workers else 0
        if self.n_workers and not procs.picklable(
            self._worker_eval,
            "AsyncOracle: the evaluator",
            "the inline reference arm (deferred, evaluated at reconcile)",
        ):
            self.n_workers = 0
        self._inline = self.n_workers == 0
        if self._inline:
            return
        self._ctx = procs.context()
        for _ in range(self.n_workers):
            self._spawn_worker()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def inline(self) -> bool:
        """True when running the serial reference arm (no worker pool)."""
        return self._inline

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (``None`` detaches)."""
        self._tracer = tracer

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def _spawn_worker(self) -> None:
        wid = self._next_worker_id
        self._next_worker_id += 1
        # Both channels belong to this worker alone (see _worker_loop). The
        # parent closes its copy of the send end so a dead worker reads as EOF.
        tasks = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._worker_eval, self._y, tasks, send_conn),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        self._workers[wid] = _Worker(wid, proc, tasks, recv_conn)

    def shutdown(self) -> None:
        """Stop the pool (idempotent). Pending submissions are discarded."""
        self._pending.clear()
        workers, self._workers = self._workers, {}
        for worker in workers.values():
            worker.tasks.put(None)
        for worker in workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.close_channels()

    def __enter__(self) -> "AsyncOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown varies
        try:
            self.shutdown()
        except Exception:
            pass

    # -- submit / drain ----------------------------------------------------------

    def submit(self, X: np.ndarray) -> int:
        """Queue one evaluation; returns its ticket.

        The attached cache (if any) is consulted here, on both arms, so
        cache behavior does not depend on pool size: a hit resolves the
        ticket immediately with ``n_calls=0``.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        entry: dict = {"X": None, "key": None, "attempts": 0, "resolved": None}
        tracer = self._tracer
        if tracer is not None:
            entry["t_submit"] = time.perf_counter()
            tracer.count("oracle.submitted")
        if self._cache is not None:
            key = self._cache.signature(X, self._y, self._fingerprint)
            entry["key"] = key
            cached = self._cache.get(key)
            if cached is not None:
                entry["resolved"] = EvalOutcome(ticket, float(cached), True, n_calls=0, attempts=0)
                self._pending[ticket] = entry
                if tracer is not None:
                    tracer.count("oracle.submit_cache_hits")
                    tracer.gauge("oracle.queue_depth", len(self._pending))
                return ticket
        entry["X"] = np.array(X, copy=True)
        self._pending[ticket] = entry
        if not self._inline:
            entry["attempts"] = 1
            self._send(ticket)
        if tracer is not None:
            tracer.gauge("oracle.queue_depth", len(self._pending))
        return ticket

    def drain(self) -> list[EvalOutcome]:
        """Resolve *all* outstanding submissions, in submission order.

        Blocks until every ticket has either a real score or a degraded
        outcome; never deadlocks on hung/crashed workers (they are
        terminated, the work retried, then degraded past the budget).
        """
        if not self._pending:
            return []
        tracer = self._tracer
        t_drain = time.perf_counter() if tracer is not None else 0.0
        if self._inline:
            for ticket, entry in self._pending.items():
                if entry["resolved"] is None:
                    entry["resolved"] = self._evaluate_inline(ticket, entry)
        else:
            self._drain_pool()
        pending, self._pending = self._pending, {}
        resolved = [entry["resolved"] for entry in pending.values()]
        if tracer is not None:
            tracer.observe("oracle.drain_seconds", time.perf_counter() - t_drain)
            tracer.gauge("oracle.queue_depth", 0)
            for entry in pending.values():
                self._trace_landed(entry)
        return resolved

    def _trace_landed(self, entry: dict) -> None:
        """Per-submission telemetry, recorded once the outcome is final."""
        tracer = self._tracer
        outcome = entry["resolved"]
        t_submit = entry.get("t_submit")
        if t_submit is not None:
            tracer.observe("oracle.submit_to_land_seconds", time.perf_counter() - t_submit)
        tracer.count("oracle.landed" if outcome.ok else "oracle.degraded")
        if outcome.attempts > 1:
            tracer.count("oracle.retries", outcome.attempts - 1)

    def _evaluate_inline(self, ticket: int, entry: dict) -> EvalOutcome:
        try:
            before = getattr(self._inner, "n_calls", None)
            score = float(self._inner(entry["X"], self._y))
        except BaseException as exc:  # noqa: BLE001 - degrade, matching the pool
            self._warn_degraded(ticket, 1, repr(exc))
            return EvalOutcome(ticket, None, False, attempts=1, error=repr(exc))
        n_new = 1 if before is None else max(0, self._inner.n_calls - before)
        if entry["key"] is not None:
            self._cache.put(entry["key"], score)
        return EvalOutcome(ticket, score, True, n_calls=n_new, attempts=1)

    def _send(self, ticket: int) -> None:
        """Queue ``ticket`` on the live worker with the fewest unresolved
        tickets (``min`` keeps the first of equals: the lowest id). With
        none alive it waits on a dead one, whose tickets drain re-sends."""
        workers = list(self._workers.values())
        live = [w for w in workers if w.process.is_alive()] or workers
        worker = min(live, key=lambda w: len(w.tickets))
        worker.tickets.append(ticket)
        worker.tasks.put((ticket, self._pending[ticket]["X"]))

    def _drain_pool(self) -> None:
        # Every unresolved ticket is on exactly one worker's list.
        last_health = time.monotonic()
        while any(worker.tickets for worker in self._workers.values()):
            if time.monotonic() - last_health >= _POLL_SECONDS:
                # Run even when messages are flowing, so a hung worker's
                # deadline is enforced while its siblings stay busy.
                self._check_health()
                last_health = time.monotonic()
                continue
            by_conn = {worker.results: worker for worker in self._workers.values()}
            for conn in mp_connection.wait(list(by_conn), timeout=_POLL_SECONDS):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # EOF only surfaces once the pipe buffer is drained, so
                    # nothing this worker managed to report is lost.
                    self._reap_worker(by_conn[conn], "worker died")
                else:
                    self._handle_message(by_conn[conn], *message)

    def _handle_message(self, worker: _Worker, kind: str, ticket: int, payload) -> None:
        if kind == "start":
            worker.claim = (ticket, time.monotonic())
            return
        self._trace_worker_done(worker)
        worker.claim = None
        worker.tickets.remove(ticket)
        if kind == "fail":
            self._retry_or_degrade(ticket, payload)
            return
        entry = self._pending[ticket]
        score, n_new = payload
        entry["resolved"] = EvalOutcome(
            ticket, score, True, n_calls=n_new, attempts=entry["attempts"]
        )
        if entry["key"] is not None:
            self._cache.put(entry["key"], score)

    def _trace_worker_done(self, worker: _Worker) -> None:
        """Per-worker utilization: busy seconds and completed tasks."""
        tracer = self._tracer
        if tracer is None or worker.claim is None:
            return
        labels = {"worker": worker.wid}
        tracer.count("oracle.worker_busy_seconds", time.monotonic() - worker.claim[1], labels=labels)
        tracer.count("oracle.worker_tasks", labels=labels)

    def _reap_worker(self, worker: _Worker, reason: str) -> None:
        """Retire one worker with its channels, replace it, move its tickets.

        Buffered pipe messages are processed first (a worker that reported
        ``done`` and then died must not trigger a redundant retry). Of the
        tickets left, the claimed one went down with the worker and spends
        an attempt; the ones queued behind it never started and are re-sent
        as they are. The worker's queue is discarded, so none of them can
        be lost in it or run twice.
        """
        del self._workers[worker.wid]
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        # Replace it first: a one-worker pool must have somewhere to re-send.
        self._spawn_worker()
        try:
            while worker.results.poll(0):
                self._handle_message(worker, *worker.results.recv())
        except (EOFError, OSError):
            pass
        worker.close_channels()
        if self._tracer is not None:
            self._tracer.count("oracle.workers_reaped", labels={"reason": reason})
        claimed = worker.claim[0] if worker.claim is not None else None
        for ticket in worker.tickets:
            if ticket == claimed:
                self._retry_or_degrade(ticket, reason)
            else:
                self._send(ticket)

    def _check_health(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            timed_out = (
                worker.claim is not None
                and self._timeout is not None
                and now - worker.claim[1] > self._timeout
            )
            if timed_out or not worker.process.is_alive():
                self._reap_worker(worker, "timeout" if timed_out else "worker died")

    def _retry_or_degrade(self, ticket: int, reason) -> None:
        entry = self._pending[ticket]
        if entry["attempts"] <= self._retries:
            entry["attempts"] += 1
            self._send(ticket)
            return
        self._warn_degraded(ticket, entry["attempts"], reason)
        entry["resolved"] = EvalOutcome(
            ticket, None, False, attempts=entry["attempts"], error=str(reason)
        )

    @staticmethod
    def _warn_degraded(ticket: int, attempts: int, reason) -> None:
        warnings.warn(
            f"AsyncOracle: evaluation (ticket {ticket}) failed after "
            f"{attempts} attempt(s): {reason}; degrading to the "
            "predictor-estimated score",
            RuntimeWarning,
            stacklevel=4,
        )
