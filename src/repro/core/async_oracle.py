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
most ``retries`` times on a fresh worker; past that it *degrades*: the
outcome comes back ``ok=False`` with a :class:`RuntimeWarning`, and the
session keeps the predictor-estimated score for that step. A hung or dead
worker is terminated and respawned — drain never deadlocks on it.

Cache discipline (PR 4)
-----------------------
A :class:`~repro.ml.cache.CachedEvaluator` front is honored on both arms,
in the parent only: the content-signature cache is consulted at
submission time and updated when real scores land. Workers run the raw
evaluator and hold no cache. Cache hits can shrink ``n_downstream_calls``
— never change scores.

Workers are plain processes, one result pipe each, started the
:mod:`repro.procs` way (``fork`` where available, else ``spawn``).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro import procs
from repro.ml.cache import CachedEvaluator

__all__ = ["AsyncOracle", "EvalOutcome"]

# How often the drain loop wakes to check worker health while waiting.
_POLL_SECONDS = 0.05
# Grace period before concluding that an unclaimed task vanished with a
# killed worker (the get()→claim window is microseconds of library code,
# so this is a last-resort liveness backstop, not a normal path).
_STALL_SECONDS = 5.0


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
    """Persistent worker: claim a ticket, evaluate, report.

    The claim message lets the parent enforce per-submission deadlines
    (it knows *when* each ticket actually started); evaluator exceptions
    are reported rather than raised so the process survives for the next
    task. ``None`` is the shutdown pill.

    ``results`` is this worker's *own* pipe connection, not a shared
    queue, and that is load-bearing: ``Connection.send`` writes in the
    calling thread (no feeder thread) and our messages are far below the
    atomic-pipe-write size, so a worker hard-killed mid-task (``os._exit``,
    OOM killer) can only ever corrupt its own channel — a shared
    ``multiprocessing.Queue`` writer dying while holding the queue's
    write lock would wedge every other worker's reports forever.
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
        self._workers: dict[int, multiprocessing.Process] = {}
        self._conns: dict[int, mp_connection.Connection] = {}
        self._claims: dict[int, tuple[int, float]] = {}
        self._next_worker_id = 0
        self._ctx = None
        self._tasks = None
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
        # Workers must not nest process pools: a fold-parallel evaluator
        # is demoted to serial CV inside the pool (scores unchanged).
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
        self._tasks = self._ctx.Queue()
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
        # One result pipe per worker: a hard-killed writer cannot wedge or
        # corrupt anyone else's channel (see _worker_loop). The parent
        # closes its copy of the send end so a dead worker reads as EOF.
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._worker_eval, self._y, self._tasks, send_conn),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        self._workers[wid] = proc
        self._conns[wid] = recv_conn

    def shutdown(self) -> None:
        """Stop the pool (idempotent). Pending submissions are discarded."""
        self._pending.clear()
        if self._inline or not self._workers:
            self._workers = {}
            return
        for _ in self._workers:
            try:
                self._tasks.put(None)
            except Exception:  # pragma: no cover - queue already torn down
                break
        for proc in self._workers.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._workers = {}
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        self._conns = {}
        try:
            self._tasks.close()
            self._tasks.cancel_join_thread()
        except Exception:  # pragma: no cover
            pass

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
            self._tasks.put((ticket, entry["X"]))
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
        pending, self._pending = self._pending, {}
        outcomes = {t: e["resolved"] for t, e in pending.items() if e["resolved"] is not None}
        if self._inline:
            for ticket, entry in pending.items():
                if ticket in outcomes:
                    continue
                outcomes[ticket] = self._evaluate_inline(ticket, entry)
        else:
            self._drain_pool(pending, outcomes)
        resolved = [outcomes[t] for t in pending]
        if tracer is not None:
            tracer.observe("oracle.drain_seconds", time.perf_counter() - t_drain)
            tracer.gauge("oracle.queue_depth", 0)
            for ticket, entry in pending.items():
                self._trace_landed(entry, outcomes[ticket])
        return resolved

    def _trace_landed(self, entry: dict, outcome: EvalOutcome) -> None:
        """Per-submission telemetry, recorded once the outcome is final."""
        tracer = self._tracer
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

    def _drain_pool(self, pending: dict, outcomes: dict) -> None:
        unresolved = {t for t in pending if t not in outcomes}
        last_progress = time.monotonic()
        last_health = last_progress
        while unresolved:
            now = time.monotonic()
            if now - last_health >= _POLL_SECONDS:
                # Run even when messages are flowing, so a hung worker's
                # deadline is enforced while its siblings stay busy.
                last_health = now
                last_progress = self._check_health(pending, outcomes, unresolved, last_progress)
                if not unresolved:
                    return
            ready = mp_connection.wait(list(self._conns.values()), timeout=_POLL_SECONDS)
            for conn in ready:
                wid = next((w for w, c in self._conns.items() if c is conn), None)
                if wid is None:
                    continue
                try:
                    kind, ticket, payload = conn.recv()
                except (EOFError, OSError):
                    # EOF only surfaces once the pipe buffer is drained, so
                    # nothing this worker managed to report is lost.
                    self._reap_worker(wid, pending, outcomes, unresolved, "worker died")
                else:
                    self._handle_message(wid, kind, ticket, payload, pending, outcomes, unresolved)
                last_progress = time.monotonic()

    def _handle_message(self, wid, kind, ticket, payload, pending, outcomes, unresolved) -> None:
        if kind == "start":
            self._claims[wid] = (ticket, time.monotonic())
        elif kind == "done":
            self._trace_worker_done(wid, self._claims.pop(wid, None))
            if ticket in unresolved:
                score, n_new = payload
                outcomes[ticket] = EvalOutcome(
                    ticket, score, True, n_calls=n_new, attempts=pending[ticket]["attempts"]
                )
                if pending[ticket]["key"] is not None:
                    self._cache.put(pending[ticket]["key"], score)
                unresolved.discard(ticket)
        elif kind == "fail":
            self._trace_worker_done(wid, self._claims.pop(wid, None))
            if ticket in unresolved:
                self._retry_or_degrade(pending, outcomes, unresolved, ticket, payload)

    def _trace_worker_done(self, wid: int, claim) -> None:
        """Per-worker utilization: busy seconds and completed tasks."""
        tracer = self._tracer
        if tracer is None or claim is None:
            return
        labels = {"worker": wid}
        tracer.count("oracle.worker_busy_seconds", time.monotonic() - claim[1], labels=labels)
        tracer.count("oracle.worker_tasks", labels=labels)

    def _reap_worker(self, wid, pending, outcomes, unresolved, reason) -> None:
        """Retire one worker: stop it, salvage its reports, replace it.

        Buffered pipe messages are processed before the channel closes (a
        worker that reported ``done`` and then died must not trigger a
        redundant retry); whatever claim remains after that is the ticket
        that actually went down with the worker, and gets retried.
        """
        proc = self._workers.pop(wid, None)
        conn = self._conns.pop(wid, None)
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        if conn is not None:
            try:
                while conn.poll(0):
                    kind, ticket, payload = conn.recv()
                    self._handle_message(wid, kind, ticket, payload, pending, outcomes, unresolved)
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        claim = self._claims.pop(wid, None)
        self._spawn_worker()
        if self._tracer is not None:
            self._tracer.count("oracle.workers_reaped", labels={"reason": reason})
        if claim is not None and claim[0] in unresolved:
            self._retry_or_degrade(pending, outcomes, unresolved, claim[0], reason)

    def _check_health(self, pending, outcomes, unresolved, last_progress: float) -> float:
        now = time.monotonic()
        for wid, proc in list(self._workers.items()):
            claim = self._claims.get(wid)
            timed_out = (
                claim is not None
                and self._timeout is not None
                and now - claim[1] > self._timeout
            )
            died = not proc.is_alive()
            if not (timed_out or died):
                continue
            reason = "timeout" if timed_out else "worker died"
            self._reap_worker(wid, pending, outcomes, unresolved, reason)
            last_progress = now
        # Liveness backstop: with per-worker pipes and synchronous claim
        # sends this should be unreachable (a dying worker's claim survives
        # in its pipe buffer), but if tickets somehow have no claim, no
        # queue entry, and no movement, re-queue them (bounded) rather
        # than wait forever — drain must never deadlock.
        if unresolved and not self._claims and now - last_progress > self._stall_limit():
            try:
                queue_empty = self._tasks.qsize() == 0
            except NotImplementedError:  # pragma: no cover - macOS qsize
                queue_empty = True
            if queue_empty:
                for ticket in sorted(unresolved):
                    self._retry_or_degrade(pending, outcomes, unresolved, ticket, "task lost")
                last_progress = now
        return last_progress

    def _stall_limit(self) -> float:
        if self._timeout is not None:
            return max(self._timeout, _STALL_SECONDS)
        return _STALL_SECONDS

    def _retry_or_degrade(self, pending, outcomes, unresolved, ticket: int, reason) -> None:
        entry = pending[ticket]
        if entry["attempts"] <= self._retries:
            entry["attempts"] += 1
            self._tasks.put((ticket, entry["X"]))
            return
        self._warn_degraded(ticket, entry["attempts"], reason)
        outcomes[ticket] = EvalOutcome(
            ticket, None, False, attempts=entry["attempts"], error=str(reason)
        )
        unresolved.discard(ticket)

    @staticmethod
    def _warn_degraded(ticket: int, attempts: int, reason) -> None:
        warnings.warn(
            f"AsyncOracle: evaluation (ticket {ticket}) failed after "
            f"{attempts} attempt(s): {reason}; degrading to the "
            "predictor-estimated score",
            RuntimeWarning,
            stacklevel=4,
        )
