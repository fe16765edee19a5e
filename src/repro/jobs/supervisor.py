"""Fleet supervision: spawn workers, reclaim leases, retry, gather.

:class:`JobFleetSupervisor` drives an initialized sweep directory to
convergence with local worker processes (``repro jobs run --workers N``);
:func:`gather` assembles the directory's results into a
:class:`~repro.core.parallel.SweepResult`; :func:`run_jobfile_sweep` is the
one-call backend behind ``api.sweep(..., backend="jobfile")``.

The supervisor is itself crash-only: all of its decisions re-derive from
the directory (results, failure markers, leases, ``attempts.json``), so a
killed supervisor restarted over the same sweep dir picks up exactly where
the files say things stand. Failure policy per job:

- a worker that exits without publishing a valid result (crash, SIGKILL,
  exception, corrupt result file) costs one *attempt*; retries are
  scheduled with bounded exponential backoff;
- a lease whose heartbeat goes stale — wedged worker, dead host — is
  reclaimed: the lease file is removed (and a local zombie process
  SIGKILLed), which also costs the job one attempt;
- after ``max_retries`` failed attempts the job is marked permanently
  failed; :func:`gather` then raises a structured
  :class:`SweepGatherError` naming the failed seeds, or — under
  ``allow_partial=True`` — returns a partial ``SweepResult`` with
  ``failed_seeds`` populated so completed work is never discarded.

Observability: lease reclaims, retries, permanent failures, spawns and
completions are counted on a :class:`repro.obs.MetricsRegistry`, and the
run/gather phases open spans on an optional :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro import procs
from repro.core.config import FastFTConfig
from repro.core.parallel import SweepResult, resolve_config
from repro.jobs.cache import load_durable_entries
from repro.jobs.chaos import ChaosSpec
from repro.jobs.spec import (
    JobDir,
    SweepSpec,
    cache_dir,
    init_sweep,
    load_spec,
    make_owner_id,
)
from repro.jobs.worker import _process_entry
from repro.ml.cache import EvaluationCache

__all__ = ["JobFleetSupervisor", "SweepGatherError", "gather", "run_jobfile_sweep"]


class SweepGatherError(RuntimeError):
    """A gather found incomplete seeds and ``allow_partial`` was off.

    Carries the machine-readable failure map so callers can react without
    parsing the message; the message itself names every failed seed and
    its reason — completed seeds are listed too, because the work they
    represent still exists on disk and a partial gather can recover it.
    """

    def __init__(self, sweep_dir: str, reasons: dict[int, str], completed: list[int]) -> None:
        self.sweep_dir = sweep_dir
        self.failed_seeds = sorted(reasons)
        self.reasons = reasons
        self.completed_seeds = list(completed)
        detail = "; ".join(f"seed {s}: {reasons[s]}" for s in self.failed_seeds)
        super().__init__(
            f"sweep gather at {sweep_dir!r} is incomplete — "
            f"{len(self.failed_seeds)} seed(s) unavailable ({detail}); "
            f"{len(completed)} completed seed(s) {completed} are intact — "
            "re-run the supervisor to retry, or gather with "
            "allow_partial=True for a partial SweepResult"
        )


def gather(sweep_dir: str, *, allow_partial: bool = False) -> SweepResult:
    """Assemble a :class:`SweepResult` from completed job dirs.

    Purely a read: verifies each result's digest frame and never mutates
    the sweep. The returned per-seed results are the pickled
    ``FastFTResult`` objects the workers published — bit-identical to the
    in-process backends by the resume/determinism contracts.
    """
    spec = load_spec(sweep_dir)
    results, reasons = {}, {}
    for seed in spec.seeds:
        job = JobDir(sweep_dir, seed)
        result, reason = job.load_result()
        if result is not None:
            results[seed] = result
            continue
        failed = job.load_failed()
        if failed is not None:
            attempts = failed.get("attempts", "?")
            reasons[seed] = (
                f"permanently failed after {attempts} attempt(s): "
                f"{failed.get('last_error', 'unknown error')}"
            )
        elif reason == "missing":
            reasons[seed] = "no result (job never completed)"
        else:
            reasons[seed] = reason
    completed = [s for s in spec.seeds if s in results]
    if reasons and not allow_partial:
        raise SweepGatherError(sweep_dir, reasons, completed)
    return SweepResult(
        task=spec.task,
        seeds=completed,
        results=results,
        failed_seeds=[s for s in spec.seeds if s in reasons],
    )


class JobFleetSupervisor:
    """Drive an initialized sweep directory to convergence with local workers.

    Parameters
    ----------
    n_workers:
        Concurrent worker processes (``-1`` = all cores).
    max_retries:
        Failed attempts before a job is marked permanently failed
        (default: the spec's value).
    chaos_factory:
        ``factory(seed, attempt) -> ChaosSpec | None`` arming fault
        injection per spawn (tests/benchmarks only).
    metrics / tracer:
        Optional :class:`repro.obs.MetricsRegistry` /
        :class:`repro.obs.Tracer`; a registry is created when omitted so
        counters are always inspectable via :attr:`metrics`.
    """

    def __init__(
        self,
        sweep_dir: str,
        n_workers: int = 1,
        *,
        max_retries: int | None = None,
        poll_interval: float = 0.05,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        chaos_factory: "Callable[[int, int], ChaosSpec | None] | None" = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.n_workers = procs.resolve_workers(n_workers, name="n_workers")
        if metrics is None:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self.sweep_dir = os.fspath(sweep_dir)
        self.spec = load_spec(sweep_dir)
        self.max_retries = self.spec.max_retries if max_retries is None else max_retries
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.chaos_factory = chaos_factory
        self.metrics = metrics
        self.tracer = tracer
        self._ctx = procs.context()
        self._procs: dict[int, tuple] = {}  # seed -> (Process, owner)

    # -- metrics shorthands -----------------------------------------------------

    def _count(self, name: str, help: str) -> None:
        self.metrics.counter(f"jobs_{name}_total", help).inc()

    # -- failure bookkeeping ----------------------------------------------------

    def _record_failure(self, job: JobDir, error: str) -> None:
        backoff = min(self.backoff_max, self.backoff_base * 2 ** job.load_attempts()["count"])
        attempts = job.record_attempt_failure(error, time.time() + backoff)
        if attempts > self.max_retries:
            job.mark_failed(error, attempts)
            self._count("failed", "jobs marked permanently failed")
        else:
            self._count("retries", "failed worker attempts scheduled for retry")

    # -- the loop ---------------------------------------------------------------

    def _reap_exited_workers(self) -> None:
        for seed, (proc, owner) in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join()
            del self._procs[seed]
            job = JobDir(self.sweep_dir, seed)
            result, reason = job.load_result()
            if result is not None:
                self._count("completed", "jobs completed with a valid result")
                continue
            if proc.exitcode == 3:
                continue  # lease contention, not a failure: re-polled next tick
            # A dead local worker cannot heartbeat; release its lease now
            # instead of waiting out the stale timeout.
            job.release(owner)
            detail = reason if reason != "missing" else f"worker exited with code {proc.exitcode}"
            if reason not in (None, "missing"):
                job.discard_result()
                self._count("corrupt_results", "result files that failed digest verification")
            self._record_failure(job, detail)

    def _reclaim_stale_leases(self) -> None:
        # Local children with live heartbeats never go stale; ones that are
        # wedged (frozen heartbeat) are exactly what this check catches, so
        # no seed is exempt from it.
        for seed in self.spec.seeds:
            job = JobDir(self.sweep_dir, seed)
            if job.state() != "leased":
                continue
            if job.reclaim_if_stale(self.spec.lease_timeout):
                self._count("lease_reclaims", "stale leases reclaimed by the supervisor")
                entry = self._procs.pop(seed, None)
                if entry is not None and entry[0].is_alive():
                    entry[0].kill()  # the wedged local zombie
                    entry[0].join()
                self._record_failure(job, "stale lease reclaimed (heartbeat timed out)")

    def _spawn_ready_jobs(self) -> None:
        now = time.time()
        for seed in self.spec.seeds:
            if len(self._procs) >= self.n_workers:
                return
            if seed in self._procs:
                continue
            job = JobDir(self.sweep_dir, seed)
            if job.state() != "pending":
                continue
            attempts = job.load_attempts()
            if attempts["count"] > self.max_retries or now < attempts.get("next_retry_at", 0.0):
                continue
            owner = make_owner_id()
            chaos = self.chaos_factory(seed, attempts["count"]) if self.chaos_factory else None
            proc = self._ctx.Process(
                target=_process_entry,
                args=(self.sweep_dir, seed, owner, chaos),
                name=f"fastft-job-seed{seed}",
            )
            proc.start()
            self._procs[seed] = (proc, owner)
            self._count("spawned", "worker processes spawned")

    def states(self) -> dict[int, str]:
        return {
            seed: JobDir(self.sweep_dir, seed).state(self.spec.lease_timeout)
            for seed in self.spec.seeds
        }

    def run(self, *, reset_failed: bool = False) -> dict[int, str]:
        """Drive every job to ``done`` or ``failed``; returns final states.

        ``reset_failed`` clears permanent-failure markers and retry
        counters first, giving previously failed jobs a fresh budget.
        """
        if reset_failed:
            for seed in self.spec.seeds:
                JobDir(self.sweep_dir, seed).reset_failure_state()
        span = self.tracer.span("jobs.supervise") if self.tracer is not None else nullcontext()
        with span:
            try:
                while True:
                    self._reap_exited_workers()
                    self._reclaim_stale_leases()
                    states = self.states()
                    pending = [
                        s for s, st in states.items() if st not in ("done", "failed")
                    ]
                    if not pending and not self._procs:
                        return states
                    self._spawn_ready_jobs()
                    time.sleep(self.poll_interval)
            finally:
                for proc, _owner in self._procs.values():
                    proc.kill()
                    proc.join()
                self._procs.clear()


def run_jobfile_sweep(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    *,
    seeds=(0, 1, 2),
    config: FastFTConfig | None = None,
    feature_names: list[str] | None = None,
    sweep_dir: str | None = None,
    n_workers: int = 1,
    max_retries: int = 2,
    lease_timeout: float = 30.0,
    checkpoint_every: int = 1,
    allow_partial: bool = False,
    cache: EvaluationCache | None = None,
    chaos_factory=None,
    metrics=None,
    tracer=None,
    poll_interval: float = 0.05,
    name: str = "sweep",
    **config_overrides,
) -> SweepResult:
    """The ``backend="jobfile"`` sweep: init (or adopt) a dir, supervise, gather.

    With ``sweep_dir=None`` the fleet runs in a temporary directory that
    is removed afterwards — pure drop-in for the pool backend. A persistent
    ``sweep_dir`` survives crashes: re-invoking over the same directory
    resumes unfinished jobs from their checkpoints (the spec's dataset,
    task and seeds must match the call's — drift raises).

    ``cache`` mirrors the pool backend's semantics: its entries pre-seed
    the sweep's durable oracle cache, and every durable entry folds back
    into it after the gather.
    """
    cfg = resolve_config(config, config_overrides)
    seeds = [int(s) for s in seeds]
    owns_dir = sweep_dir is None
    if owns_dir:
        sweep_dir = tempfile.mkdtemp(prefix="fastft-sweep-")
    try:
        spec = SweepSpec(
            task=task,
            seeds=seeds,
            config=cfg,
            feature_names=list(feature_names) if feature_names else None,
            name=name,
            lease_timeout=lease_timeout,
            max_retries=max_retries,
            checkpoint_every=checkpoint_every,
        )
        spec_path = os.path.join(sweep_dir, "spec.json")
        if os.path.exists(spec_path):
            existing = load_spec(sweep_dir)
            if existing.task != task or existing.seeds != seeds:
                raise ValueError(
                    f"sweep dir {sweep_dir!r} was initialized for task="
                    f"{existing.task!r} seeds={existing.seeds}, which does not "
                    f"match this call (task={task!r} seeds={seeds}); use a "
                    "fresh directory or matching arguments"
                )
        else:
            init_sweep(sweep_dir, X, y, spec)

        if cache is not None:
            _preseed_durable_cache(sweep_dir, cache)

        supervisor = JobFleetSupervisor(
            sweep_dir,
            n_workers,
            max_retries=max_retries,
            poll_interval=poll_interval,
            chaos_factory=chaos_factory,
            metrics=metrics,
            tracer=tracer,
        )
        supervisor.run()
        span = tracer.span("jobs.gather") if tracer is not None else nullcontext()
        with span:
            result = gather(sweep_dir, allow_partial=allow_partial)
        if cache is not None:
            merged = cache.merge_entries(load_durable_entries(cache_dir(sweep_dir)))
            supervisor.metrics.counter(
                "jobs_cache_entries_merged_total",
                "durable cache entries folded back into the caller's cache",
            ).inc(merged)
        return result
    finally:
        if owns_dir:
            shutil.rmtree(sweep_dir, ignore_errors=True)


def _preseed_durable_cache(sweep_dir: str, cache: EvaluationCache) -> None:
    """Append a local cache's entries into the sweep's durable cache."""
    from repro.jobs.cache import DurableOracleCache

    durable = DurableOracleCache(cache_dir(sweep_dir), owner="preseed")
    try:
        for key, score in cache.snapshot_entries().items():
            durable.put(key, score)
    finally:
        durable.close()
