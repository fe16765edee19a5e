"""Parallel search orchestration: multi-seed sweeps and process-pool batches.

FastFT's standard reporting protocol (Table I, and the GRFG/CAAFE lineage it
compares against) repeats every seeded search several times and reports
mean ± std — which, run serially, costs N× wall clock on one core. The
:class:`SearchOrchestrator` fans seeded :class:`~repro.core.session.SearchSession`
runs out across a ``ProcessPoolExecutor`` instead:

- :meth:`SearchOrchestrator.sweep` — one session per seed over one dataset,
  returning a :class:`SweepResult` (per-seed results, deterministic
  best-by-score selection, mean/std for Table-I-style rows);
- :meth:`SearchOrchestrator.run_batch` — whole jobs (datasets) scheduled
  across workers, results in input order.

Determinism contract
--------------------
Each worker result is **bit-identical to the same seed run serially**: the
worker executes exactly the serial code path (same config, same seeded RNG
streams, same oracle), and numpy arithmetic does not depend on the process
it runs in. :mod:`repro.procs` owns the process policy: the start method
(``fork`` where available, else ``spawn``), the worker count, and the
pickle probe — payloads that cannot be pickled demote the run to the
serial path with a ``RuntimeWarning``. The job arrays reach each worker
once, at pool start-up.

Each pooled job runs on its own oracle cache, seeded from the entries of
the caller's ``cache=``, and returns the entries it added; the parent
merges them into that cache in submission order. The oracle fingerprint
includes the search seed, so sweep seeds never share cache keys: a pooled
sweep equals the serial sweep on every field, ``n_downstream_calls``
included. A serial :meth:`~SearchOrchestrator.run_batch` shares one cache
across its jobs, so jobs with identical data and config may report fewer
``n_downstream_calls`` serially than pooled; every other field matches.

Observability crosses the process boundary over a queue: pass
``callbacks_factory`` and each worker relays its lifecycle events
(:meth:`on_step`, :meth:`on_episode_end`, ...) to parent-side callbacks —
a :class:`~repro.core.callbacks.HistoryCollector` or
:class:`~repro.core.callbacks.VerboseLogger` works unchanged, receiving a
lightweight :class:`SessionView` in place of the live session. The relay
runs on the caller's thread, which drains the queue while it waits for the
jobs, so each job's callbacks see the hooks a serial run would fire, in
the same order and on the same thread. A callback that raises does not
stop later events; its error is raised once every job's ``on_finish`` has
run.
"""

from __future__ import annotations

import contextlib
import queue as queue_mod
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro import procs
from repro.core.callbacks import Callback, CallbackList, TimeBudget
from repro.core.config import FastFTConfig
from repro.core.result import FastFTResult
from repro.core.session import SearchSession, make_default_evaluator
from repro.ml.cache import EvaluationCache

__all__ = [
    "SearchOrchestrator",
    "SweepResult",
    "SessionView",
    "job_fields",
    "resolve_config",
]


def resolve_config(config: FastFTConfig | None, overrides: dict) -> FastFTConfig:
    """Materialize a config from an optional base plus keyword overrides."""
    if config is None:
        return FastFTConfig(**overrides)
    return replace(config, **overrides) if overrides else config


def job_fields(job) -> tuple[str, np.ndarray, np.ndarray, str, list[str] | None]:
    """Accept Dataset-like objects, mappings, or (name, X, y, task) tuples."""
    if isinstance(job, Mapping):
        return (
            job.get("name", "job"),
            job["X"],
            job["y"],
            job.get("task", "classification"),
            job.get("feature_names"),
        )
    if hasattr(job, "X") and hasattr(job, "y"):
        return (
            getattr(job, "name", "job"),
            job.X,
            job.y,
            getattr(job, "task", "classification"),
            list(getattr(job, "feature_names", []) or []) or None,
        )
    name, X, y, task = job
    return name, X, y, task, None


# -- cross-process observability ------------------------------------------------


class SessionView:
    """Picklable snapshot of the session attributes observers read.

    Parent-side callbacks attached through ``callbacks_factory`` receive one
    of these instead of the live (worker-resident) session. It carries the
    fields the built-in observers use (``best_score``,
    ``n_downstream_calls``, ``n_features``, counters); control methods are
    stubs — a remote worker cannot be stopped from the parent, so put
    control callbacks (``TimeBudget``) on the worker side via
    ``time_budget`` instead.
    """

    def __init__(
        self,
        label: str,
        task: str,
        episode: int,
        global_step: int,
        total_steps: int,
        n_features: int,
        n_downstream_calls: int,
        base_score: float,
        best_score: float,
    ) -> None:
        self.label = label
        self.task = task
        self.episode = episode
        self.global_step = global_step
        self.total_steps = total_steps
        self.n_features = n_features
        self.n_downstream_calls = n_downstream_calls
        self.base_score = base_score
        self.best_score = best_score

    def request_stop(self, reason: str = "") -> None:
        warnings.warn(
            "request_stop() on a SessionView is a no-op: parent-side "
            "callbacks observe a worker process and cannot stop it. Use "
            "time_budget= (or a worker-side callback) for control.",
            RuntimeWarning,
            stacklevel=2,
        )


class _EventRelay(Callback):
    """Worker-side callback: puts each lifecycle event on the relay queue
    as ``(label, hook, view, args)``.

    ``on_finish`` is deliberately not relayed — the parent already receives
    the full result through the pool and fires ``on_finish`` itself once
    per job, in submission order, after all events have drained.
    """

    def __init__(self, events, label: str) -> None:
        self._events = events
        self._label = label

    def _emit(self, hook: str, session: SearchSession, *args) -> None:
        view = SessionView(
            label=self._label,
            task=session.task,
            episode=session.episode,
            global_step=session.global_step,
            total_steps=session.total_steps,
            n_features=session.n_features,
            n_downstream_calls=session.n_downstream_calls,
            base_score=session.base_score,
            best_score=session.best_score,
        )
        self._events.put((self._label, hook, view, args))

    def on_search_start(self, session) -> None:
        self._emit("on_search_start", session)

    def on_episode_start(self, session, episode) -> None:
        self._emit("on_episode_start", session, episode)

    def on_step(self, session, record) -> None:
        self._emit("on_step", session, record)

    def on_real_evaluation(self, session, record) -> None:
        self._emit("on_real_evaluation", session, record)

    def on_reconcile(self, session, landed, degraded) -> None:
        self._emit("on_reconcile", session, landed, degraded)

    def on_retrain(self, session, episode, stage) -> None:
        self._emit("on_retrain", session, episode, stage)

    def on_episode_end(self, session, episode) -> None:
        self._emit("on_episode_end", session, episode)


def _relay(events, sinks: dict[str, CallbackList], futures: list) -> tuple[dict, list]:
    """Dispatch relayed events on the calling thread until every job is done
    and the queue is empty.

    A worker's ``put`` returns once the Manager holds the event, so when
    every future was done *before* a ``get`` came back empty, no event is
    left in flight. Returns each job's last :class:`SessionView` and the
    exceptions the callbacks raised; a raising callback does not stop the
    events after it.
    """
    views: dict[str, SessionView] = {}
    errors: list[Exception] = []
    while True:
        finished = all(future.done() for future in futures)
        try:
            label, hook, view, args = events.get(timeout=0.05)
        except queue_mod.Empty:
            if finished:
                return views, errors
            continue
        views[label] = view
        try:
            getattr(sinks[label], hook)(view, *args)
        except Exception as exc:
            errors.append(exc)


# -- the worker ------------------------------------------------------------------


def _run_job(spec: tuple, cache: EvaluationCache, callbacks: list[Callback]) -> FastFTResult:
    """Run one seeded search job; the single code path for serial and
    pooled execution, which is what makes pooled results bit-identical."""
    label, X, y, task, feature_names, config = spec
    session = SearchSession(
        X,
        y,
        task=task,
        config=config,
        feature_names=feature_names,
        evaluator=cache.wrap(make_default_evaluator(task, config)),
        callbacks=callbacks,
    )
    return session.run()


def _budget(time_budget: float | None) -> list[Callback]:
    return [] if time_budget is None else [TimeBudget(time_budget)]


def _pooled_job(job: tuple) -> tuple[FastFTResult, dict[str, float]]:
    """Pool worker body: one job on its own cache, seeded from the caller's
    entries. Returns the result and the cache entries the job added."""
    data, seed_entries, time_budget, events = procs.worker_inputs()
    label, task, feature_names, config = job
    X, y = data[label]
    cache = EvaluationCache()
    cache.merge_entries(seed_entries)
    callbacks = _budget(time_budget)
    if events is not None:
        callbacks.append(_EventRelay(events, label))
    result = _run_job((label, X, y, task, feature_names, config), cache, callbacks)
    added = {k: v for k, v in cache.snapshot_entries().items() if k not in seed_entries}
    return result, added


# -- results ---------------------------------------------------------------------


@dataclass
class SweepResult:
    """Per-seed outcomes of one multi-seed sweep over a single dataset.

    ``results`` is keyed by seed; ``seeds`` preserves the caller's order,
    which is also the tie-break order of :attr:`best_seed` (the *first*
    seed attaining the maximum best score wins, so selection does not
    depend on scheduling).

    ``failed_seeds`` is empty for in-process sweeps (a worker failure
    raises); a :mod:`repro.jobs` fleet gather with ``allow_partial=True``
    populates it with the seeds that exhausted their retries, so completed
    work is reported instead of discarded. Statistics (:attr:`scores`,
    :attr:`score_mean`, :attr:`best_seed`, ...) cover completed seeds only.
    """

    task: str
    seeds: list[int] = field(default_factory=list)
    results: dict[int, FastFTResult] = field(default_factory=dict)
    failed_seeds: list[int] = field(default_factory=list)

    @property
    def is_partial(self) -> bool:
        return bool(self.failed_seeds)

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self):
        return (self.results[s] for s in self.seeds)

    def __getitem__(self, seed: int) -> FastFTResult:
        return self.results[seed]

    @property
    def scores(self) -> np.ndarray:
        """Best downstream score per seed, in seed order."""
        return np.asarray([self.results[s].best_score for s in self.seeds], dtype=float)

    @property
    def base_scores(self) -> np.ndarray:
        return np.asarray([self.results[s].base_score for s in self.seeds], dtype=float)

    @property
    def score_mean(self) -> float:
        return float(self.scores.mean())

    @property
    def score_std(self) -> float:
        return float(self.scores.std())

    @property
    def best_seed(self) -> int:
        scores = self.scores
        return self.seeds[int(np.argmax(scores))]  # argmax takes the first max

    @property
    def best(self) -> FastFTResult:
        return self.results[self.best_seed]

    @property
    def n_downstream_calls(self) -> int:
        """Total *actual* CV runs across the sweep (cache hits excluded)."""
        return sum(self.results[s].n_downstream_calls for s in self.seeds)

    def summary(self) -> str:
        """Table-I-style report: one row per seed, then mean ± std."""
        lines = [
            f"{'seed':>6s} {'base':>10s} {'best':>10s} {'evals':>6s}",
        ]
        for s in self.seeds:
            r = self.results[s]
            marker = " *" if s == self.best_seed else ""
            lines.append(
                f"{s:6d} {r.base_score:10.4f} {r.best_score:10.4f} "
                f"{r.n_downstream_calls:6d}{marker}"
            )
        lines.append(
            f"{'':6s} mean {self.score_mean:.4f} ± {self.score_std:.4f} "
            f"over {len(self.seeds)} seeds (* = best, seed-order tie-break)"
        )
        if self.failed_seeds:
            lines.append(
                f"{'':6s} PARTIAL: seeds {self.failed_seeds} failed permanently "
                "and are excluded from the statistics above"
            )
        return "\n".join(lines)


# -- the orchestrator ------------------------------------------------------------


class SearchOrchestrator:
    """Fan seeded search sessions out across a process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes (``1`` = serial in-process, ``-1`` = all cores).
        The pool never exceeds the number of jobs.
    cache:
        An :class:`~repro.ml.cache.EvaluationCache` whose entries seed
        every job's oracle cache; the entries the jobs add merge back into
        it on completion, in submission order. ``None`` gives every job a
        fresh cache.
    callbacks_factory:
        ``factory(label) -> list[Callback]`` building parent-side observers
        per job (label = job name, or ``"seed=<s>"`` in a sweep). Under
        parallelism they receive :class:`SessionView` snapshots relayed
        over a queue; serially they attach directly to the live session.
    time_budget:
        Per-job wall-clock budget in seconds, enforced *inside* each worker
        (a worker-side :class:`~repro.core.callbacks.TimeBudget`).
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        cache: EvaluationCache | None = None,
        callbacks_factory: Callable[[str], list[Callback]] | None = None,
        time_budget: float | None = None,
    ) -> None:
        self.n_jobs = procs.resolve_workers(n_jobs)
        self.cache = cache
        self.callbacks_factory = callbacks_factory
        self.time_budget = time_budget

    # -- public entry points ---------------------------------------------------

    def sweep(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str = "classification",
        *,
        seeds: Iterable[int] = (0, 1, 2),
        config: FastFTConfig | None = None,
        feature_names: list[str] | None = None,
        **config_overrides: Any,
    ) -> SweepResult:
        """Run one seeded search per seed; see :class:`SweepResult`.

        Every per-seed result, ``n_downstream_calls`` included, is
        bit-identical to ``api.search(X, y, task, config=replace(config,
        seed=s), cache=c)`` run serially, where ``c`` is a copy of this
        orchestrator's ``cache`` (a fresh ``EvaluationCache`` without
        one), whatever ``n_jobs`` is.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be unique, got {seeds}")
        cfg = resolve_config(config, config_overrides)
        jobs = [
            (f"seed={s}", X, y, task, feature_names, replace(cfg, seed=s))
            for s in seeds
        ]
        by_label = self._run_jobs(jobs)
        return SweepResult(
            task=task,
            seeds=seeds,
            results={s: by_label[f"seed={s}"] for s in seeds},
        )

    def run_batch(
        self,
        jobs: Iterable,
        *,
        config: FastFTConfig | None = None,
        **config_overrides: Any,
    ) -> dict[str, FastFTResult]:
        """Run FastFT over several datasets; ``{name: result}`` in input order.

        ``jobs`` accepts the same shapes as :func:`repro.api.run_batch`
        (Dataset-like objects, mappings, ``(name, X, y, task)`` tuples).
        Duplicate names are rejected up front — before any search runs —
        so the serial and parallel paths fail fast identically.
        """
        cfg = resolve_config(config, config_overrides)
        specs = []
        seen: set[str] = set()
        for job in jobs:
            name, X, y, task, feature_names = job_fields(job)
            if name in seen:
                raise ValueError(f"Duplicate job name {name!r} in batch")
            seen.add(name)
            specs.append((name, X, y, task, feature_names, cfg))
        if not specs:
            return {}
        return self._run_jobs(specs)

    # -- execution -------------------------------------------------------------

    def _run_jobs(self, specs: list[tuple]) -> dict[str, FastFTResult]:
        """specs: (label, X, y, task, feature_names, config) per job."""
        n_workers = procs.resolve_workers(self.n_jobs, len(specs))
        if n_workers > 1:
            results = self._run_pool(specs, n_workers)
            if results is not None:
                return results
        return self._run_serial(specs)

    def _run_serial(self, specs: list[tuple]) -> dict[str, FastFTResult]:
        cache = self.cache if self.cache is not None else EvaluationCache()
        results: dict[str, FastFTResult] = {}
        for spec in specs:
            callbacks = _budget(self.time_budget)
            if self.callbacks_factory is not None:
                callbacks.extend(self.callbacks_factory(spec[0]))
            results[spec[0]] = _run_job(spec, cache, callbacks)
        return results

    def _run_pool(
        self, specs: list[tuple], n_workers: int
    ) -> dict[str, FastFTResult] | None:
        """Pooled execution; returns None to demote to the serial path."""
        jobs = [(label, task, names, config) for label, _, _, task, names, config in specs]
        if not procs.picklable(jobs, "parallel search: a job payload (config, feature names)"):
            return None
        data = {label: (np.asarray(X), np.asarray(y)) for label, X, y, *_ in specs}
        seed_entries = self.cache.snapshot_entries() if self.cache is not None else {}

        with contextlib.ExitStack() as stack:
            # The Manager only carries the callbacks relay: its queue gives
            # each worker its own connection, so a worker killed hard cannot
            # wedge its siblings' events.
            events, sinks = None, {}
            if self.callbacks_factory is not None:
                events = stack.enter_context(procs.context().Manager()).Queue()
                sinks = {label: CallbackList(self.callbacks_factory(label)) for label in data}
            inputs = (data, seed_entries, self.time_budget, events)
            pool = stack.enter_context(procs.pool(n_workers, inputs))
            futures = [pool.submit(_pooled_job, job) for job in jobs]
            views, errors = _relay(events, sinks, futures) if events is not None else ({}, [])
            ordered = [future.result() for future in futures]

        results = {}
        for (label, *_), (result, added) in zip(specs, ordered):
            results[label] = result
            if self.cache is not None:
                self.cache.merge_entries(added)
        # on_finish fires once per job, in submission order, after every
        # relayed event has been dispatched.
        for label, sink in sinks.items():
            if label in views:
                sink.on_finish(views[label], results[label])
        if errors:
            raise errors[0]
        return results
