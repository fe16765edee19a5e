"""High-level FastFT facade: one import, four verbs.

::

    from repro import api

    result = api.search(X, y, task="classification", episodes=20)
    X_star = api.fit_transform(X, y, task="classification")

    cache = api.EvaluationCache()          # memoize downstream CV scores
    result = api.search(X, y, cache=cache)

    results = api.run_batch(jobs, n_jobs=4)     # datasets across a process pool
    swept = api.sweep(X, y, seeds=[0, 1, 2], n_jobs=3)   # multi-seed protocol

    artifact, v = api.export(result, X, y, registry="reg/", name="churn")
    server = api.serve(api.load_pipeline(registry="reg/", name="churn"))

Everything here is sugar over :class:`repro.core.session.SearchSession`;
use the session directly for stepping, checkpoint/resume and custom
callback wiring. Any :class:`~repro.core.config.FastFTConfig` field can be
overridden by keyword — including the async oracle
(``api.search(X, y, oracle_mode="async", oracle_workers=4,
reconcile_every_k=4)``), which overlaps triggered downstream evaluations
with the search loop: steps advance on predictor estimates while worker
processes run the real CV, and scores land at schedule-pinned reconcile
points so the trajectory is deterministic for a given
``reconcile_every_k`` — bit-identical to the ``oracle_workers=0`` inline
reference arm at any pool size (see :mod:`repro.core.async_oracle`).

There is one oracle engine and one inner loop: the forest fits with the
presorted split engine, and the search keeps its features in the columnar
arena with incremental caches. The seed implementations of both are kept
as test oracles in ``tests/reference/``, bit-identical to production.

The :class:`EvaluationCache` (re-exported from :mod:`repro.ml.cache`)
attacks the *evaluation* bucket of the paper's Table II time breakdown:
downstream cross-validation dominates search cost, and identical feature
matrices recur — across restarted sessions, repeated plans within a
search, ablation arms sharing a cold start, and batch jobs re-validating
the same candidates. Scores are memoized by a content signature of the
evaluated matrix/target plus an evaluator fingerprint, so a hit is exact,
not approximate.

``sweep`` and ``run_batch(n_jobs=...)`` are sugar over
:class:`repro.core.parallel.SearchOrchestrator`: seeded sessions fan out
across a process pool, each job on its own oracle cache seeded from
``cache=`` and merged back into it, and every per-seed result is
bit-identical to the same seed run serially (see the determinism contract
in :mod:`repro.core.parallel`; the process policy lives in
:mod:`repro.procs`).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable

import numpy as np

from pathlib import Path

from repro import procs
from repro.core.callbacks import Callback, Checkpointer, TimeBudget
from repro.core.config import FastFTConfig
from repro.core.parallel import (
    SearchOrchestrator,
    SweepResult,
    resolve_config as _resolve_config,
)
from repro.core.result import FastFTResult
from repro.core.session import SearchSession, make_default_evaluator
from repro.ml.cache import CachedEvaluator, EvaluationCache
from repro.ml.evaluation import DownstreamEvaluator
from repro.serve.artifact import PipelineArtifact
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import InferenceServer

__all__ = [
    "search",
    "fit_transform",
    "run_batch",
    "sweep",
    "session",
    "EvaluationCache",
    "CachedEvaluator",
    "SweepResult",
    "SearchOrchestrator",
    "default_evaluator",
    "export",
    "load_pipeline",
    "serve",
    "serve_from_registry",
]


def default_evaluator(task: str, config: FastFTConfig) -> DownstreamEvaluator:
    """The oracle a session builds when none is supplied (paper defaults)."""
    return make_default_evaluator(task, config)


def session(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    *,
    config: FastFTConfig | None = None,
    feature_names: list[str] | None = None,
    callbacks: list[Callback] | None = None,
    evaluator: DownstreamEvaluator | None = None,
    cache: EvaluationCache | None = None,
    **config_overrides: Any,
) -> SearchSession:
    """Build an unstarted :class:`SearchSession` with facade conveniences
    (keyword config overrides and optional cached evaluation)."""
    cfg = _resolve_config(config, config_overrides)
    if cache is not None:
        evaluator = cache.wrap(evaluator or default_evaluator(task, cfg))
    return SearchSession(
        X,
        y,
        task=task,
        config=cfg,
        feature_names=feature_names,
        evaluator=evaluator,
        callbacks=callbacks,
    )


def search(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    *,
    config: FastFTConfig | None = None,
    feature_names: list[str] | None = None,
    callbacks: list[Callback] | None = None,
    evaluator: DownstreamEvaluator | None = None,
    cache: EvaluationCache | None = None,
    time_budget: float | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 1,
    **config_overrides: Any,
) -> FastFTResult:
    """Run one full FastFT search and return its :class:`FastFTResult`.

    ``time_budget`` (seconds) and ``checkpoint_path`` attach the matching
    built-in callbacks; any :class:`FastFTConfig` field can be overridden
    by keyword (``api.search(X, y, episodes=20, seed=1)``).
    """
    callbacks = list(callbacks or [])
    if time_budget is not None:
        callbacks.append(TimeBudget(time_budget))
    if checkpoint_path is not None:
        callbacks.append(Checkpointer(checkpoint_path, every_episodes=checkpoint_every))
    return session(
        X,
        y,
        task,
        config=config,
        feature_names=feature_names,
        callbacks=callbacks,
        evaluator=evaluator,
        cache=cache,
        **config_overrides,
    ).run()


def fit_transform(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    **kwargs: Any,
) -> np.ndarray:
    """Search, then return the transformed feature matrix T*(X)."""
    return search(X, y, task, **kwargs).transform(np.asarray(X, dtype=float))


def run_batch(
    jobs: Iterable,
    *,
    config: FastFTConfig | None = None,
    callbacks_factory: Callable[[str], list[Callback]] | None = None,
    cache: EvaluationCache | None = None,
    time_budget: float | None = None,
    n_jobs: int = 1,
    **config_overrides: Any,
) -> dict[str, FastFTResult]:
    """Run FastFT over several datasets.

    ``jobs`` yields :class:`repro.data.Dataset` objects, mappings with
    ``X``/``y`` (plus optional ``name``/``task``/``feature_names``), or
    ``(name, X, y, task)`` tuples. ``callbacks_factory(name) -> list``
    builds per-job observers; ``time_budget`` applies per job. Returns
    ``{name: FastFTResult}`` in input order.

    ``n_jobs`` schedules whole jobs across a process pool (``-1`` = all
    cores). Results stay in input order and each job's result is
    bit-identical to a serial run; duplicate job names are rejected
    *before* any work launches, on both paths. Serially, the jobs share
    one evaluation cache (``cache``, or a fresh one). Under parallelism
    each job runs on its own cache seeded from ``cache`` and its new
    entries merge back into ``cache`` in input order, so jobs with
    identical data may report more ``n_downstream_calls`` than serially;
    ``callbacks_factory`` observers receive relayed
    :class:`~repro.core.parallel.SessionView` events instead of the live
    session.
    """
    orchestrator = SearchOrchestrator(
        n_jobs,
        cache=cache,
        callbacks_factory=callbacks_factory,
        time_budget=time_budget,
    )
    return orchestrator.run_batch(jobs, config=config, **config_overrides)


def sweep(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "classification",
    *,
    seeds: Iterable[int] = (0, 1, 2),
    n_jobs: int = 1,
    config: FastFTConfig | None = None,
    feature_names: list[str] | None = None,
    callbacks_factory: Callable[[str], list[Callback]] | None = None,
    cache: EvaluationCache | None = None,
    time_budget: float | None = None,
    backend: str = "pool",
    sweep_dir: "str | Path | None" = None,
    lease_timeout: float = 30.0,
    max_retries: int = 2,
    allow_partial: bool = False,
    **config_overrides: Any,
) -> SweepResult:
    """Run the paper's multi-seed protocol: one seeded search per seed.

    Returns a :class:`~repro.core.parallel.SweepResult` — per-seed
    :class:`FastFTResult`\\ s, ``score_mean``/``score_std`` for
    Table-I-style rows, and ``best`` selected by score with a
    deterministic seed-order tie-break. ``n_jobs`` fans seeds out across
    worker processes; every per-seed result is bit-identical to the same
    seed run serially (see :mod:`repro.core.parallel`).

    ``backend`` selects the execution substrate:

    - ``"pool"`` (default): the in-process orchestrator above.
    - ``"jobfile"``: the crash-safe file-backed fleet
      (:mod:`repro.jobs`) — one resumable job per seed under
      ``sweep_dir`` (a temp dir when ``None``), coordinated through
      lease files and a durable oracle cache. Per-seed results are
      bit-identical to the pool's, including across worker crashes.
      ``lease_timeout``/``max_retries`` tune reclaim and retry;
      ``allow_partial=True`` returns a partial result with
      ``failed_seeds`` instead of raising when seeds exhaust their
      retries. ``callbacks_factory`` and ``time_budget`` are
      pool-only (live callbacks cannot cross a crash boundary, and a
      deadline would break run-to-run determinism) — passing them
      with this backend raises.
    """
    n_jobs = procs.resolve_workers(n_jobs)
    if backend == "jobfile":
        if callbacks_factory is not None:
            raise ValueError(
                "callbacks_factory is not supported with backend='jobfile': "
                "fleet workers run in independent (possibly remote) processes "
                "and may restart at any point, so live callbacks cannot be "
                "delivered; use backend='pool' or attach callbacks per-job "
                "via repro.jobs.run_job(extra_callbacks=...)"
            )
        if time_budget is not None:
            raise ValueError(
                "time_budget is not supported with backend='jobfile': a "
                "wall-clock cutoff would make the result depend on crash/retry "
                "timing and break the backend's bit-identity contract; "
                "use backend='pool' for budgeted exploratory runs"
            )
        from repro.jobs import run_jobfile_sweep

        return run_jobfile_sweep(
            X,
            y,
            task,
            seeds=seeds,
            config=config,
            feature_names=feature_names,
            sweep_dir=None if sweep_dir is None else os.fspath(sweep_dir),
            n_workers=n_jobs,
            lease_timeout=lease_timeout,
            max_retries=max_retries,
            allow_partial=allow_partial,
            cache=cache,
            **config_overrides,
        )
    if backend != "pool":
        raise ValueError(f"unknown sweep backend {backend!r}; choose 'pool' or 'jobfile'")
    orchestrator = SearchOrchestrator(
        n_jobs,
        cache=cache,
        callbacks_factory=callbacks_factory,
        time_budget=time_budget,
    )
    return orchestrator.sweep(
        X,
        y,
        task,
        seeds=seeds,
        config=config,
        feature_names=feature_names,
        **config_overrides,
    )


# -- serving -------------------------------------------------------------------


def _resolve_registry(registry: "str | Path | ArtifactRegistry") -> ArtifactRegistry:
    return registry if isinstance(registry, ArtifactRegistry) else ArtifactRegistry(registry)


def export(
    result: FastFTResult,
    X,
    y,
    *,
    path: str | Path | None = None,
    registry: "str | Path | ArtifactRegistry | None" = None,
    name: str | None = None,
    tag: str | None = None,
    model=None,
    **extra_manifest,
) -> tuple[PipelineArtifact, str | None]:
    """Package a finished search as a servable :class:`PipelineArtifact`.

    Fits the downstream model on ``T*(X)`` (see
    :meth:`FastFTResult.to_artifact`) and optionally persists the bundle:
    ``path`` saves an artifact directory, ``registry`` + ``name`` publishes
    a new registry version (``tag`` promotes it, e.g. ``"prod"``). Returns
    ``(artifact, version)`` — ``version`` is the published registry version
    string, or ``None`` when not publishing.
    """
    if path is not None and registry is not None:
        raise ValueError("Pass path or registry, not both")
    artifact = result.to_artifact(X, y, model=model, **extra_manifest)
    version = None
    if registry is not None:
        if name is None:
            raise ValueError("Publishing to a registry requires a name")
        version = _resolve_registry(registry).publish(artifact, name, tag=tag)
    elif path is not None:
        artifact.save(path)
    return artifact, version


def load_pipeline(
    path: str | Path | None = None,
    *,
    registry: "str | Path | ArtifactRegistry | None" = None,
    name: str | None = None,
    version: int | str | None = None,
    tag: str | None = None,
) -> PipelineArtifact:
    """Load a pipeline artifact from a directory or a registry.

    ``load_pipeline("artifact/")`` reads a saved directory;
    ``load_pipeline(registry="reg/", name="churn", tag="prod")`` resolves
    through an :class:`ArtifactRegistry` (``version``/``tag`` optional —
    default latest).
    """
    if (path is None) == (registry is None):
        raise ValueError("Pass exactly one of path or registry")
    if path is not None:
        return PipelineArtifact.load(path)
    if name is None:
        raise ValueError("Loading from a registry requires a name")
    return _resolve_registry(registry).get(name, version=version, tag=tag)


def serve(
    artifact: "PipelineArtifact | str | Path",
    host: str = "127.0.0.1",
    port: int = 8000,
    **server_kwargs,
) -> InferenceServer:
    """Build an :class:`InferenceServer` for an artifact (or its directory).

    The server is bound but not yet serving: call ``.start()`` for a
    background thread or ``.serve_forever()`` to block. ``server_kwargs``
    forward to :class:`InferenceServer` (``max_wait_ms``,
    ``max_batch_rows``, ``max_requests``, ``max_queue``, ``deadline_ms``,
    ...). For registry-backed serving with hot reload or shadow routing,
    use :func:`serve_from_registry`.
    """
    if not isinstance(artifact, PipelineArtifact):
        artifact = PipelineArtifact.load(artifact)
    return InferenceServer(artifact, host=host, port=port, **server_kwargs)


def serve_from_registry(
    registry: "str | Path | ArtifactRegistry",
    name: str,
    *,
    version: "int | str | None" = None,
    tag: str | None = None,
    reload: bool = False,
    shadow_tag: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    **server_kwargs,
) -> InferenceServer:
    """Build an :class:`InferenceServer` resolved through a registry.

    The served artifact is labeled with its registry version (responses
    carry it as ``artifact_version``). ``reload=True`` wires
    ``POST /admin/reload`` to re-resolve ``tag`` (or latest) and hot-swap
    the new version with zero downtime; ``shadow_tag`` mirrors live
    traffic onto that tag's artifact and counts output divergences.
    """
    reg = _resolve_registry(registry)
    resolved = reg.resolve_version(name, version=version, tag=tag)
    artifact = reg.get(name, version=resolved)
    reload_source = None
    if reload:
        if version is not None:
            raise ValueError(
                "reload re-resolves a tag (or latest); it cannot follow a pinned version"
            )

        def reload_source():
            current = reg.resolve_version(name, tag=tag)
            return reg.get(name, version=current), current

    shadow_artifact = shadow_version = None
    if shadow_tag is not None:
        shadow_version = reg.resolve_version(name, tag=shadow_tag)
        shadow_artifact = reg.get(name, version=shadow_version)
    return InferenceServer(
        artifact,
        host=host,
        port=port,
        version=resolved,
        reload_source=reload_source,
        shadow_artifact=shadow_artifact,
        shadow_version=shadow_version,
        **server_kwargs,
    )
