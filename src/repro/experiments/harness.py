"""Shared experiment plumbing: build configured methods and run them on datasets.

FastFT runs go through the session/callback API (:mod:`repro.api`), so
callers can attach observers (history collectors, time budgets,
checkpointers) or a shared :class:`repro.api.EvaluationCache` without
touching the experiment code.
"""

from __future__ import annotations

import time

import numpy as np

from repro import api
from repro.baselines import BASELINE_REGISTRY
from repro.baselines.base import BaselineResult
from repro.core.callbacks import Callback
from repro.core.config import FastFTConfig
from repro.core.result import FastFTResult
from repro.data import Dataset, load_dataset
from repro.experiments.profiles import RunProfile

__all__ = [
    "make_fastft_config",
    "make_baseline",
    "load_profile_dataset",
    "run_fastft_on_dataset",
    "run_fastft_sweep_on_dataset",
    "run_baseline_on_dataset",
    "METHOD_ORDER",
]

# Table I column order (left to right).
METHOD_ORDER = [
    "rfg", "erg", "lda", "aft", "nfs", "ttg", "difer", "openfe", "caafe", "grfg", "fastft",
]


def make_fastft_config(
    profile: RunProfile, seed: int | None = 0, **overrides
) -> FastFTConfig:
    """FastFT config wired to a run profile, with per-experiment overrides."""
    base = dict(
        episodes=profile.episodes,
        steps_per_episode=profile.steps_per_episode,
        cold_start_episodes=profile.cold_start_episodes,
        retrain_every_episodes=profile.retrain_every_episodes,
        component_epochs=profile.component_epochs,
        trigger_warmup=profile.trigger_warmup,
        max_clusters=profile.max_clusters,
        mi_max_rows=profile.mi_max_rows,
        cv_splits=profile.cv_splits,
        rf_estimators=profile.rf_estimators,
        oracle_mode=profile.oracle_mode,
        reconcile_every_k=profile.reconcile_every_k,
        oracle_workers=profile.oracle_workers,
        seed=seed,
    )
    base.update(overrides)
    return FastFTConfig(**base)


def make_baseline(name: str, profile: RunProfile, seed: int | None = 0, **overrides):
    """Instantiate a registry baseline with the profile's budget."""
    if name not in BASELINE_REGISTRY:
        raise KeyError(f"Unknown baseline {name!r}. Available: {sorted(BASELINE_REGISTRY)}")
    kwargs = dict(profile.baseline_kwargs.get(name, {}))
    kwargs.update(cv_splits=profile.cv_splits, rf_estimators=profile.rf_estimators, seed=seed)
    kwargs.update(overrides)
    return BASELINE_REGISTRY[name](**kwargs)


def load_profile_dataset(name: str, profile: RunProfile, seed: int = 0) -> Dataset:
    return load_dataset(
        name, scale=profile.dataset_scale, seed=seed, max_samples=profile.max_samples
    )


def run_fastft_on_dataset(
    dataset: Dataset,
    profile: RunProfile,
    seed: int | None = 0,
    callbacks: list[Callback] | None = None,
    cache: "api.EvaluationCache | None" = None,
    **config_overrides,
) -> tuple[FastFTResult, float]:
    """Run FastFT via the session API; returns (result, wall_seconds).

    ``callbacks`` attaches observers (e.g. a
    :class:`~repro.core.callbacks.HistoryCollector` for a streaming view,
    or a ``TimeBudget``) and ``cache`` shares downstream-evaluation
    results across runs.
    """
    config = make_fastft_config(profile, seed=seed, **config_overrides)
    start = time.perf_counter()
    result = api.search(
        dataset.X,
        dataset.y,
        dataset.task,
        config=config,
        feature_names=dataset.feature_names,
        callbacks=callbacks,
        cache=cache,
    )
    return result, time.perf_counter() - start


def run_fastft_sweep_on_dataset(
    dataset: Dataset,
    profile: RunProfile,
    seeds: list[int],
    n_jobs: int = 1,
    cache: "api.EvaluationCache | None" = None,
    **config_overrides,
) -> tuple["api.SweepResult", float]:
    """The multi-seed protocol behind mean ± std table rows.

    Runs one seeded FastFT search per seed through
    :class:`repro.core.parallel.SearchOrchestrator` and returns
    ``(sweep_result, wall_seconds)``. This is the opt-in parallel path for
    multi-seed tables: ``n_jobs>1`` fans the seeds across worker processes
    sharing one oracle cache, with per-seed results bit-identical to the
    serial protocol (so a table regenerated in parallel matches one
    regenerated serially, entry for entry). ``mean_std(sweep.scores)``
    gives the reportable pair.
    """
    config = make_fastft_config(profile, seed=seeds[0] if seeds else 0, **config_overrides)
    start = time.perf_counter()
    sweep = api.sweep(
        dataset.X,
        dataset.y,
        dataset.task,
        seeds=seeds,
        n_jobs=n_jobs,
        config=config,
        feature_names=dataset.feature_names,
        cache=cache,
    )
    return sweep, time.perf_counter() - start


def run_baseline_on_dataset(
    name: str, dataset: Dataset, profile: RunProfile, seed: int | None = 0, **overrides
) -> BaselineResult:
    method = make_baseline(name, profile, seed=seed, **overrides)
    return method.fit(dataset.X, dataset.y, task=dataset.task, feature_names=dataset.feature_names)


def mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())
