"""Sweep-throughput bench — serial vs process-pool multi-seed search.

The paper's reporting protocol repeats every seeded search and averages;
``repro.core.parallel`` exists so that protocol stops costing N× wall clock on
one core. This benchmark runs the same 4-seed sweep serially and through
``SearchOrchestrator`` workers, verifies the per-seed results are
*bit-identical* (plan JSON and score reprs — the determinism contract that
makes the parallel path trustworthy), and records the wall-clock ratio.

Timing notes: like fig10, this is a wall-time ratio and therefore
contention-sensitive (``@pytest.mark.serial``; see the fig10 caveat in the
repo notes — never time it while other CPU-heavy work runs). The arms run in
``ROUNDS`` interleaved rounds that alternate which arm goes first, so
background load that drifts during the run lands on both; the floor applies
to the median of the per-round serial/parallel ratios, and the report gives
every round and the quartiles as the noise around it. On a 1-core runner a
process pool cannot beat serial execution, so the speedup assertion is
skipped there after the identity checks and the report still records what
was measured; the floor scales with the cores available (>= 1.5x needs the
4 workers to actually have ~4 cores).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import api

N_SEEDS = 4
ROUNDS = 5
ARMS = ("serial", "parallel")


def _sweep_problem(n: int = 150, d: int = 5):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
    return X, y


def _sweep_config(profile) -> dict:
    # The smoke profile bounds CI time; larger profiles lengthen the
    # per-seed search so the pool's fork/manager overhead amortizes.
    smoke = profile.name == "smoke"
    return dict(
        episodes=3 if smoke else max(4, profile.episodes),
        steps_per_episode=3 if smoke else max(4, profile.steps_per_episode),
        cold_start_episodes=1,
        retrain_every_episodes=1,
        component_epochs=2,
        trigger_warmup=2,
        cv_splits=3 if smoke else profile.cv_splits,
        rf_estimators=6 if smoke else profile.rf_estimators,
        max_clusters=3,
        mi_max_rows=64,
    )


def _digests(sweep: "api.SweepResult") -> dict[int, str]:
    return {
        s: sweep[s].plan.to_json() + repr(sweep[s].best_score) + repr(sweep[s].base_score)
        for s in sweep.seeds
    }


@pytest.mark.serial
def test_sweep_throughput(profile, save_report):
    cpu = os.cpu_count() or 1
    n_workers = min(4, cpu)
    seeds = list(range(N_SEEDS))
    X, y = _sweep_problem()
    cfg = _sweep_config(profile)
    n_jobs = {"serial": 1, "parallel": n_workers}

    seconds = {arm: [] for arm in ARMS}
    digests = []
    sweeps = {}
    for round_ in range(ROUNDS):
        for arm in ARMS if round_ % 2 == 0 else ARMS[::-1]:
            start = time.perf_counter()
            sweeps[arm] = api.sweep(
                X, y, "classification", seeds=seeds, n_jobs=n_jobs[arm], **cfg
            )
            seconds[arm].append(time.perf_counter() - start)
            digests.append(_digests(sweeps[arm]))
    identical = all(d == digests[0] for d in digests)
    ratios = np.array(seconds["serial"]) / np.array(seconds["parallel"])
    q1, speedup, q3 = np.percentile(ratios, [25, 50, 75])

    spread = (
        f"[quartiles {q1:.2f}x–{q3:.2f}x; rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
        + "]"
    )
    floor = 1.5 if cpu >= 4 else 1.05
    # A sub-1x "speedup" on one core reads like a regression when it is
    # just physics; say explicitly that the floor is skipped.
    floor_note = (
        f"skipped: n_cores={cpu}, a process pool cannot beat serial on one core"
        if cpu < 2 else f"floor {floor}x"
    )
    lines = [
        "Sweep throughput — api.sweep, serial vs SearchOrchestrator process pool",
        f"problem: {X.shape[0]} x {X.shape[1]} (binary classification), "
        f"{len(seeds)} seeds, {n_workers} workers on {cpu} core(s), "
        f"median of {ROUNDS} interleaved rounds (arm order alternates)",
        f"{'mode':10s} {'seconds':>9s} {'mean':>9s} {'std':>9s}",
    ]
    for arm in ARMS:
        lines.append(
            f"{arm:10s} {float(np.median(seconds[arm])):9.3f} "
            f"{sweeps[arm].score_mean:9.4f} {sweeps[arm].score_std:9.4f}"
        )
    lines.append(
        f"speedup (median of per-round ratios): {speedup:.2f}x  {spread}  "
        f"({floor_note}; per-seed results bit-identical in every round: {identical})"
    )
    save_report("sweep_throughput", "\n".join(lines))
    # Bit-identity is the hard guarantee regardless of core count:
    # plan JSON and score reprs match seed-for-seed, in every round.
    assert identical
    if cpu < 2:
        pytest.skip(
            "parallel sweep speedup needs >= 2 cores (timing ratios are "
            "meaningless on a 1-core runner; identity checks above ran)"
        )
    assert speedup >= floor, (
        f"parallel sweep too slow: median paired ratio {speedup:.2f}x vs serial "
        f"{spread} with {n_workers} workers on {cpu} cores (floor {floor}x)"
    )
