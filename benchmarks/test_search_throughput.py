"""Search-throughput bench — arena inner loop vs the seed implementation.

Table II splits FastFT's per-step cost into optimization, estimation and
evaluation; PR 2 and the evaluation cache attacked the evaluation bucket,
and this benchmark tracks the other two. It runs the same seeded search
twice with the downstream oracle mocked out to a constant-time stub — so
wall time is pure optimization + estimation — once on the seed inner loop
kept in ``tests/reference/session.py`` (dict-of-columns FeatureSpace, full
MI/state recomputation per step with the seed's per-pair MI estimator,
separate novelty and embedding encodes) and once on :class:`SearchSession`
(columnar arena, incremental state/MI caches, the batched MI kernel, fused
estimation passes), verifies the two trajectories are
*bit-identical* step for step, and records steps/sec.

Timing notes: like fig10 this is a wall-time ratio and contention-
sensitive (``@pytest.mark.serial`` — never time it while other CPU-heavy
work runs). The matrix stays at the representative 2000 x 30 scale in
every profile (the paper's medium datasets; the 30 originals grow to the
default 90-feature cap so pruning and reclustering are exercised); the
smoke profile only trims the step budget to bound CI time. The arms run
in ``ROUNDS`` interleaved rounds that alternate which arm goes first, so
background load that drifts during the run lands on both arms; the floor
applies to the median of the per-round naive/arena ratios, and the report
gives its quartiles as the noise around it. The identity assertions run
unconditionally; the speedup floor is deliberately below the locally
measured ratio and is skipped on 1-core runners, where the suite's own
background load makes ratios meaningless.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import FastFTConfig
from repro.core.session import SearchSession
from tests.reference.session import ReferenceSession

ROUNDS = 5
MIN_SPEEDUP = 1.5


class _StubOracle:
    """Constant-time downstream stand-in: deterministic, content-dependent
    (the search still sees score structure) and far cheaper than CV."""

    def __init__(self) -> None:
        self.n_calls = 0
        self.total_time = 0.0
        self.task = "classification"

    def __call__(self, X: np.ndarray, y: np.ndarray) -> float:
        self.n_calls += 1
        return 0.5 + 0.05 * float(np.tanh(X[0].sum() + X.shape[1] / 64.0))

    def reset_counters(self) -> None:
        self.n_calls = 0


def _search_problem(n: int = 2000, d: int = 30):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) + 0.25 * rng.normal(size=n) > 0).astype(int)
    return X, y


def _search_config(profile) -> FastFTConfig:
    smoke = profile.name == "smoke"
    return FastFTConfig(
        episodes=3,
        steps_per_episode=5 if smoke else 8,
        cold_start_episodes=1,
        # No per-episode refits: component (re)training is an episode-
        # boundary cost that is identical in both arms (table2 tracks it);
        # this ratio isolates the per-step optimization+estimation path.
        retrain_every_episodes=0,
        component_epochs=2,
        trigger_warmup=2,
        max_clusters=4,
        seed=0,
    )


def _run_arm(arm: str, profile, X, y):
    session_cls = ReferenceSession if arm == "naive" else SearchSession
    session = session_cls(
        X, y, "classification",
        config=_search_config(profile),
        evaluator=_StubOracle(),
    )
    session.start()
    start = time.perf_counter()
    result = session.run()
    return time.perf_counter() - start, result


@pytest.mark.serial
def test_search_throughput(profile, save_report):
    cpu = os.cpu_count() or 1
    X, y = _search_problem()

    seconds = {"naive": [], "arena": []}
    results = {}
    for round_ in range(ROUNDS):
        for arm in ("naive", "arena") if round_ % 2 == 0 else ("arena", "naive"):
            elapsed, result = _run_arm(arm, profile, X, y)
            seconds[arm].append(elapsed)
            if arm in results:  # deterministic across rounds
                assert result.plan.to_json() == results[arm].plan.to_json()
            else:
                results[arm] = result
    naive, arena = results["naive"], results["arena"]
    n_steps = len(naive.history)
    ratios = np.array(seconds["naive"]) / np.array(seconds["arena"])
    q1, speedup, q3 = np.percentile(ratios, [25, 50, 75])

    identical = (
        naive.plan.to_json() == arena.plan.to_json()
        and repr(naive.best_score) == repr(arena.best_score)
        and len(naive.history) == len(arena.history)
        and all(
            a.deterministic_dict() == b.deterministic_dict()
            for a, b in zip(naive.history, arena.history)
        )
    )

    naive_t = float(np.median(seconds["naive"]))
    arena_t = float(np.median(seconds["arena"]))
    lines = [
        "Search throughput — optimization+estimation steps/sec, oracle mocked out",
        f"matrix: {X.shape[0]} x {X.shape[1]} (binary classification), "
        f"{n_steps} steps to the {naive.history[-1].n_features}-feature cap, "
        f"median of {ROUNDS} interleaved rounds (arm order alternates)",
        f"{'inner_loop':12s} {'seconds':>9s} {'steps/sec':>10s}",
        f"{'naive':12s} {naive_t:9.3f} {n_steps / naive_t:10.2f}",
        f"{'arena':12s} {arena_t:9.3f} {n_steps / arena_t:10.2f}",
        f"speedup (median of per-round ratios): {speedup:.2f}x  "
        f"[quartiles {q1:.2f}x–{q3:.2f}x; rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
        + "]",
        f"trajectories bit-identical: {identical}",
    ]
    save_report("search_throughput", "\n".join(lines))
    # Bit-identity is the hard guarantee: the arena inner loop replays
    # the seed implementation's exact decisions, scores and plans.
    assert identical

    if cpu < 2:
        pytest.skip(
            "search-throughput floor needs >= 2 cores (this suite's own "
            "background load skews 1-core wall-time ratios; the identity "
            "checks above ran and the report records the measured ratio)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"arena inner loop too slow: median paired ratio {speedup:.2f}x vs naive "
        f"(quartiles {q1:.2f}x–{q3:.2f}x, floor {MIN_SPEEDUP}x)"
    )
