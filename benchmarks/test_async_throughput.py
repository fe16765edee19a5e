"""Async-oracle throughput bench — serial vs overlapped downstream CV.

Table II's breakdown says downstream evaluation dominates FastFT's wall
clock; the serial arm pays ``optimization + estimation + evaluation`` as a
straight sum because every triggered CV runs inline. The async oracle
(``oracle_mode="async"``) submits triggered evaluations to worker
processes and keeps stepping on the predictor's φ estimates, so with
enough cores the wall-clock floor drops toward
``max(evaluation, optimization + estimation)`` — the buckets overlap
instead of adding.

This benchmark runs the same seeded search three ways:

- ``serial``      — the reference arm; its bucket sum is the baseline,
- ``async-inline``— ``oracle_workers=0``, the arm that *defines* the
  async trajectory (deferral without concurrency),
- ``async-pool``  — real workers; must reproduce the inline arm
  bit-for-bit (the determinism contract) while beating the serial sum.

The oracle is the real cross-validated evaluator padded to a per-call
wall floor, modeling the paper's expensive-oracle regime at smoke scale;
the padded portion parallelizes across workers exactly like real fold
compute. Timing notes: wall-time ratio, contention-sensitive
(``@pytest.mark.serial``). The serial and pooled arms run in ``ROUNDS``
interleaved rounds that alternate which arm goes first; each round pairs
the pooled wall with that round's serial bucket sum, and the floor applies
to the median of those ratios, with every round and the quartiles in the
report as the noise around it. The identity assertion (every pooled round
against one inline run) runs unconditionally; the overlap floor (pool wall
<= 0.75x the serial bucket sum) only holds when the workers have real
cores, so on fewer than 4 cores the report marks the measured ratio
``skipped: n_cores=N`` and the floor is not asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import api
from repro.ml.evaluation import DownstreamEvaluator

EVAL_FLOOR = 0.25  # seconds per downstream call (smoke); models Table II's regime
ROUNDS = 5
ARMS = ("serial", "async-pool")


class _PaddedOracle:
    """Real CV with an enforced per-call wall floor.

    Scores are exactly the wrapped evaluator's, so trajectories are real;
    only the *cost* is floored, which keeps the evaluation bucket dominant
    at smoke scale the way full-size CV is at paper scale.
    """

    def __init__(self, inner: DownstreamEvaluator, floor: float) -> None:
        self._inner = inner
        self._floor = floor

    @property
    def task(self) -> str:
        return self._inner.task

    @property
    def n_calls(self) -> int:
        return self._inner.n_calls

    @property
    def total_time(self) -> float:
        return self._inner.total_time

    def reset_counters(self) -> None:
        self._inner.reset_counters()

    def for_worker(self) -> "_PaddedOracle":
        return _PaddedOracle(self._inner.for_worker(), self._floor)

    def __call__(self, X: np.ndarray, y: np.ndarray) -> float:
        start = time.perf_counter()
        score = self._inner(X, y)
        pad = self._floor - (time.perf_counter() - start)
        if pad > 0:
            time.sleep(pad)
        return score

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> float:
        return self(X, y)


def _async_problem(n: int = 400, d: int = 6):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
    return X, y


def _async_config(profile) -> dict:
    smoke = profile.name == "smoke"
    steps = 6 if smoke else 8
    return dict(
        episodes=4 if smoke else 5,
        steps_per_episode=steps,
        cold_start_episodes=1,
        # No per-episode refits: retraining is an episode-boundary cost
        # identical in every arm; this ratio isolates the overlap win.
        retrain_every_episodes=0,
        component_epochs=2,
        trigger_warmup=2,
        # Trigger often (top-60% predicted performance) so several
        # evaluations are in flight per reconcile window.
        alpha=60.0,
        cv_splits=3,
        rf_estimators=6 if smoke else profile.rf_estimators,
        max_clusters=3,
        mi_max_rows=128,
        seed=9,
        # Reconcile once per episode: the widest window the determinism
        # contract allows without crossing a retrain boundary.
        reconcile_every_k=steps,
    )


def _evaluator():
    return DownstreamEvaluator("classification", n_splits=3, seed=0)


def _deterministic_view(result) -> list:
    return [r.deterministic_dict() for r in result.history]


@pytest.mark.serial
def test_async_throughput(profile, save_report):
    cpu = os.cpu_count() or 1
    n_workers = min(4, cpu)
    X, y = _async_problem()
    cfg = _async_config(profile)
    episodes = cfg["episodes"]
    arm_overrides = {
        "serial": dict(oracle_mode="serial"),
        "async-pool": dict(oracle_mode="async", oracle_workers=n_workers),
    }

    def timed_run(**overrides):
        run_cfg = dict(cfg, **overrides)
        evaluator = _PaddedOracle(_evaluator(), EVAL_FLOOR)
        start = time.perf_counter()
        result = api.search(X, y, "classification", evaluator=evaluator, **run_cfg)
        return result, time.perf_counter() - start

    inline, inline_t = timed_run(oracle_mode="async", oracle_workers=0)
    seconds = {arm: [] for arm in ARMS}
    results = {arm: [] for arm in ARMS}
    for round_ in range(ROUNDS):
        for arm in ARMS if round_ % 2 == 0 else ARMS[::-1]:
            result, elapsed = timed_run(**arm_overrides[arm])
            seconds[arm].append(elapsed)
            results[arm].append(result)

    identical = all(
        pooled.plan.to_json() == inline.plan.to_json()
        and repr(pooled.base_score) == repr(inline.base_score)
        and repr(pooled.best_score) == repr(inline.best_score)
        and _deterministic_view(pooled) == _deterministic_view(inline)
        for pooled in results["async-pool"]
    )
    buckets = [serial.time for serial in results["serial"]]  # Table II's per-run seconds
    bucket_sums = np.array([b.overall for b in buckets])
    ratios = np.array(seconds["async-pool"]) / bucket_sums
    q1, ratio, q3 = np.percentile(ratios, [25, 50, 75])
    optimization, estimation, evaluation = (
        float(np.median([getattr(b, name) for b in buckets]))
        for name in ("optimization", "estimation", "evaluation")
    )
    overlap_floor = max(evaluation, optimization + estimation)

    measured = (
        f"async-pool wall = {ratio:.2f}x the serial bucket sum (median of "
        f"per-round ratios) [quartiles {q1:.2f}x–{q3:.2f}x; rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
        + "]"
    )
    floor_note = (
        f"skipped: n_cores={cpu}, the 0.75x floor needs >= 4 cores" if cpu < 4
        else "target <= 0.75x"
    )
    arm_rows = [
        ("serial", float(np.median(seconds["serial"])), results["serial"][0]),
        ("async-inline", inline_t, inline),
        ("async-pool", float(np.median(seconds["async-pool"])), results["async-pool"][0]),
    ]
    lines = [
        "Async-oracle throughput — serial bucket sum vs overlapped evaluation",
        f"problem: {X.shape[0]} x {X.shape[1]} (binary classification), "
        f"{episodes} episodes x {cfg['steps_per_episode']} steps, "
        f"oracle floor {EVAL_FLOOR:.2f}s/call, {n_workers} workers on "
        f"{cpu} core(s), median of {ROUNDS} interleaved rounds (arm order alternates)",
        f"serial buckets (s, medians): optimization {optimization:.3f}  "
        f"estimation {estimation:.3f}  evaluation {evaluation:.3f}  "
        f"sum {float(np.median(bucket_sums)):.3f}",
        f"perfect-overlap floor: max(eval, opt+est) = {overlap_floor:.3f}s "
        f"({overlap_floor / episodes:.3f} s/episode)",
        f"{'arm':14s} {'seconds':>9s} {'s/episode':>10s} {'real evals':>11s}",
        *(
            f"{arm:14s} {secs:9.3f} {secs / episodes:10.3f} {result.n_downstream_calls:11d}"
            for arm, secs, result in arm_rows
        ),
        f"overlap: {measured} ({floor_note}; async-pool == async-inline "
        f"bit-identical in every round: {identical})",
    ]
    save_report("async_throughput", "\n".join(lines))
    # The hard guarantee at any core count: worker timing never leaks
    # into the trajectory — the pool reproduces the inline reference.
    assert identical
    if cpu < 4:
        pytest.skip(
            f"skipped: n_cores={cpu} — the async overlap floor needs >= 4 cores "
            "(identity checks above ran; the report records the skip)"
        )
    assert ratio <= 0.75, (
        f"async oracle overlap too weak: {measured} with {n_workers} workers "
        f"on {cpu} cores"
    )
