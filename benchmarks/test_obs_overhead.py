"""Tracing-overhead bench — the ≤5 % budget of the observability layer.

Tracing is only trustworthy if turning it on does not change what it
measures. This benchmark runs the same seeded search twice with the
downstream oracle mocked out to a constant-time stub (wall time is pure
optimization + estimation — the worst case for tracing overhead, since a
real oracle would dwarf it), once bare and once under a
:class:`~repro.obs.TracingCallback` writing a full JSONL trace, then:

- asserts the two trajectories are **bit-identical** step for step (the
  per-PR goldens in ``tests/test_determinism_golden.py`` pin the same
  guarantee against the recorded digests);
- asserts traced steps/sec is within 5 % of untraced;
- writes the sample trace and its ``repro trace`` report next to the
  usual benchmark report (the ``report_dir`` fixture), so CI uploads a
  real trace as an artifact.

Timing notes: wall-time ratio, contention-sensitive
(``@pytest.mark.serial``). The arms run in ``ROUNDS`` interleaved rounds
that alternate which arm goes first, so background load that drifts
during the run lands on both arms; the budget applies to the median of
the per-round traced/bare ratios, and the report gives every pair and
the quartiles. The overhead budget is skipped on 1-core runners and
retried once on fresh timings, like the other ratio benches.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import FastFTConfig
from repro.core.session import SearchSession
from repro.obs import TracingCallback, load_trace, render_trace_report

# benchmarks/ is not a package: pytest puts this directory on sys.path,
# so the sibling bench's shared stub imports as a top-level module.
from test_search_throughput import _search_problem, _StubOracle

# Even, so each arm runs first equally often; single rounds swing by tens
# of percent under host load, so the median needs this many.
ROUNDS = 10
MAX_OVERHEAD = 0.05
ARMS = ("off", "on")


def _obs_config(profile) -> FastFTConfig:
    smoke = profile.name == "smoke"
    return FastFTConfig(
        episodes=3,
        steps_per_episode=5 if smoke else 8,
        cold_start_episodes=1,
        retrain_every_episodes=0,
        component_epochs=2,
        trigger_warmup=2,
        max_clusters=4,
        seed=0,
    )


def _run(profile, X, y, trace_path: str | None):
    callbacks = [TracingCallback(path=trace_path)] if trace_path else None
    session = SearchSession(
        X, y, "classification",
        config=_obs_config(profile),
        evaluator=_StubOracle(),
        callbacks=callbacks,
    )
    session.start()
    start = time.perf_counter()
    result = session.run()
    return time.perf_counter() - start, result


@pytest.mark.serial
def test_obs_overhead(profile, save_report, report_dir):
    cpu = os.cpu_count() or 1
    X, y = _search_problem()
    trace_path = report_dir / "obs_sample_trace.jsonl"

    def measure_and_report() -> float:
        seconds = {arm: [] for arm in ARMS}
        first, last = {}, {}
        for round_ in range(ROUNDS):
            for arm in ARMS if round_ % 2 == 0 else ARMS[::-1]:
                elapsed, result = _run(profile, X, y, str(trace_path) if arm == "on" else None)
                seconds[arm].append(elapsed)
                if arm in first:  # deterministic across rounds
                    assert result.plan.to_json() == first[arm].plan.to_json()
                else:
                    first[arm] = result
                last[arm] = result
        # first carries each arm's trajectory; last["on"] matches the
        # surviving trace file's wall-clock accounting (each round rewrites it).
        bare, traced, traced_last = first["off"], first["on"], last["on"]
        n_steps = len(bare.history)
        ratios = np.array(seconds["on"]) / np.array(seconds["off"])
        q1, median, q3 = np.percentile(ratios, [25, 50, 75])
        overhead = float(median) - 1.0
        bare_t = float(np.median(seconds["off"]))
        traced_t = float(np.median(seconds["on"]))

        identical = (
            bare.plan.to_json() == traced.plan.to_json()
            and repr(bare.best_score) == repr(traced.best_score)
            and len(bare.history) == len(traced.history)
            and all(
                a.deterministic_dict() == b.deterministic_dict()
                for a, b in zip(bare.history, traced.history)
            )
        )

        # The recorded trace must reproduce the run's Table II breakdown
        # exactly (residual spans close the gap to result.time).
        trace = load_trace(str(trace_path))
        buckets = trace.bucket_totals()
        breakdown_exact = (
            abs(buckets["optimization"] - traced_last.time.optimization) < 1e-6
            and abs(buckets["estimation"] - traced_last.time.estimation) < 1e-6
            and abs(buckets["evaluation"] - traced_last.time.evaluation) < 1e-6
        )
        report_path = report_dir / "obs_sample_trace_report.txt"
        report_path.write_text(render_trace_report([str(trace_path)]))

        lines = [
            "Tracing overhead — steps/sec with TracingCallback on vs off, "
            "oracle mocked out",
            f"matrix: {X.shape[0]} x {X.shape[1]} (binary classification), "
            f"{n_steps} steps, median of {ROUNDS} interleaved rounds "
            "(arm order alternates)",
            f"{'tracing':12s} {'seconds':>9s} {'steps/sec':>10s}",
            f"{'off':12s} {bare_t:9.3f} {n_steps / bare_t:10.2f}",
            f"{'on':12s} {traced_t:9.3f} {n_steps / traced_t:10.2f}",
            f"overhead (median of per-round on/off ratios): {overhead * 100:+.2f}%  "
            f"(budget {MAX_OVERHEAD * 100:.0f}%) [quartiles {(q1 - 1) * 100:+.2f}% to "
            f"{(q3 - 1) * 100:+.2f}%; rounds: "
            + ", ".join(f"{(r - 1) * 100:+.2f}%" for r in ratios)
            + "]",
            f"trajectories bit-identical: {identical}",
            f"trace spans: {len(trace.spans)}, Table II breakdown exact: "
            f"{breakdown_exact}",
            f"sample trace: {trace_path.name}, report: {report_path.name}",
        ]
        save_report("obs_overhead", "\n".join(lines))
        # The hard guarantees: tracing never perturbs the trajectory, and
        # the trace reproduces the run's time accounting.
        assert identical
        assert breakdown_exact
        return overhead

    overhead = measure_and_report()
    if cpu < 2:
        pytest.skip(
            "tracing-overhead floor needs >= 2 cores (1-core wall-time "
            "ratios are dominated by the suite's own background load; the "
            "identity checks above ran and the report records the ratio)"
        )
    # Report saved before the ceiling is asserted; one retry on fresh
    # timings guards against background load landing on one arm.
    if overhead > MAX_OVERHEAD:
        overhead = measure_and_report()
    assert overhead <= MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )
