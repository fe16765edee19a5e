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
(``@pytest.mark.serial``); the overhead floor is skipped on 1-core
runners and retried once on fresh timings, like the other ratio benches.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import FastFTConfig
from repro.core.session import SearchSession
from repro.obs import TracingCallback, load_trace, render_trace_report

# benchmarks/ is not a package: pytest puts this directory on sys.path,
# so the sibling bench's shared stub imports as a top-level module.
from test_search_throughput import _search_problem, _StubOracle

ROUNDS = 3
MAX_OVERHEAD = 0.05


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


def _run_arm(profile, X, y, trace_path: str | None):
    best_t = float("inf")
    reference = last = None
    for _ in range(ROUNDS):
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
        best_t = min(best_t, time.perf_counter() - start)
        if reference is None:
            reference = result
        else:
            assert result.plan.to_json() == reference.plan.to_json()
        last = result
    # reference carries the first round's trajectory; last matches the
    # surviving trace file's wall-clock accounting (each round rewrites it).
    return best_t, reference, last


@pytest.mark.serial
def test_obs_overhead(profile, save_report, report_dir):
    cpu = os.cpu_count() or 1
    X, y = _search_problem()
    trace_path = report_dir / "obs_sample_trace.jsonl"

    def measure_and_report() -> float:
        bare_t, bare, _ = _run_arm(profile, X, y, None)
        traced_t, traced, traced_last = _run_arm(profile, X, y, str(trace_path))
        n_steps = len(bare.history)
        overhead = traced_t / bare_t - 1.0

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
            f"{n_steps} steps, best of {ROUNDS} rounds",
            f"{'tracing':12s} {'seconds':>9s} {'steps/sec':>10s}",
            f"{'off':12s} {bare_t:9.3f} {n_steps / bare_t:10.2f}",
            f"{'on':12s} {traced_t:9.3f} {n_steps / traced_t:10.2f}",
            f"overhead: {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)",
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
