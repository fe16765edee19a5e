"""Sweep workload: ``api.sweep`` over 4 seeds with the default (pool)
backend and ``n_jobs=2`` on a small classification problem.

This is the workload that starts worker processes through
``core.parallel`` and shares the cross-process ``SharedEvaluationCache``.
Work done inside the workers is read from the per-seed results they
return.
"""

from __future__ import annotations

import contextlib
import itertools
import time

from repro import api
from repro.data.registry import load_dataset

from common import (
    WORK,
    Outcome,
    ProbedUnits,
    median,
    pool_probe,
    no_children_left,
    peak_rss_mb,
    result_digest,
    time_setup_children,
)
from layers import LayerTrace
from search_workloads import DATA_SEED

DATASET, SCALE = "pima_indian", 0.5  # 384 x 8, binary
# Short searches (5 oracle calls each, 3-fold CV) keep one sweep near 3 s,
# so a run makes several and pool start-up stays a visible share.
CONFIG = {"episodes": 2, "steps_per_episode": 2, "cold_start_episodes": 1,
          "component_epochs": 5, "cv_splits": 3}
N_SEEDS = 4
N_JOBS = 2
MIN_SWEEPS = 3


def load(_name: str):
    return load_dataset(DATASET, scale=SCALE, seed=DATA_SEED)


def seed_set(seed: int, i: int) -> list[int]:
    """The search seeds of sweep ``i`` of a run with workload seed ``seed``."""
    return [1000 * seed + N_SEEDS * i + j for j in range(N_SEEDS)]


def requested_evaluations(result) -> int:
    """Oracle lookups a search made: the base score, every real step, and
    the validation of a predictor-scored best plan when it ran."""
    real = [r.score for r in result.history if r.is_real]
    pseudo = [r.score for r in result.history if not r.is_real]
    validated = bool(pseudo) and max(pseudo) > max([result.base_score, *real])
    return 1 + len(real) + int(validated)


def sweep_counts(result) -> dict:
    """Counts a seed's search determines exactly, whatever the pool does."""
    return {"session.step": len(result.history), "lookups": requested_evaluations(result)}


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    data = load(name)
    out = Outcome()
    layer = LayerTrace() if trace else None

    def sweep(seeds: list[int], traced: bool = False):
        t0 = time.perf_counter()
        with layer if traced else contextlib.nullcontext():
            swept = api.sweep(data.X, data.y, data.task, seeds=seeds, n_jobs=N_JOBS, **CONFIG)
        wall = time.perf_counter() - t0
        out.check("workers_reaped", no_children_left())
        out.attempted += len(seeds)
        out.failed += len(swept.failed_seeds)
        return wall, swept

    # Each sweep of a run gets its own seeds; the medians over the sweeps
    # are reported (one sweep's wall time moves by 30% between seed sets).
    # One seed's pooled result must equal a serial search with that seed
    # (n_downstream_calls aside: the shared cache may save oracle calls).
    # The serial search runs first, unmeasured, and warms the process up.
    first_seeds = seed_set(seed, 0)
    reference = api.search(data.X, data.y, data.task, seed=first_seeds[0], **CONFIG)
    out.attempted += 1
    # Measured sweeps, each between two runs of the pool probe.
    sweeps, probed = [], ProbedUnits(pool_probe)

    def measured(seeds: list[int]) -> None:
        wall, swept = sweep(seeds)
        probed.add(wall)
        sweeps.append((wall, swept))

    start = time.perf_counter()
    measured(first_seeds)
    first = sweeps[0][1]
    out.check("seed_equals_serial_search",
              result_digest(first[first_seeds[0]]) == result_digest(reference))
    for i in itertools.count(1):
        if trace or (len(sweeps) >= MIN_SWEEPS
                     and time.perf_counter() - start + sweeps[-1][0] > seconds):
            break
        measured(seed_set(seed, i))
    if trace:
        # The first sweep once more, traced: it must repeat exactly, with
        # the same steps and oracle lookups per seed. Which lookups hit the
        # shared cache depends on how the two workers interleave, so the
        # real oracle calls (and the hits) are reported, not compared.
        t_traced = time.perf_counter()
        traced_wall, traced = sweep(first_seeds, traced=True)
        out.check("repeats_exactly", [result_digest(r) for r in traced]
                  == [result_digest(r) for r in first])
        out.check("counts_repeat", [sweep_counts(r) for r in traced]
                  == [sweep_counts(r) for r in first])
    rss = peak_rss_mb()

    walls = [wall for wall, _ in sweeps]
    out.end_to_end = {
        "setup_s": time_setup_children(
            ["perfbench/setup_child.py", "--workload", name, "--seed", str(seed)]
        ),
        "latency_p50_rel": probed.relative(),
        "best_score": median(swept.best.best_score for _, swept in sweeps),
        "peak_rss_mb": rss,
    }
    out.notes = {"sweep_s": walls, "probe_s": probed.probes, "scores": [swept.scores.tolist() for _, swept in sweeps],
                 "oracle_calls": [[r.n_downstream_calls for r in swept] for _, swept in sweeps]}
    if trace:
        results = list(traced)
        out.notes["traced_oracle_calls"] = [r.n_downstream_calls for r in results]
        busy = sum(r.time.overall for r in results)
        steps = sum(len(r.history) for r in results)
        lookups = sum(requested_evaluations(r) for r in results)
        calls = sum(r.n_downstream_calls for r in results)
        out.per_layer = {
            # Taken from what the worker processes return.
            "session.step.calls": steps,
            "session.evaluated_ratio": calls / steps,
            "evaluation.calls": calls,
            "evaluation.busy_s": sum(r.time.evaluation for r in results),
            "cache.hit_ratio": max(0, lookups - calls) / lookups,
            "parallel.worker_busy_s": busy,
            "parallel.efficiency": busy / (traced_wall * N_JOBS),
            "seeds_per_min": 60.0 * N_SEEDS / median(walls),
            "latency_p50_ms": 1e3 * median(walls),
            "probe_ms": 1e3 * median(probed.probes),
            "error_rate": out.failed / out.attempted,
            "trace.overhead_ratio": traced_wall / walls[0],
        }
        path = WORK / f"trace-{name}-{seed}.jsonl"
        layer.write(str(path), name, t_traced, traced_wall, {"workload": name, "seed": seed})
        out.notes["trace_file"] = str(path)
    return out
