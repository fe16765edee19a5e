"""Search workload: one ``api.search`` per unit of work.

``search_explore`` runs the async oracle with one worker on a wide
four-class problem, so the main process spends its time in the inner loop
(decide, apply, prune, recluster, estimate, retrain) while the oracle
overlaps in the worker.
"""

from __future__ import annotations

import contextlib
import itertools
import time

from repro import api
from repro.core.callbacks import Callback
from repro.data.registry import load_dataset

from common import (
    WORK,
    Outcome,
    ProbedUnits,
    median,
    no_children_left,
    peak_rss_mb,
    result_digest,
    time_setup_children,
)
from layers import LayerTrace

# Every unit of work is one short search on a fixed dataset; the workload
# seed picks the search seeds (agents, predictor, CV folds, forests). One
# search's time moves by 25% between seeds and between runs on a shared
# host (a new synthetic dataset per seed moves it as much), so a run makes
# many short searches on distinct seeds and reports medians and
# interquartile means over them.
DATA_SEED = 0

WORKLOADS = {
    "search_explore": {
        "dataset": "jannis",
        "scale": 0.004,  # 334 x 55, 4 classes
        # The 8 post-cold-start steps fall inside the trigger warm-up, so
        # each is submitted to the worker; a cheap oracle (2-fold CV of 3
        # trees) keeps the cold-start evaluations a small share, short
        # component training keeps the retrain from swamping the steps, and
        # a 70-feature cap (pruned every step) and 32-token sequences keep
        # the clustering and retrain costs from swinging with the features
        # and sequences a seed generates.
        "config": {
            "episodes": 3,
            "steps_per_episode": 4,
            "cold_start_episodes": 1,
            "component_epochs": 5,
            "max_features": 70,
            "max_seq_len": 32,
            "oracle_mode": "async",
            "oracle_workers": 1,
            "cv_splits": 2,
            "rf_estimators": 3,
        },
        "min_units": 4,
    },
}


def load(name: str):
    spec = WORKLOADS[name]
    return load_dataset(spec["dataset"], scale=spec["scale"], seed=DATA_SEED)


def search_config(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name]["config"], seed=seed)


class ReconcileCounter(Callback):
    """Counts async evaluations that landed or degraded."""

    def __init__(self) -> None:
        self.landed = 0
        self.degraded = 0

    def on_reconcile(self, session, landed: int, degraded: int) -> None:
        self.landed += landed
        self.degraded += degraded


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    data = load(name)
    out = Outcome()
    counters = []

    def search(search_seed: int, layer: LayerTrace | None = None, **overrides):
        """One fresh search (fresh evaluator, no cache carried over),
        traced by ``layer`` when one is given."""
        config = dict(search_config(name, search_seed), **overrides)
        counter = ReconcileCounter()
        t0 = time.perf_counter()
        with layer if layer is not None else contextlib.nullcontext():
            result = api.search(data.X, data.y, data.task, callbacks=[counter], **config)
        wall = time.perf_counter() - t0
        out.check("workers_reaped", no_children_left())
        counters.append(counter)
        out.attempted += 1
        return wall, result

    seeds = itertools.count(1000 * seed)
    first_seed = next(seeds)
    # The first seed's inline arm (oracle_workers=0) comes first and is not
    # measured: it warms the process up, and the documented async contract
    # is that a pooled run is bit-identical to it.
    _, reference = search(first_seed, oracle_workers=0)
    # Measured units, each between two runs of the CPU probe.
    units, probed = [], ProbedUnits()

    def measured(search_seed: int) -> None:
        wall, result = search(search_seed)
        probed.add(wall)
        units.append((wall, result))

    start = time.perf_counter()
    measured(first_seed)
    first = units[0][1]
    out.check("equals_inline_arm", result_digest(first) == result_digest(reference))
    out.check("counts_repeat", result_counts(first) == result_counts(reference))
    while not trace and (len(units) < spec["min_units"]
                         or time.perf_counter() - start + units[-1][0] <= seconds):
        measured(next(seeds))
    if trace:
        # The first seed twice more, traced: both must reproduce it, and
        # every layer call count must repeat exactly. The untraced first
        # unit is the baseline of the tracing overhead.
        traced_runs = []
        for _ in range(2):
            layer = LayerTrace()
            t_again = time.perf_counter()
            wall_again, again = search(first_seed, layer)
            out.check("repeats_exactly", result_digest(again) == result_digest(first))
            out.check("counts_repeat", result_counts(again) == result_counts(first))
            traced_runs.append(layer_counts(layer))
        out.check("layer_counts_repeat", traced_runs[0] == traced_runs[1])
        out.notes["layer_counts"] = traced_runs[0]
        out.notes["traced_search_s"] = wall_again
    out.failed += sum(c.degraded for c in counters)
    rss = peak_rss_mb()

    walls = [wall for wall, _ in units]
    out.end_to_end = {
        "setup_s": time_setup_children(
            ["perfbench/setup_child.py", "--workload", name, "--seed", str(seed)]
        ),
        "latency_p50_rel": probed.relative(),
        "best_score": median(result.best_score for _, result in units),
        "peak_rss_mb": rss,
    }
    out.notes.update({
        "search_s": walls,
        "probe_s": probed.probes,
        "n_downstream_calls": [result.n_downstream_calls for _, result in units],
        "time": vars(first.time),
    })
    if trace:
        out.per_layer = layer_metrics(layer, again, wall_again / units[0][0])
        out.per_layer["search_s"] = median(walls)
        out.per_layer["latency_p50_ms"] = 1e3 * median(walls)
        out.per_layer["probe_ms"] = 1e3 * median(probed.probes)
        submitted = sum(c.landed + c.degraded for c in counters)
        out.per_layer["error_rate"] = out.failed / submitted if submitted else 0.0
        path = WORK / f"trace-{name}-{seed}.jsonl"
        layer.write(str(path), name, t_again, wall_again, {"workload": name, "seed": seed})
        out.notes["trace_file"] = str(path)
    return out


def result_counts(result) -> dict:
    """Counts a search determines: steps, and real oracle calls (no cache
    is passed, so there are no cache hits)."""
    return {"session.step": len(result.history), "oracle_calls": result.n_downstream_calls}


# Layer call counts that a seeded search determines exactly.
COUNTED_LAYERS = ("session.step", "evaluation", "forest.fit", "tree.fit",
                  "predictor.predict_batch", "async_oracle.submit")


def layer_counts(layer: LayerTrace) -> dict:
    totals = layer.totals()
    counts = {name: totals[name]["calls"] for name in COUNTED_LAYERS}
    counts["worker_evaluations"] = layer.worker_evaluations
    return counts


def layer_metrics(layer: LayerTrace, result, overhead_ratio: float) -> dict:
    """Per-layer numbers of one traced search."""
    totals = layer.totals()

    def busy(name: str) -> float:
        return totals[name]["busy_s"]

    def calls(name: str) -> int:
        return totals[name]["calls"]

    eval_calls = calls("evaluation") + layer.worker_evaluations
    steps = len(result.history)
    return {
        "session.step.calls": calls("session.step"),
        "session.step.self_s": totals["session.step"]["self_s"],
        "session.evaluated_ratio": result.n_downstream_calls / steps,
        "agents.decide.busy_s": busy("agents.decide"),
        "agents.optimize.busy_s": busy("agents.optimize"),
        "sequence.apply.busy_s": busy("sequence.apply"),
        "sequence.prune.busy_s": busy("sequence.prune"),
        "sequence.matrix.busy_s": busy("sequence.matrix"),
        "clustering.cluster.busy_s": busy("clustering.cluster"),
        "state.describe.busy_s": busy("state.describe"),
        "predictor.predict_batch.calls": calls("predictor.predict_batch"),
        "predictor.predict_batch.busy_s": busy("predictor.predict_batch"),
        "predictor.fit.busy_s": busy("predictor.fit"),
        "novelty.score_with_embedding.busy_s": busy("novelty.score_with_embedding"),
        "novelty.fit.busy_s": busy("novelty.fit"),
        "async_oracle.submit.calls": calls("async_oracle.submit"),
        "async_oracle.drain.wait_s": busy("async_oracle.drain"),
        "async_oracle.degraded": layer.degraded,
        "evaluation.calls": eval_calls,
        "evaluation.busy_s": busy("evaluation"),
        "evaluation.useful_ratio": layer.useful_evaluations() / eval_calls,
        "forest.fit.calls": calls("forest.fit"),
        "forest.fit.busy_s": busy("forest.fit"),
        "tree.fit.calls": calls("tree.fit"),
        "forest.predict.busy_s": busy("forest.predict"),
        "trace.overhead_ratio": overhead_ratio,
    }
