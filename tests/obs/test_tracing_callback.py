"""TracingCallback on a real search: structure, exactness, aggregation.

The trajectory-identity side of the guarantee lives with the goldens
(``tests/test_determinism_golden.py::TestTracingGolden``); here we pin the
*trace* side — what a traced run writes and how multiple traces merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.obs import (
    BUCKET_SPAN_NAMES,
    TracingCallback,
    load_trace,
    merge_trace_metrics,
)

CONFIG = dict(
    episodes=2,
    steps_per_episode=2,
    cold_start_episodes=1,
    retrain_every_episodes=1,
    component_epochs=2,
    trigger_warmup=2,
    cv_splits=3,
    rf_estimators=4,
    max_clusters=3,
    mi_max_rows=64,
    seed=11,
)


def _problem() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(23)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
    return X, y


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.trace.jsonl"
    X, y = _problem()
    result = api.search(
        X, y, "classification", callbacks=[TracingCallback(path=str(path))], **CONFIG
    )
    return result, load_trace(str(path))


class TestTracedSearch:
    def test_bucket_totals_equal_result_time(self, traced_run):
        result, trace = traced_run
        buckets = trace.bucket_totals()
        assert buckets["optimization"] == pytest.approx(
            result.time.optimization, abs=1e-9
        )
        assert buckets["estimation"] == pytest.approx(result.time.estimation, abs=1e-9)
        assert buckets["evaluation"] == pytest.approx(result.time.evaluation, abs=1e-9)

    def test_span_tree_structure(self, traced_run):
        result, trace = traced_run
        assert len(trace.spans_named("search")) == 1
        assert len(trace.spans_named("episode")) == CONFIG["episodes"]
        steps = trace.spans_named("step")
        assert len(steps) == len(result.history)
        episode_ids = {s["id"] for s in trace.spans_named("episode")}
        step_ids = set()
        for step, record in zip(steps, result.history):
            assert step["parent"] in episode_ids
            assert step["attrs"]["op"] == record.op_name
            assert step["attrs"]["score"] == record.score
            step_ids.add(step["id"])
        # Every step's bucket children hang off that step.
        step_children = [
            s
            for s in trace.spans
            if s["name"] in BUCKET_SPAN_NAMES and s.get("attrs", {}).get("kind") == "step"
        ]
        assert step_children
        assert all(s["parent"] in step_ids for s in step_children)

    def test_retrain_span_is_its_two_fits(self, traced_run):
        """Each retrain span has a predictor_fit and a novelty_fit child,
        and its duration is their sum, bit for bit. The children are not
        bucket spans, so the Table II totals above count the retrain once."""
        _, trace = traced_run
        retrains = [
            s
            for s in trace.spans_named("estimation")
            if s.get("attrs", {}).get("kind") == "retrain"
        ]
        # One retrain after the cold start and one per later episode.
        assert len(retrains) == CONFIG["episodes"]
        for span in retrains:
            children = {s["name"]: s for s in trace.spans if s.get("parent") == span["id"]}
            assert set(children) == {"predictor_fit", "novelty_fit"}
            fits = children["predictor_fit"]["dur"] + children["novelty_fit"]["dur"]
            assert span["dur"] == fits
            assert children["predictor_fit"]["t"] <= children["novelty_fit"]["t"]

    def test_search_metrics(self, traced_run):
        result, trace = traced_run
        assert trace.metrics.counter("search.steps").value == len(result.history)
        assert trace.metrics.counter("search.sessions").value == 1
        assert trace.metrics.get("search.step_seconds").count == len(result.history)
        assert trace.metrics.gauge("search.best_score").value == pytest.approx(
            result.history[-1].best_score_so_far
        )
        engine_metrics = [
            m for m in trace.metrics if m.name == "eval.calls" and "engine" in m.labels
        ]
        assert engine_metrics, "evaluator never reported its engine label"
        # The base-score evaluation runs before on_search_start attaches the
        # tracer to the evaluator, so it is one short of the session's count
        # (its time still lands in the trace via the base_score span).
        assert sum(m.value for m in engine_metrics) == result.n_downstream_calls - 1

    def test_annotations_carry_run_summary(self, traced_run):
        result, trace = traced_run
        (annotation,) = trace.annotations
        assert annotation["best_score"] == result.best_score
        assert annotation["n_steps"] == len(result.history)


class TestSweepAggregation:
    def test_merge_across_worker_traces(self, tmp_path):
        X, y = _problem()
        traces = []
        for seed in (11, 12):
            path = tmp_path / f"seed{seed}.trace.jsonl"
            api.search(
                X,
                y,
                "classification",
                callbacks=[TracingCallback(path=str(path))],
                **dict(CONFIG, seed=seed),
            )
            traces.append(load_trace(str(path)))
        merged = merge_trace_metrics(traces)
        per_run = [t.metrics.counter("search.steps").value for t in traces]
        assert merged.counter("search.steps").value == sum(per_run)
        assert merged.counter("search.sessions").value == 2
        hist = merged.get("search.step_seconds")
        assert hist.count == sum(per_run)
