"""Serving-layer throughput — compiled vs interpreted plans, server rows/sec.

The ROADMAP's north star is serving heavy inference traffic from the
transformation records a search produces. Two numbers matter on that path:

1. **Compiled vs interpreted apply.** The seed's plan executor
   (``tests.reference.plan.apply``) is a memoized recursive interpreter
   keyed by feature id; searches routinely produce *structurally
   identical* derivations under distinct ids (the feature space only
   dedups against the live set), which the interpreter recomputes per id
   but the compiler's common-subexpression elimination evaluates once.
   This benchmark times both on a wide plan whose live features share
   duplicated stems — the shape pruning-and-regrowing searches leave
   behind — and verifies the outputs are byte-identical.
2. **Server rows/sec.** End-to-end in-process serving throughput through
   the micro-batcher (request → batched compiled apply → response), the
   number a capacity plan would start from.
3. **Model predict.** The served forest's ``predict_proba``: the seed's
   per-tree loop (``tests.reference.ensemble_predict``) against the stacked
   descent that routes every (tree, row) pair at once, on a 50-tree depth-8
   forest at 1 and 256 rows, with the outputs asserted bit-identical.

Timing notes: both ratios are the median of paired ratios from
interleaved rounds (the arm timed first alternates), reported with their
IQR, so load that lands on one round moves one pair, not the verdict. The
report is saved before any floor is asserted, and the floors sit well
below the typically-measured ratios because CI shares cores.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.sequence import FeatureNode, TransformationPlan
from repro.ml.evaluation import default_model_for_task
from repro.serve import PipelineArtifact, PipelineService, compile_plan
from tests.reference.ensemble_predict import forest_predict_proba
from tests.reference.plan import apply as reference_apply

PLAN_ROUNDS = 9
PLAN_FLOOR = 1.3  # compiled vs interpreted apply
MODEL_TREES = 50  # depth 8, the oracle's default depth
MODEL_ROUNDS = 9
MODEL_FLOOR = 5.0  # stacked vs per-tree predict_proba at 1 row


def _wide_shared_plan(n_inputs: int = 6, width: int = 24) -> TransformationPlan:
    """``width`` live features, each built on a duplicated copy (distinct
    fids, identical structure) of the same 5-op stem plus two unique ops —
    per-id memoization recomputes every stem; CSE folds them to one."""
    nodes: dict[int, FeatureNode] = {
        j: FeatureNode(j, None, (), j) for j in range(n_inputs)
    }
    fid = n_inputs
    live: list[int] = []

    def emit(op: str, children: tuple[int, ...]) -> int:
        nonlocal fid
        nodes[fid] = FeatureNode(fid, op, children)
        fid += 1
        return fid - 1

    binary_pool = ("divide", "add", "subtract", "multiply")
    unary_pool = ("square", "sqrt", "log", "tanh", "sigmoid")
    for w in range(width):
        stem = emit("add", (0, 1))
        stem = emit("log", (stem,))
        stem = emit("sqrt", (stem,))
        stem = emit("multiply", (stem, 2))
        stem = emit("tanh", (stem,))
        # (binary op, column, unary op) has period lcm(4,3,5)=60 > width,
        # so every live feature is a distinct computation; only the stems
        # are duplicates.
        head = emit(binary_pool[w % 4], (stem, 3 + w % (n_inputs - 3)))
        live.append(emit(unary_pool[w % 5], (head,)))
    return TransformationPlan(
        nodes=nodes,
        live_ids=live,
        n_input_columns=n_inputs,
        feature_names=[f"f{j + 1}" for j in range(n_inputs)],
    )


def _per_call(fn, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def _interleaved(arms, reps: int, rounds: int) -> list[tuple[float, ...]]:
    """Per-call seconds of every arm, one tuple per round; the arm order
    reverses every other round so neither side is always timed first."""
    rows = []
    for r in range(rounds):
        order = range(len(arms)) if r % 2 == 0 else reversed(range(len(arms)))
        times = {arm: _per_call(arms[arm], reps) for arm in order}
        rows.append(tuple(times[arm] for arm in range(len(arms))))
    return rows


def _ratio_stats(pairs) -> tuple[float, float, float]:
    """(q1, median, q3) of the per-round ratios ``pairs[i][0] / pairs[i][1]``."""
    q1, median, q3 = np.percentile([a / b for a, b, *_ in pairs], [25, 50, 75])
    return float(q1), float(median), float(q3)


def _model_predict_arm() -> tuple[list[str], float]:
    """Per-tree vs stacked ``predict_proba``; returns report lines and the
    1-row median paired ratio."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(1500, 12))
    y = (X[:, 0] * X[:, 1] + np.sin(X[:, 2]) + 0.3 * rng.normal(size=len(X)) > 0).astype(int)
    forest = default_model_for_task("classification", n_estimators=MODEL_TREES, seed=0)
    forest.fit(X, y)
    forest.predict_proba(X[:1])  # a server's first request builds the node table
    lines = [
        f"model predict_proba: {MODEL_TREES}-tree depth-{forest.max_depth} forest, "
        f"per-tree loop vs stacked descent (median of {MODEL_ROUNDS} interleaved pairs)",
        f"{'rows':>5s} {'per-tree ms':>12s} {'stacked ms':>11s} {'ratio':>8s} {'ratio IQR':>17s}",
    ]
    median_ratio = {}
    for n_rows, reps in ((1, 40), (256, 4)):
        rows = X[:n_rows]
        np.testing.assert_array_equal(
            forest.predict_proba(rows), forest_predict_proba(forest, rows), strict=True
        )
        arms = (lambda: forest_predict_proba(forest, rows), lambda: forest.predict_proba(rows))
        pairs = _interleaved(arms, reps, MODEL_ROUNDS)
        per_tree, stacked = (np.median([p[i] for p in pairs]) for i in (0, 1))
        q1, median, q3 = _ratio_stats(pairs)
        median_ratio[n_rows] = median
        iqr = f"{q1:.1f}x-{q3:.1f}x"
        lines.append(
            f"{n_rows:5d} {per_tree * 1e3:12.3f} {stacked * 1e3:11.3f} {median:7.1f}x {iqr:>17s}"
        )
    lines.append("outputs bit-identical: True")
    return lines, median_ratio[1]


@pytest.mark.serial
def test_serve_throughput(profile, save_report):
    # The plan shape stays representative in every profile; smoke only
    # shrinks the row count to bound CI time.
    n_rows = 6000 if profile.name == "smoke" else 40000
    plan = _wide_shared_plan()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n_rows, plan.n_input_columns))
    compiled = compile_plan(plan)
    model_lines, model_ratio = _model_predict_arm()

    interp_out = reference_apply(plan, X)
    np.testing.assert_array_equal(compiled.apply(X), interp_out, strict=True)
    np.testing.assert_array_equal(compiled.apply(X, chunk_size=1024), interp_out, strict=True)
    arms = (
        lambda: reference_apply(plan, X),
        lambda: compiled.apply(X),
        lambda: compiled.apply(X, chunk_size=1024),
    )
    rounds = _interleaved(arms, 3, PLAN_ROUNDS)
    interp_t, compiled_t, chunked_t = (np.median([r[i] for r in rounds]) for i in (0, 1, 2))
    q1, speedup, q3 = _ratio_stats(rounds)

    # Server throughput: micro-batched transform requests, in-process.
    artifact = PipelineArtifact(plan, "classification")
    service = PipelineService(artifact, max_wait_ms=0.0)
    try:
        request_rows = 256
        n_requests = max(4, n_rows // request_rows)
        start = time.perf_counter()
        for i in range(n_requests):
            lo = (i * request_rows) % (n_rows - request_rows)
            service.transform(X[lo : lo + request_rows])
        served_rows = n_requests * request_rows
        server_t = time.perf_counter() - start
    finally:
        service.close()

    lines = [
        "Serve throughput — compiled vs interpreted plan apply, server rows/sec",
        f"plan: {compiled.n_nodes} nodes -> {len(compiled.instructions)} instructions "
        f"(CSE merged {compiled.n_merged}), {compiled.n_features} live features",
        f"matrix: {n_rows} x {plan.n_input_columns} "
        f"(median of {PLAN_ROUNDS} interleaved rounds)",
        f"{'mode':22s} {'seconds':>9s}",
        f"{'interpreted apply':22s} {interp_t:9.4f}",
        f"{'compiled apply':22s} {compiled_t:9.4f}",
        f"{'compiled chunked(1024)':22s} {chunked_t:9.4f}",
        f"speedup: {speedup:.2f}x [IQR {q1:.2f}x-{q3:.2f}x]  (outputs byte-identical: True)",
        f"server : {served_rows} rows in {server_t:.3f}s over {n_requests} requests "
        f"-> {served_rows / server_t:,.0f} rows/sec (in-process micro-batcher)",
        "",
        *model_lines,
    ]
    # Report first, assert after (fig10 shape).
    save_report("serve_throughput", "\n".join(lines))
    assert speedup >= PLAN_FLOOR, f"compiled plan too slow: {speedup:.2f}x vs interpreter"
    assert model_ratio >= MODEL_FLOOR, (
        f"stacked predict too slow at 1 row: {model_ratio:.1f}x vs the per-tree loop"
    )
