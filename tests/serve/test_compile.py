"""Tests for the plan compiler: byte-identity, CSE, chunking, validation.

Byte-identity is checked against the seed's recursive interpreter,
``tests.reference.plan.apply``; ``TransformationPlan.apply`` itself runs
the compiled program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operations import BINARY_OPERATIONS, UNARY_OPERATIONS
from repro.core.sequence import FeatureNode, FeatureSpace, TransformationPlan, compile_plan
from repro.serve import PipelineArtifact
from tests.reference.plan import apply as reference_apply


@pytest.fixture
def every_op_plan(rng):
    """A plan whose DAG exercises every registered operation, including
    nested derivations, with some features pruned away."""
    X = rng.normal(size=(80, 4))
    fs = FeatureSpace(X)
    for op in UNARY_OPERATIONS:
        fs.apply_unary(op.name, [0, 1])
    for op in BINARY_OPERATIONS:
        fs.apply_binary(op.name, [0, 1], [2, 3])
    # Nest: operate on generated features, then prune to a subset so the
    # plan carries dead-but-reachable ancestors.
    generated = [f for f in fs.live_ids if f >= 4]
    fs.apply_binary("add", generated[:2], generated[2:4])
    fs.prune(fs.live_ids[::2])
    return fs.snapshot(), X


def _plan_with_duplicate_subtrees(width: int = 8) -> TransformationPlan:
    """Structurally identical derivations under distinct fids — the case
    interpreter memoization (per fid) cannot deduplicate but CSE can."""
    nodes = {0: FeatureNode(0, None, (), 0), 1: FeatureNode(1, None, (), 1)}
    fid, live = 2, []
    for _ in range(width):
        nodes[fid] = FeatureNode(fid, "add", (0, 1))
        base = fid
        fid += 1
        nodes[fid] = FeatureNode(fid, "log", (base,))
        live.append(fid)
        fid += 1
    return TransformationPlan(
        nodes=nodes, live_ids=live, n_input_columns=3, feature_names=["a", "b", "c"]
    )


class TestByteIdentity:
    def test_every_registered_op(self, every_op_plan):
        plan, X = every_op_plan
        compiled = compile_plan(plan)
        expected = reference_apply(plan, X)
        np.testing.assert_array_equal(compiled.apply(X), expected, strict=True)

    def test_on_unseen_data(self, every_op_plan, rng):
        plan, _ = every_op_plan
        X_new = rng.normal(size=(33, 4)) * 10
        np.testing.assert_array_equal(
            compile_plan(plan).apply(X_new), reference_apply(plan, X_new), strict=True
        )

    @pytest.mark.parametrize("chunk_size", [1, 7, 80, 200])
    def test_chunked_execution(self, every_op_plan, chunk_size):
        plan, X = every_op_plan
        compiled = compile_plan(plan)
        np.testing.assert_array_equal(
            compiled.apply(X, chunk_size=chunk_size), reference_apply(plan, X), strict=True
        )

    def test_chunked_with_nonfinite_inputs(self, every_op_plan):
        """The final sanitization uses global column medians; chunking must
        not change them (the interpreter sanitizes the full matrix too)."""
        plan, X = every_op_plan
        X = X.copy()
        X[::9, 0] = np.inf
        X[3::11, 2] = np.nan
        compiled = compile_plan(plan)
        np.testing.assert_array_equal(
            compiled.apply(X, chunk_size=13), reference_apply(plan, X), strict=True
        )

    def test_duplicate_subtrees(self, rng):
        plan = _plan_with_duplicate_subtrees()
        X = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(
            compile_plan(plan).apply(X), reference_apply(plan, X), strict=True
        )


class TestCompilation:
    def test_cse_merges_duplicate_subtrees(self):
        plan = _plan_with_duplicate_subtrees(width=8)
        compiled = compile_plan(plan)
        # 2 loads + 1 add + 1 log despite 8 structurally-equal chains.
        assert len(compiled.instructions) == 4
        assert compiled.n_nodes == 2 + 2 * 8
        assert compiled.n_merged == compiled.n_nodes - 4
        assert compiled.n_features == 8

    def test_no_spurious_merging(self, rng):
        """Distinct computations must stay distinct."""
        X = rng.normal(size=(40, 3))
        fs = FeatureSpace(X)
        fs.apply_unary("square", [0, 1])
        compiled = compile_plan(fs.snapshot())
        assert compiled.n_merged == 0
        np.testing.assert_array_equal(
            compiled.apply(X), reference_apply(fs.snapshot(), X), strict=True
        )

    def test_deep_plan_beyond_recursion_limit(self, rng):
        """Every plan walk is iterative; a chain deeper than Python's
        recursion limit still compiles, runs, prints, round-trips through
        JSON and serves."""
        depth = 5000
        nodes = {0: FeatureNode(0, None, (), 0)}
        for i in range(1, depth):
            nodes[i] = FeatureNode(i, "tanh", (i - 1,))
        plan = TransformationPlan(
            nodes=nodes, live_ids=[depth - 1], n_input_columns=2, feature_names=["a", "b"]
        )
        X = rng.normal(size=(10, 2))
        out = compile_plan(plan).apply(X)
        assert out.shape == (10, 1)
        assert np.all(np.isfinite(out))
        assert plan.apply(X).tobytes() == out.tobytes()
        [formula] = plan.expressions()
        assert formula == "tanh(" * (depth - 1) + "a" + ")" * (depth - 1)
        assert TransformationPlan.from_json(plan.to_json()).to_json() == plan.to_json()
        served = PipelineArtifact(plan, "classification").transform(X)
        assert served.tobytes() == out.tobytes()

    def test_duplicate_live_ids_supported(self, rng):
        X = rng.normal(size=(20, 2))
        nodes = {0: FeatureNode(0, None, (), 0), 1: FeatureNode(1, "square", (0,))}
        plan = TransformationPlan(
            nodes=nodes, live_ids=[1, 1, 0], n_input_columns=2, feature_names=["a", "b"]
        )
        np.testing.assert_array_equal(
            compile_plan(plan).apply(X), reference_apply(plan, X), strict=True
        )

    def test_serve_reexports_the_core_compiler(self):
        """``repro.serve.compile`` re-exports the very objects
        ``TransformationPlan.apply`` uses, so patching one patches both."""
        import repro.core.sequence as core
        import repro.serve.compile as serve

        for name in ("Instruction", "CompiledPlan", "compile_plan"):
            assert getattr(serve, name) is getattr(core, name)

    def test_invalid_plan_rejected(self):
        plan = TransformationPlan(
            nodes={0: FeatureNode(0, "add", (7, 8))},
            live_ids=[0],
            n_input_columns=2,
            feature_names=["a", "b"],
        )
        with pytest.raises(ValueError, match="dangling"):
            compile_plan(plan)


class TestApplyErrors:
    def test_wrong_column_count(self, every_op_plan, rng):
        plan, _ = every_op_plan
        with pytest.raises(ValueError, match="columns"):
            compile_plan(plan).apply(rng.normal(size=(10, 3)))

    def test_bad_chunk_size(self, every_op_plan, rng):
        plan, X = every_op_plan
        with pytest.raises(ValueError, match="chunk_size"):
            compile_plan(plan).apply(X, chunk_size=0)
