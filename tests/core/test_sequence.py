"""Tests for FeatureSpace and TransformationPlan (traceability backbone)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import BINARY_OPERATIONS, UNARY_OPERATIONS
from repro.core.sequence import FeatureSpace
from tests.reference.sequence import DictFeatureSpace


@pytest.fixture
def space(rng):
    X = rng.normal(size=(50, 3))
    return FeatureSpace(X, ["a", "b", "c"]), X


class TestFeatureSpace:
    def test_initial_state(self, space):
        fs, X = space
        assert fs.n_features == 3
        assert fs.n_samples == 50
        assert np.allclose(fs.matrix(), X)
        assert fs.original_ids == (0, 1, 2)

    def test_unary_application(self, space):
        fs, X = space
        new = fs.apply_unary("square", [0, 1])
        assert len(new) == 2
        assert fs.n_features == 5
        assert np.allclose(fs.values(new[0]), X[:, 0] ** 2)

    def test_binary_group_wise_crossing(self, space):
        fs, X = space
        new = fs.apply_binary("add", [0, 1], [2])
        assert len(new) == 2  # |a_h| × |a_t|
        assert np.allclose(fs.values(new[0]), X[:, 0] + X[:, 2])

    def test_binary_skips_self_pairs(self, space):
        fs, _ = space
        new = fs.apply_binary("multiply", [0], [0, 1])
        # (0,0) skipped because h == t and another pair exists
        assert len(new) == 1

    def test_binary_self_pair_fallback(self, space):
        fs, X = space
        new = fs.apply_binary("multiply", [0], [0])
        assert len(new) == 1
        assert np.allclose(fs.values(new[0]), X[:, 0] ** 2)

    def test_max_new_caps_fanout(self, space):
        fs, _ = space
        new = fs.apply_binary("add", [0, 1, 2], [0, 1, 2], max_new=3,
                              rng=np.random.default_rng(0))
        assert len(new) == 3

    def test_wrong_arity_raises(self, space):
        fs, _ = space
        with pytest.raises(ValueError):
            fs.apply_unary("add", [0])
        with pytest.raises(ValueError):
            fs.apply_binary("log", [0], [1])

    def test_prune_restricts_live_set(self, space):
        fs, _ = space
        new = fs.apply_unary("log", [0])
        fs.prune([new[0], 1])
        assert fs.n_features == 2
        assert fs.live_ids == [new[0], 1]

    def test_prune_to_empty_raises(self, space):
        fs, _ = space
        with pytest.raises(ValueError):
            fs.prune([])

    def test_expressions(self, space):
        fs, _ = space
        sq = fs.apply_unary("square", [0])[0]
        total = fs.apply_binary("add", [sq], [1])[0]
        assert fs.expression(sq) == "(a)^2"
        # commutative operands are canonicalized by feature id: b (fid 1)
        # precedes (a)^2 (fid 3)
        assert fs.expression(total) == "(b+(a)^2)"

    def test_generated_values_sanitized(self, rng):
        X = rng.normal(size=(30, 2)) * 100
        fs = FeatureSpace(X)
        fid = fs.apply_unary("exp", fs.apply_unary("exp", [0]))[0]
        assert np.isfinite(fs.values(fid)).all()

    def test_feature_names_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            FeatureSpace(rng.normal(size=(10, 3)), ["only", "two"])

    def test_binary_max_new_requires_explicit_rng(self, space):
        """Regression: the seed fell back to an *unseeded* generator when a
        caller forgot rng, silently derandomizing the pair sampling."""
        fs, _ = space
        with pytest.raises(ValueError, match="rng"):
            fs.apply_binary("add", [0, 1, 2], [0, 1, 2], max_new=3)
        # Even when the cap would not bind, the contract is uniform.
        with pytest.raises(ValueError, match="rng"):
            fs.apply_binary("add", [0], [1], max_new=99)
        # Without sampling no generator is needed.
        assert fs.apply_binary("add", [0], [1])


class TestArenaBackend:
    """The columnar arena must behave exactly like the dict reference."""

    @staticmethod
    def _pair(rng, n=40, d=2):
        X = rng.normal(size=(n, d))
        return FeatureSpace(X), DictFeatureSpace(X)

    def test_growth_across_multiple_doublings(self, rng):
        arena, reference = self._pair(rng)
        start_capacity = arena._arena.shape[1]
        for i in range(40):  # 4 -> 8 -> 16 -> 32 -> 64 slot growths
            fid = arena.apply_unary("tanh", [i])[0]
            assert reference.apply_unary("tanh", [i])[0] == fid
        assert arena._arena.shape[1] > 4 * start_capacity
        assert arena.matrix().tobytes() == reference.matrix().tobytes()
        # Growth must not disturb previously handed-out column views.
        assert np.array_equal(arena.values(0), reference.values(0))

    def test_prune_then_apply_reuses_cleanly(self, rng):
        arena, reference = self._pair(rng, d=4)
        for fs in (arena, reference):
            fs.apply_unary("square", [0, 1, 2])
            fs.prune([5, 1, 4])  # non-prefix, reordered live set
            fs.apply_binary("multiply", [5], [1])
            fs.apply_unary("log", [4])
        assert arena.live_ids == reference.live_ids
        assert arena.matrix().tobytes() == reference.matrix().tobytes()
        # A live derivation is still deduped after the prune shuffle...
        assert arena.apply_binary("multiply", [5], [1]) == []
        assert reference.apply_binary("multiply", [5], [1]) == []
        # ...and matrices stay aligned after further growth on reused state.
        for fs in (arena, reference):
            fs.apply_unary("tanh", [fs.live_ids_view[-1]])
        assert arena.matrix().tobytes() == reference.matrix().tobytes()

    def test_duplicate_signatures_track_prune(self, rng):
        arena, _ = self._pair(rng)
        first = arena.apply_unary("square", [0])
        assert arena.apply_unary("square", [0]) == []  # live duplicate skipped
        arena.prune([0, 1])
        again = arena.apply_unary("square", [0])  # pruned -> re-derivable
        assert len(again) == 1 and again != first
        assert arena.apply_unary("square", [0]) == []

    def test_snapshot_after_prune_plan_equivalence(self, rng):
        X = rng.normal(size=(30, 3))
        arena, reference = FeatureSpace(X), DictFeatureSpace(X)
        for fs in (arena, reference):
            mid = fs.apply_unary("square", [0])[0]
            top = fs.apply_binary("add", [mid], [1])[0]
            fs.prune([top, 2])
        assert arena.snapshot().to_json() == reference.snapshot().to_json()
        assert (
            arena.snapshot().apply(X).tobytes()
            == reference.snapshot().apply(X).tobytes()
        )

    def test_matrix_view_zero_copy_on_prefix(self, rng):
        arena, _ = self._pair(rng, d=3)
        view = arena.matrix_view()
        assert view.base is arena._arena
        assert view.flags.f_contiguous and not view.flags.writeable
        assert view.tobytes("C") == arena.matrix().tobytes()
        arena.prune([2, 0])
        gathered = arena.matrix_view()  # non-prefix: falls back to a copy
        assert gathered.flags.c_contiguous
        assert gathered.tobytes() == arena.matrix().tobytes()

    def test_values_read_only_and_keyerror(self, rng):
        arena, _ = self._pair(rng)
        column = arena.values(1)
        with pytest.raises(ValueError):
            column[0] = 0.0
        with pytest.raises(KeyError):
            arena.values(99)

    def test_matrix_rejects_unallocated_fids(self, rng):
        """Regression: the gather path must never read uninitialized arena
        slots for a never-allocated fid (the dict reference raises KeyError)."""
        arena, reference = self._pair(rng, d=3)  # capacity 8, fids 0-2 live
        for fs in (arena, reference):
            with pytest.raises(KeyError):
                fs.matrix([0, 5])  # inside capacity, never allocated
            with pytest.raises((KeyError, IndexError)):
                fs.matrix([999])
            with pytest.raises(KeyError):
                fs.matrix_view([0, 5])

    def test_n_samples_cached_at_construction(self, rng):
        arena, reference = self._pair(rng, n=17)
        assert arena.n_samples == reference.n_samples == 17

    def test_pickle_roundtrip_and_legacy_state_migration(self, rng):
        import pickle

        arena, reference = self._pair(rng, d=3)
        arena.apply_unary("square", [0])
        restored = pickle.loads(pickle.dumps(arena))
        assert restored.matrix().tobytes() == arena.matrix().tobytes()
        assert restored._arena is not None and "_columns" not in vars(restored)
        # A pre-arena pickle carries only the dict store; __setstate__
        # adopts it into the arena and rebuilds the signature counts.
        reference.apply_unary("square", [0])
        reference.prune([3, 1])  # pruned columns must survive the adoption
        legacy_state = {
            k: v
            for k, v in reference.__dict__.items()
            if k not in ("_arena", "_n_samples", "_sig_count")
        }
        migrated = FeatureSpace.__new__(FeatureSpace)
        migrated.__setstate__(legacy_state)
        assert "_columns" not in vars(migrated)
        assert migrated.n_samples == reference.n_samples
        assert migrated.matrix().tobytes() == reference.matrix().tobytes()
        assert migrated.values(0).tobytes() == reference.values(0).tobytes()
        assert migrated._is_duplicate("square", (0,))
        # It keeps growing like any arena space, in step with the reference.
        for fs in (migrated, reference):
            fs.apply_binary("add", [3], [1])
            fs.apply_unary("tanh", [2])
        assert migrated.live_ids == reference.live_ids
        assert migrated.matrix().tobytes() == reference.matrix().tobytes()

    def test_parent_format_states_adopt_onto_the_arena(self, rng):
        """Spaces pickled by the build that still had two backends carry a
        ``_backend`` tag, and the dict one its columns in ``_columns``."""
        import copy

        arena, reference = self._pair(rng, d=3)
        for fs in (arena, reference):
            fs.apply_unary("log", [1])
        arena_state = dict(vars(arena), _backend="arena", _columns=None)
        dict_state = dict(vars(reference), _backend="dict", _arena=None)
        for state in (arena_state, dict_state):
            migrated = FeatureSpace.__new__(FeatureSpace)
            migrated.__setstate__(copy.deepcopy(state))
            assert not {"_backend", "_columns"} & set(vars(migrated))
            assert migrated.matrix().tobytes() == arena.matrix().tobytes()
            assert migrated.apply_unary("tanh", [3]) == [4]


class TestTransformationPlan:
    def test_snapshot_reproduces_matrix(self, space):
        fs, X = space
        fs.apply_unary("tanh", [0])
        fs.apply_binary("multiply", [1], [2])
        plan = fs.snapshot()
        assert np.allclose(plan.apply(X), fs.matrix(), atol=1e-9)

    def test_plan_applies_to_new_data(self, space, rng):
        fs, X = space
        fs.apply_binary("divide", [0], [1])
        plan = fs.snapshot()
        X_new = rng.normal(size=(20, 3))
        out = plan.apply(X_new)
        assert out.shape == (20, 4)
        assert np.allclose(out[:, 3], X_new[:, 0] / (X_new[:, 1] + np.where(X_new[:, 1] >= 0, 1e-6, -1e-6)), atol=1e-6)

    def test_plan_survives_pruned_ancestors(self, space):
        """Pruned intermediate features must still be computable via provenance."""
        fs, X = space
        mid = fs.apply_unary("square", [0])[0]
        top = fs.apply_binary("add", [mid], [1])[0]
        fs.prune([top])  # drop everything else, including mid and originals
        plan = fs.snapshot()
        out = plan.apply(X)
        assert out.shape == (50, 1)
        assert np.allclose(out[:, 0], X[:, 0] ** 2 + X[:, 1])

    def test_column_count_mismatch_raises(self, space):
        fs, _ = space
        plan = fs.snapshot()
        with pytest.raises(ValueError):
            plan.apply(np.ones((5, 99)))

    def test_expressions_align_with_columns(self, space):
        fs, X = space
        fs.apply_unary("log", [2])
        plan = fs.snapshot()
        exprs = plan.expressions()
        assert len(exprs) == plan.n_features == 4
        assert exprs[3] == "log(|c|+1)"

    @given(st.lists(st.integers(0, 13), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_random_program_roundtrip(self, op_choices):
        """Any random op program yields a plan that reproduces the matrix."""
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 3))
        fs = FeatureSpace(X)
        all_ops = UNARY_OPERATIONS + BINARY_OPERATIONS
        for choice in op_choices:
            op = all_ops[choice % len(all_ops)]
            live = fs.live_ids
            if op.arity == 1:
                fs.apply_unary(op.name, [live[choice % len(live)]])
            else:
                fs.apply_binary(
                    op.name,
                    [live[choice % len(live)]],
                    [live[(choice + 1) % len(live)]],
                )
        plan = fs.snapshot()
        assert np.allclose(plan.apply(X), fs.matrix(), atol=1e-9)
        assert len(plan.expressions()) == fs.n_features

    def test_balanced_parentheses_in_expressions(self, space):
        fs, _ = space
        fs.apply_binary("divide", fs.apply_unary("square", [0]), [1])
        for expr in fs.snapshot().expressions():
            assert expr.count("(") == expr.count(")")


def _plan_payload(**overrides):
    """A minimal valid serialized plan, overridable per test."""
    payload = {
        "n_input_columns": 2,
        "feature_names": ["a", "b"],
        "live_ids": [2],
        "nodes": [
            {"fid": 0, "op": None, "children": [], "source_col": 0},
            {"fid": 1, "op": None, "children": [], "source_col": 1},
            {"fid": 2, "op": "add", "children": [0, 1], "source_col": None},
        ],
    }
    payload.update(overrides)
    return payload


class TestPlanValidation:
    """from_json must reject broken graphs and malformed fields with a
    ValueError naming the offending node or field, instead of loading and
    failing (or returning a wrong shape) inside every apply."""

    def test_valid_payload_loads(self):
        import json

        from repro.core.sequence import TransformationPlan

        plan = TransformationPlan.from_json(json.dumps(_plan_payload()))
        assert plan.apply(np.ones((4, 2))).shape == (4, 1)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"live_ids": [99]}, "unknown features"),
            (
                {
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1, "op": None, "children": [], "source_col": 1},
                        {"fid": 2, "op": "add", "children": [0, 7], "source_col": None},
                    ]
                },
                r"node 2: dangling children ids \[7\]",
            ),
            (
                {
                    "live_ids": [0],
                    "nodes": [{"fid": 0, "op": None, "children": [], "source_col": 5}],
                },
                "node 0: source_col 5",
            ),
            (
                {
                    "live_ids": [0],
                    "nodes": [{"fid": 0, "op": None, "children": [], "source_col": None}],
                },
                "node 0: source_col None",
            ),
            (
                {
                    "live_ids": [1],
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1, "op": "warp", "children": [0], "source_col": None},
                    ],
                },
                "node 1: unknown operation 'warp'",
            ),
            (
                {
                    "live_ids": [1],
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1, "op": "add", "children": [0], "source_col": None},
                    ],
                },
                "node 1: add expects 2 operand",
            ),
            (
                {
                    "live_ids": [1],
                    "nodes": [
                        {"fid": 1, "op": "tanh", "children": [2], "source_col": None},
                        {"fid": 2, "op": "tanh", "children": [1], "source_col": None},
                    ],
                },
                "cycle",
            ),
            (
                {
                    "live_ids": [1],
                    "nodes": [
                        {"fid": 1, "op": "square", "children": [1], "source_col": None},
                    ],
                },
                "cycle",
            ),
            *[
                (
                    {
                        "live_ids": [0],
                        "nodes": [{"fid": 0, "op": None, "children": [], "source_col": col}],
                    },
                    "node 0 source_col: expected an integer",
                )
                for col in (1.0, True, "1")
            ],
            (
                {
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1, "op": None, "children": [], "source_col": 1},
                        {"fid": 2, "op": ["x"], "children": [0, 1], "source_col": None},
                    ]
                },
                "node 2: op must be a string or null",
            ),
            ({"live_ids": []}, "live_ids is empty"),
            ({"feature_names": ["a"]}, "feature_names has 1 names for 2 input columns"),
            (
                {
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1, "op": None, "children": [], "source_col": 1},
                        {"fid": 2, "op": "add", "children": [0, 1], "source_col": None},
                        {"fid": 1, "op": "log", "children": [0], "source_col": None},
                    ]
                },
                "node 1: duplicate fid",
            ),
            (
                {
                    "nodes": [
                        {"fid": 0, "op": None, "children": [], "source_col": 0},
                        {"fid": 1.5, "op": None, "children": [], "source_col": 1},
                        {"fid": 2, "op": "add", "children": [0, 1], "source_col": None},
                    ]
                },
                "node fid: expected an integer, got 1.5",
            ),
            ({"live_ids": [2.0]}, "live_ids: expected an integer"),
            ({"n_input_columns": 2.0}, "n_input_columns: expected an integer"),
        ],
        ids=["missing-live", "dangling-child", "col-overflow", "col-none",
             "unknown-op", "arity", "two-node-cycle", "self-cycle",
             "col-float", "col-bool", "col-string", "op-list", "empty-live",
             "short-names", "duplicate-fid", "float-fid", "float-live-id",
             "float-width"],
    )
    def test_broken_graphs_rejected(self, overrides, message):
        import json

        from repro.core.sequence import TransformationPlan

        with pytest.raises(ValueError, match=message):
            TransformationPlan.from_json(json.dumps(_plan_payload(**overrides)))

    def test_validate_on_instance(self, space):
        fs, _ = space
        fs.snapshot().validate()  # a snapshot is always valid


class TestPlanRoundTripEveryOp:
    def test_roundtrip_byte_identical_over_all_ops(self, rng):
        """For a plan exercising every registered operation,
        from_json(to_json(plan)).apply(X) is byte-identical to
        plan.apply(X) — the serving layer's persistence contract."""
        from repro.core.sequence import TransformationPlan

        X = rng.normal(size=(60, 4))
        fs = FeatureSpace(X)
        for op in UNARY_OPERATIONS:
            fs.apply_unary(op.name, [0, 1])
        for op in BINARY_OPERATIONS:
            fs.apply_binary(op.name, [0, 1], [2, 3])
        plan = fs.snapshot()
        used = {node.op for node in plan.nodes.values() if node.op is not None}
        assert used == {op.name for op in UNARY_OPERATIONS + BINARY_OPERATIONS}
        restored = TransformationPlan.from_json(plan.to_json())
        np.testing.assert_array_equal(restored.apply(X), plan.apply(X), strict=True)
        # And the indented form round-trips identically too.
        pretty = TransformationPlan.from_json(plan.to_json(indent=2))
        np.testing.assert_array_equal(pretty.apply(X), plan.apply(X), strict=True)

    def test_to_json_indent(self, space):
        fs, _ = space
        compact = fs.snapshot().to_json()
        pretty = fs.snapshot().to_json(indent=2)
        assert "\n" not in compact
        assert pretty.startswith("{\n  ")
