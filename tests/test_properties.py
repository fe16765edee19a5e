"""Property-based tests (hypothesis): the invariants everything leans on.

Three families, each guarding a contract the rest of the system assumes
silently:

- every registered operation is *total* and *guarded* — any float input
  (NaN/inf included) yields a finite, clipped, shape-preserving, bitwise-
  deterministic output, because the RL agents compose ops blindly and the
  downstream oracle requires finite matrices — and its one-pass guard is
  byte-identical to the seed's ``nan_to_num``-then-``clip`` pair;
- the plan compiler is *exact* — on randomly-grown transformation
  plans, compiled execution (plain and chunked) is byte-identical to the
  seed's recursive interpreter, the iterative formatter prints what the
  seed's recursive one printed, and plan JSON round-trips losslessly;
- the oracle cache key is a *content* signature — equal arrays collide,
  any element/dtype/shape/fingerprint perturbation separates.

``derandomize=True`` keeps tier-1 CI reproducible; the generators still
cover the space across examples. hypothesis is the repo's declared dev
dependency (``pip install hypothesis``) — the module skips without it.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need the hypothesis dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.core.operations import (  # noqa: E402
    BINARY_OPERATIONS,
    OPERATIONS,
    UNARY_OPERATIONS,
    guard,
)
from repro.core.sequence import FeatureSpace, TransformationPlan, compile_plan  # noqa: E402
from repro.ml.cache import EvaluationCache  # noqa: E402
from tests.reference import plan as reference_plan  # noqa: E402
from tests.reference.operations import guard as reference_guard  # noqa: E402
from tests.reference.sequence import DictFeatureSpace  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

_CLIP = 1e12  # the operations module's guard bound

any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
columns = hnp.arrays(np.float64, st.integers(1, 40), elements=any_floats)


def _assert_seed_guard(out, kernel_out) -> None:
    """``out`` is the seed guard applied to ``kernel_out``, byte for byte."""
    expected = reference_guard(kernel_out)
    assert type(out) is type(expected)
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()


@SETTINGS
@given(op=st.sampled_from(UNARY_OPERATIONS), values=columns)
def test_unary_ops_total_finite_and_deterministic(op, values):
    out = op(values)
    assert out.shape == values.shape
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= _CLIP)
    assert out.tobytes() == op(values.copy()).tobytes()
    with np.errstate(all="ignore"):
        _assert_seed_guard(out, op.fn(values))


@SETTINGS
@given(
    op=st.sampled_from(BINARY_OPERATIONS),
    pair=st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=any_floats),
            hnp.arrays(np.float64, n, elements=any_floats),
        )
    ),
)
def test_binary_ops_total_finite_and_deterministic(op, pair):
    a, b = pair
    out = op(a, b)
    assert out.shape == a.shape
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= _CLIP)
    assert out.tobytes() == op(a.copy(), b.copy()).tobytes()
    with np.errstate(all="ignore"):
        _assert_seed_guard(out, op.fn(a, b))


_ABOVE_CLIP = np.nextafter(_CLIP, np.inf)


@pytest.mark.parametrize(
    "values",
    [
        np.array(np.nan),
        np.array(-np.inf),
        np.array(-0.0),
        np.array(3.5),
        np.array(2e12),
        np.empty(0),
        np.empty((0, 3)),
        np.array([-0.0, 0.0, -np.nan, np.nan]),
        np.array([5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf]),
        np.array([_CLIP, -_CLIP, _ABOVE_CLIP, -_ABOVE_CLIP, 1.0000001e12]),
    ],
    ids=lambda v: f"{v.shape}:{v.ravel()[:3].tolist()}",
)
def test_guard_matches_seed_guard_on_edge_inputs(values):
    """Inputs hypothesis may not reach: 0-d arrays (``clip`` returns a NumPy
    scalar there), empty arrays, signed zeros and NaNs, the smallest
    subnormal, ±1e308 and values just past the clip bound — through the
    guard itself and through every operation."""
    _assert_seed_guard(guard(values), values)
    with np.errstate(all="ignore"):
        for op in OPERATIONS:
            operands = [values] * op.arity
            _assert_seed_guard(op(*operands), op.fn(*operands))


@SETTINGS
@given(op=st.sampled_from(OPERATIONS))
def test_ops_reject_wrong_arity(op):
    args = [np.zeros(3)] * (op.arity + 1)
    with pytest.raises(ValueError, match="operand"):
        op(*args)


def _grow_random_plan(data) -> tuple[TransformationPlan, np.ndarray]:
    space, X = _grow_random_space(data)
    return space.snapshot(), X


def _grow_random_space(data) -> tuple[FeatureSpace, np.ndarray]:
    """Draw a feature space the way the search grows one: by applying
    drawn ops to the live feature set (including onto derived features)."""
    n = data.draw(st.integers(8, 30), label="rows")
    d = data.draw(st.integers(2, 4), label="cols")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]), label="scale")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * scale
    space = FeatureSpace(X)
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        op = data.draw(st.sampled_from(OPERATIONS))
        live = space.live_ids
        heads = data.draw(
            st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True),
            label="heads",
        )
        if op.arity == 1:
            space.apply_unary(op.name, heads)
        else:
            tails = data.draw(
                st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True),
                label="tails",
            )
            space.apply_binary(op.name, heads, tails, max_new=4, rng=rng)
    return space, X


@SETTINGS
@given(data=st.data())
def test_compiled_plan_byte_identical_to_interpreter(data):
    plan, X = _grow_random_plan(data)
    reference = reference_plan.apply(plan, X)
    compiled = compile_plan(plan)
    assert compiled.apply(X).tobytes() == reference.tobytes()
    chunk = data.draw(st.integers(1, X.shape[0]), label="chunk")
    assert compiled.apply(X, chunk_size=chunk).tobytes() == reference.tobytes()


@SETTINGS
@given(data=st.data())
def test_formatter_matches_seed_recursion(data):
    """The golden history digests hash every step's formulas, so the
    iterative formatter must print exactly what the recursive one did."""
    space, _ = _grow_random_space(data)
    plan = space.snapshot()
    assert plan.expressions() == reference_plan.expressions(plan)
    for fid in plan.nodes:
        expected = reference_plan.expression(plan, fid)
        assert space.expression(fid) == plan.expression(fid) == expected


@SETTINGS
@given(data=st.data())
def test_plan_json_roundtrip_is_lossless(data):
    plan, X = _grow_random_plan(data)
    restored = TransformationPlan.from_json(plan.to_json())
    assert restored.to_json() == plan.to_json()
    assert restored.apply(X).tobytes() == plan.apply(X).tobytes()


# -- arena FeatureSpace: byte-identical to the dict reference ------------------


@SETTINGS
@given(data=st.data())
def test_arena_matrix_byte_identical_to_column_stack_reference(data):
    """Drive an arena-backed and a dict-backed space through the same
    random grow/prune program: every matrix() gather must be byte-identical
    to the naive per-column ``np.column_stack`` reference, across arena
    doublings and non-prefix live sets."""
    n = data.draw(st.integers(5, 40), label="rows")
    d = data.draw(st.integers(1, 4), label="cols")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * data.draw(
        st.sampled_from([1e-3, 1.0, 1e4]), label="scale"
    )
    arena = FeatureSpace(X)
    reference = DictFeatureSpace(X)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        op = data.draw(st.sampled_from(OPERATIONS))
        live = reference.live_ids
        heads = data.draw(
            st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True),
            label="heads",
        )
        if op.arity == 1:
            new_a = arena.apply_unary(op.name, heads)
            new_r = reference.apply_unary(op.name, heads)
        else:
            tails = data.draw(
                st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True),
                label="tails",
            )
            # Identical pair sampling on both sides: same seeded stream.
            new_a = arena.apply_binary(
                op.name, heads, tails, max_new=4, rng=np.random.default_rng(seed)
            )
            new_r = reference.apply_binary(
                op.name, heads, tails, max_new=4, rng=np.random.default_rng(seed)
            )
        assert new_a == new_r
        if data.draw(st.booleans(), label="prune"):
            keep = data.draw(
                st.lists(
                    st.sampled_from(reference.live_ids),
                    min_size=1,
                    max_size=reference.n_features,
                    unique=True,
                ),
                label="keep",
            )
            arena.prune(keep)
            reference.prune(keep)
        assert arena.live_ids == reference.live_ids
        expected = np.column_stack([reference.values(f) for f in reference.live_ids])
        produced = arena.matrix()
        assert produced.flags.c_contiguous
        assert produced.tobytes() == expected.tobytes()
        assert arena.matrix_view().tobytes("C") == expected.tobytes()
    assert arena.snapshot().to_json() == reference.snapshot().to_json()


# -- cache signature: equal content <=> equal keys -----------------------------

matrices = st.integers(1, 12).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            (n, d),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, width=64,
                min_value=-1e9, max_value=1e9,
            ),
        )
    )
)


@SETTINGS
@given(X=matrices, fingerprint=st.binary(max_size=8))
def test_signature_equal_arrays_equal_keys(X, fingerprint):
    cache = EvaluationCache()
    y = np.arange(X.shape[0], dtype=float)
    key = cache.signature(X, y, fingerprint)
    assert cache.signature(np.array(X, copy=True), y.copy(), fingerprint) == key
    # A non-contiguous view with the same logical content still matches.
    doubled = np.ascontiguousarray(np.repeat(X, 2, axis=1))[:, ::2]
    assert cache.signature(doubled, y, fingerprint) == key
    # So do F-order copies (e.g. arena matrix_view slices): keys are
    # derived from row-major bytes whatever the input layout, which is
    # what lets the C-contiguous zero-copy fast path share the key space.
    assert cache.signature(np.asfortranarray(X), y, fingerprint) == key


@SETTINGS
@given(X=matrices, data=st.data())
def test_signature_separates_any_perturbation(X, data):
    cache = EvaluationCache()
    y = np.arange(X.shape[0], dtype=float)
    key = cache.signature(X, y)

    # element perturbation
    i = data.draw(st.integers(0, X.shape[0] - 1), label="row")
    j = data.draw(st.integers(0, X.shape[1] - 1), label="col")
    bumped = X.copy()
    bumped[i, j] = bumped[i, j] + 1.0 if np.isfinite(bumped[i, j]) else 0.0
    if bumped[i, j] != X[i, j]:  # degenerate draws (1e9 + 1 == 1e9) prove nothing
        assert cache.signature(bumped, y) != key

    # dtype perturbation: same values, narrower dtype
    as32 = X.astype(np.float32)
    assert cache.signature(as32, y) != key

    # shape perturbation: same bytes, different shape
    flat = X.reshape(1, -1)
    if flat.shape != X.shape:
        assert cache.signature(flat, y) != key

    # target perturbation
    assert cache.signature(X, y + 1.0) != key

    # evaluator fingerprint perturbation
    assert cache.signature(X, y, b"other-evaluator") != key
