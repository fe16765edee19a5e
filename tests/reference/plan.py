"""The seed's plan executor and formatter: memoized recursion over the DAG.

:meth:`repro.core.sequence.TransformationPlan.apply` compiles the plan and
runs the program, and every formatter walks the DAG iteratively. The seed
recursed instead; its interpreter and formatter are kept here, unchanged
in behaviour, so ``tests/serve/test_compile.py``, the property tests and
the serve-throughput benchmark compare production against them byte for
byte. Both recurse once per level of the DAG, so they raise
``RecursionError`` on plans deeper than Python's recursion limit.
"""

from __future__ import annotations

import numpy as np

from repro.core.operations import get_operation
from repro.core.sequence import TransformationPlan
from repro.ml.preprocessing import sanitize_features

__all__ = ["apply", "expression", "expressions"]


def apply(plan: TransformationPlan, X: np.ndarray) -> np.ndarray:
    """Evaluate every live feature of ``plan`` on ``X`` (memoized recursion)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != plan.n_input_columns:
        raise ValueError(
            f"Plan was fitted on {plan.n_input_columns} columns, got {X.shape}"
        )
    cache: dict[int, np.ndarray] = {}

    def evaluate(fid: int) -> np.ndarray:
        if fid in cache:
            return cache[fid]
        node = plan.nodes[fid]
        if node.op is None:
            value = X[:, node.source_col]
        else:
            operands = [evaluate(c) for c in node.children]
            value = get_operation(node.op)(*operands)
        cache[fid] = value
        return value

    return sanitize_features(np.column_stack([evaluate(fid) for fid in plan.live_ids]))


def expression(plan: TransformationPlan, fid: int) -> str:
    """Infix formula of a feature in terms of the original columns."""
    node = plan.nodes[fid]
    if node.op is None:
        return plan.feature_names[node.source_col]
    operands = [expression(plan, c) for c in node.children]
    return get_operation(node.op).format(*operands)


def expressions(plan: TransformationPlan) -> list[str]:
    return [expression(plan, fid) for fid in plan.live_ids]
