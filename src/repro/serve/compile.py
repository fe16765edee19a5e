"""The plan compiler: FeatureNode DAGs → flat vectorized programs.

:meth:`TransformationPlan.apply` is a memoized recursive interpreter — fine
for a handful of calls at search time, wasteful on the serving path where
the same plan runs on every request. :func:`compile_plan` flattens the DAG
into a topologically-ordered instruction list with three properties the
interpreter lacks:

- **Common-subexpression elimination.** The interpreter memoizes per
  feature id, but a search regularly materializes structurally identical
  derivations under distinct ids (``FeatureSpace`` only dedups against the
  *live* set, so pruned-and-regrown subtrees recur). The compiler keys
  every node by ``(op, operand slots)`` / ``(source column)`` and emits
  each distinct computation exactly once.
- **Chunked / streaming execution.** ``apply(X, chunk_size=...)`` evaluates
  the program over row blocks, releasing intermediate buffers as soon as
  their last consumer has run, so peak memory is bounded by
  ``chunk_size × live-slot count`` instead of ``n_rows × n_nodes``.
- **No recursion.** Compilation and execution are iterative, so plans
  deeper than Python's recursion limit still run.
- **A lean inner loop.** A run enters ``np.errstate`` once and calls each
  operation's kernel (``Operation.fn``) and :func:`~repro.core.operations.guard`
  directly, skipping ``Operation.__call__``'s per-call arity check,
  ``errstate`` and ``asarray``: :func:`compile_plan` validates arity once,
  and :meth:`CompiledPlan.apply` casts ``X`` to float once.

The contract is byte-identity: for any valid plan and input,
``compile_plan(plan).apply(X)`` equals ``plan.apply(X)`` array-for-array
(asserted in ``tests/serve/test_compile.py`` over every registered
operation). Every operation in the registry is elementwise, which is what
makes both CSE and chunking exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.operations import get_operation, guard
from repro.core.sequence import TransformationPlan
from repro.ml.preprocessing import sanitize_features

__all__ = ["Instruction", "CompiledPlan", "compile_plan"]


@dataclass(frozen=True)
class Instruction:
    """One step of the flattened program.

    ``op is None`` loads input column ``source_col`` into ``slot``;
    otherwise the operation is applied to the values in ``args`` slots.
    """

    slot: int
    op: str | None
    args: tuple[int, ...] = ()
    source_col: int | None = None


@dataclass
class CompiledPlan:
    """A topologically-ordered, CSE-deduplicated executable plan.

    Produced by :func:`compile_plan`; byte-identical to the source plan's
    interpreter on every input (chunked or not).
    """

    n_input_columns: int
    feature_names: list[str]
    instructions: list[Instruction]
    output_slots: list[int]
    n_slots: int
    n_nodes: int  # reachable FeatureNodes before CSE
    # slot -> index of the last instruction that reads it (outputs are
    # pinned past the end of the program); drives buffer release.
    _last_use: list[int] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.output_slots)

    @property
    def n_merged(self) -> int:
        """Nodes eliminated by common-subexpression elimination."""
        return self.n_nodes - len(self.instructions)

    def _run(self, X: np.ndarray, kernels: list[Callable | None], out: np.ndarray) -> None:
        """Execute the program over ``X`` writing the live columns to ``out``."""
        values: list[np.ndarray | None] = [None] * self.n_slots
        with np.errstate(all="ignore"):
            for i, ins in enumerate(self.instructions):
                if ins.op is None:
                    values[ins.slot] = X[:, ins.source_col]
                else:
                    values[ins.slot] = guard(kernels[i](*[values[a] for a in ins.args]))
                # Release buffers whose last consumer just ran (streaming
                # mode's memory bound); output slots have last_use beyond
                # the program.
                for a in ins.args:
                    if self._last_use[a] == i:
                        values[a] = None
        for j, slot in enumerate(self.output_slots):
            out[:, j] = values[slot]

    def apply(self, X: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Evaluate every live feature on ``X``; optionally in row chunks.

        Byte-identical to :meth:`TransformationPlan.apply` for any
        ``chunk_size``: all operations are elementwise, and the final
        sanitization pass (whose column medians are global statistics)
        runs once over the fully assembled matrix, exactly as the
        interpreter does.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_input_columns:
            raise ValueError(
                f"Plan was fitted on {self.n_input_columns} columns, got {X.shape}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        kernels = [
            None if ins.op is None else get_operation(ins.op).fn for ins in self.instructions
        ]
        n = X.shape[0]
        out = np.empty((n, self.n_features), dtype=float)
        if chunk_size is None or chunk_size >= n:
            self._run(X, kernels, out)
        else:
            for start in range(0, n, chunk_size):
                stop = min(start + chunk_size, n)
                self._run(X[start:stop], kernels, out[start:stop])
        return sanitize_features(out)


def _topological_order(plan: TransformationPlan) -> list[int]:
    """Iterative post-order DFS from the live set — the interpreter's
    evaluation order, without its recursion limit."""
    order: list[int] = []
    done: set[int] = set()
    for root in plan.live_ids:
        if root in done:
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            fid, expanded = stack.pop()
            if fid in done:
                continue
            if expanded:
                done.add(fid)
                order.append(fid)
                continue
            stack.append((fid, True))
            for child in reversed(plan.nodes[fid].children):
                if child not in done:
                    stack.append((child, False))
    return order


def compile_plan(plan: TransformationPlan) -> CompiledPlan:
    """Compile a (validated) plan into a :class:`CompiledPlan`."""
    plan.validate()
    order = _topological_order(plan)

    instructions: list[Instruction] = []
    slot_of_key: dict[tuple, int] = {}
    slot_of_fid: dict[int, int] = {}
    for fid in order:
        node = plan.nodes[fid]
        if node.op is None:
            key: tuple = ("src", node.source_col)
            args: tuple[int, ...] = ()
        else:
            args = tuple(slot_of_fid[c] for c in node.children)
            key = (node.op, args)
        slot = slot_of_key.get(key)
        if slot is None:
            slot = len(instructions)
            slot_of_key[key] = slot
            instructions.append(
                Instruction(slot=slot, op=node.op, args=args, source_col=node.source_col)
            )
        slot_of_fid[fid] = slot

    output_slots = [slot_of_fid[fid] for fid in plan.live_ids]
    last_use = [-1] * len(instructions)
    for i, ins in enumerate(instructions):
        for a in ins.args:
            last_use[a] = i
    for slot in output_slots:
        last_use[slot] = len(instructions)  # outputs are never released

    return CompiledPlan(
        n_input_columns=plan.n_input_columns,
        feature_names=list(plan.feature_names),
        instructions=instructions,
        output_slots=output_slots,
        n_slots=len(instructions),
        n_nodes=len(order),
        _last_use=last_use,
    )
