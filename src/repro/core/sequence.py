"""Traceable feature space: expression trees + executable transformation plans.

Every feature — original or generated — is a node with a provenance record.
This gives FastFT the paper's traceability property (Table IV, Fig 15): each
generated column can be printed as an explicit formula over the original
features, and a fitted plan can be re-applied to unseen data.

A plan runs one way: :meth:`TransformationPlan.apply` compiles it with
:func:`compile_plan` and runs the program, which ``PipelineArtifact``
caches for serving. Validation, compilation and formatting share one
iterative post-order walk, so plans deeper than Python's recursion limit
still validate, run and print. The seed's recursive interpreter and
formatter are the byte-identity oracles in ``tests/reference/plan.py``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.operations import get_operation, guard
from repro.ml.preprocessing import sanitize_features

__all__ = ["FeatureNode", "TransformationPlan", "Instruction", "CompiledPlan", "compile_plan",
           "FeatureSpace"]


@dataclass(frozen=True)
class FeatureNode:
    """Provenance of a single feature.

    ``op`` is ``None`` for original input columns (then ``source_col`` is the
    column index); otherwise ``children`` holds the operand feature ids.
    """

    fid: int
    op: str | None = None
    children: tuple[int, ...] = ()
    source_col: int | None = None


def _post_order(nodes: dict[int, FeatureNode], roots: Iterable[int]) -> list[int]:
    """Every feature reachable from ``roots``, each once, operands first.

    This is the order a memoized recursive evaluation visits them in, found
    with an explicit stack so a deep chain does not hit Python's recursion
    limit. A cycle raises ``ValueError`` (it would otherwise never finish).
    """
    order: list[int] = []
    done: dict[int, bool] = {}  # False while on the current path
    for root in roots:
        if root in done:
            continue
        done[root] = False
        stack = [(root, iter(nodes[root].children))]
        while stack:
            fid, children = stack[-1]
            for c in children:
                state = done.get(c)
                if state is None:
                    done[c] = False
                    stack.append((c, iter(nodes[c].children)))
                    break
                if not state:
                    raise ValueError(f"node {c}: plan graph contains a cycle")
            else:
                done[fid] = True
                order.append(fid)
                stack.pop()
    return order


def _format(nodes: dict[int, FeatureNode], names: list[str], fids: list[int]) -> list[str]:
    """Infix formula of each of ``fids`` in terms of the original columns."""
    text: dict[int, str] = {}
    for fid in _post_order(nodes, fids):
        node = nodes[fid]
        if node.op is None:
            text[fid] = names[node.source_col]
        else:
            text[fid] = get_operation(node.op).format(*[text[c] for c in node.children])
    return [text[fid] for fid in fids]


def _json_int(value, where: str) -> int:
    # ``bool`` is an ``int`` subclass; floats and strings are never coerced.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _json_ids(values, where: str) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"{where}: expected a list of integers, got {values!r}")
    return [_json_int(v, where) for v in values]


@dataclass
class TransformationPlan:
    """A frozen, re-applicable transformation: nodes + the live feature ids.

    Applying a plan to a matrix with the same column count reproduces the
    transformed feature set on new data (the ``T*(F) -> F*`` of Eq. 1).
    """

    nodes: dict[int, FeatureNode]
    live_ids: list[int]
    n_input_columns: int
    feature_names: list[str]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Evaluate every live feature on ``X`` through :func:`compile_plan`.

        Raises ``ValueError`` on an invalid plan (see :meth:`validate`).
        """
        return compile_plan(self).apply(X)

    def expression(self, fid: int) -> str:
        """Infix formula of a feature in terms of the original columns."""
        return _format(self.nodes, self.feature_names, [fid])[0]

    def expressions(self) -> list[str]:
        return _format(self.nodes, self.feature_names, self.live_ids)

    @property
    def n_features(self) -> int:
        return len(self.live_ids)

    def validate(self) -> list[int]:
        """Check the plan graph is executable; raise ``ValueError`` if not.

        Catches the failure modes that would otherwise surface as bare
        ``KeyError``/``IndexError`` or a wrong shape deep inside
        :meth:`apply`: an empty live set, ``feature_names`` not naming
        every input column, live ids missing from ``nodes``, dangling
        ``children`` references, source columns outside
        ``[0, n_input_columns)``, unknown operations, arity mismatches and
        cycles. Every message names the offending node id or field.

        Returns the features reachable from the live set in evaluation
        order (operands before the features built on them).
        """
        if not self.live_ids:
            raise ValueError("live_ids is empty; a plan outputs at least one feature")
        if len(self.feature_names) != self.n_input_columns:
            raise ValueError(
                f"feature_names has {len(self.feature_names)} names for "
                f"{self.n_input_columns} input columns"
            )
        missing = [fid for fid in self.live_ids if fid not in self.nodes]
        if missing:
            raise ValueError(f"live_ids reference unknown features: {missing}")
        for fid, node in self.nodes.items():
            if node.op is None:
                if node.source_col is None or not 0 <= node.source_col < self.n_input_columns:
                    raise ValueError(
                        f"node {fid}: source_col {node.source_col} outside the "
                        f"{self.n_input_columns} input columns"
                    )
                continue
            try:
                op = get_operation(node.op)
            except KeyError:
                raise ValueError(f"node {fid}: unknown operation {node.op!r}") from None
            if len(node.children) != op.arity:
                raise ValueError(
                    f"node {fid}: {node.op} expects {op.arity} operand(s), "
                    f"got {len(node.children)}"
                )
            dangling = [c for c in node.children if c not in self.nodes]
            if dangling:
                raise ValueError(f"node {fid}: dangling children ids {dangling}")
        return _post_order(self.nodes, self.live_ids)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the plan (nodes + live set) to a JSON string."""
        payload = {
            "n_input_columns": self.n_input_columns,
            "feature_names": self.feature_names,
            "live_ids": self.live_ids,
            "nodes": [
                {
                    "fid": node.fid,
                    "op": node.op,
                    "children": list(node.children),
                    "source_col": node.source_col,
                }
                for node in self.nodes.values()
            ],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, data: str) -> "TransformationPlan":
        """Rebuild a plan serialized by :meth:`to_json` (validated on load).

        Ids, ``source_col`` and ``n_input_columns`` must be JSON integers
        and ``op`` a string or null; nothing is coerced, so a malformed
        file fails here with a ``ValueError`` instead of on every apply.
        """
        payload = json.loads(data)
        nodes: dict[int, FeatureNode] = {}
        for raw in payload["nodes"]:
            fid = _json_int(raw["fid"], "node fid")
            op, col = raw["op"], raw["source_col"]
            if fid in nodes:
                raise ValueError(f"node {fid}: duplicate fid")
            if not (op is None or isinstance(op, str)):
                raise ValueError(f"node {fid}: op must be a string or null, got {op!r}")
            if col is not None:
                _json_int(col, f"node {fid} source_col")
            children = tuple(_json_ids(raw["children"], f"node {fid} children"))
            nodes[fid] = FeatureNode(fid, op, children, col)
        names = payload["feature_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"feature_names: expected a list of strings, got {names!r}")
        plan = cls(
            nodes=nodes,
            live_ids=_json_ids(payload["live_ids"], "live_ids"),
            n_input_columns=_json_int(payload["n_input_columns"], "n_input_columns"),
            feature_names=names,
        )
        plan.validate()
        return plan


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

    Produced by :func:`compile_plan`. A run enters ``np.errstate`` once and
    calls each operation's kernel (``Operation.fn``) and
    :func:`~repro.core.operations.guard` directly: arity was checked at
    compile time, and :meth:`apply` casts ``X`` to float once. Chunked
    runs release each intermediate buffer after its last consumer, so
    peak memory is bounded by ``chunk_size × live-slot count``.
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

        The output does not depend on ``chunk_size``: all operations are
        elementwise, and the final sanitization pass (whose column medians
        are global statistics) runs once over the fully assembled matrix.
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


def compile_plan(plan: TransformationPlan) -> CompiledPlan:
    """Validate a plan and compile it into a :class:`CompiledPlan`.

    Nodes are keyed by ``(op, operand slots)`` / ``(source column)``, so
    structurally identical derivations under distinct ids — which a search
    leaves behind, as ``FeatureSpace`` dedups only against the live set —
    are computed once. Every registered operation is elementwise, which
    makes this common-subexpression elimination (and chunking) exact.
    """
    order = plan.validate()

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


class FeatureSpace:
    """The evolving feature set F̂ during one episode.

    Maintains the value matrix, the provenance registry and the live-column
    ordering; supports group-wise crossing (§III-B) and importance pruning.

    Columns live in one contiguous column-major ``(n_samples, capacity)``
    arena with amortized-doubling growth. Column ``fid`` lives at arena
    slot ``fid``; :meth:`values` is a zero-copy view, :meth:`matrix` is a
    single vectorized gather, and :meth:`matrix_view` returns a zero-copy
    F-contiguous view when the requested features are a contiguous id
    prefix. Duplicate detection is O(1) via a derivation-signature count
    maintained across :meth:`prune` (the seed implementation scanned the
    whole live set per candidate pair).

    The seed's dict-of-columns store is kept as a test oracle in
    ``tests/reference/sequence.py``; the property tests prove the two
    byte-identical.
    """

    def __init__(self, X: np.ndarray, feature_names: list[str] | None = None) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        self.n_input_columns = X.shape[1]
        self.feature_names = (
            list(feature_names)
            if feature_names is not None
            else [f"f{j + 1}" for j in range(X.shape[1])]
        )
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length mismatch")
        self._n_samples = X.shape[0]
        self._nodes: dict[int, FeatureNode] = {}
        # 2x headroom over the input width bounds the growth slack at a
        # factor of two of what one array per column would hold.
        self._arena = np.empty((X.shape[0], max(8, 2 * X.shape[1])), dtype=float, order="F")
        self._live: list[int] = []
        self._sig_count: dict[tuple[str, tuple[int, ...]], int] = {}
        self._next_fid = 0
        for j in range(X.shape[1]):
            fid = self._allocate(FeatureNode(fid=0, op=None, source_col=j), X[:, j])
            self._live_append(fid)
        self._original_ids = tuple(self._live)

    # -- bookkeeping -----------------------------------------------------------

    def _grow(self, needed: int, n_filled: int) -> None:
        old = self._arena
        new_cap = max(needed, 2 * old.shape[1])
        new = np.empty((old.shape[0], new_cap), dtype=float, order="F")
        new[:, :n_filled] = old[:, :n_filled]
        self._arena = new

    def _allocate(self, node: FeatureNode, values: np.ndarray) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self._nodes[fid] = FeatureNode(
            fid=fid, op=node.op, children=node.children, source_col=node.source_col
        )
        if fid >= self._arena.shape[1]:
            self._grow(fid + 1, n_filled=fid)
        self._arena[:, fid] = sanitize_features(values.reshape(-1, 1)).ravel()
        return fid

    def _live_append(self, fid: int) -> None:
        self._live.append(fid)
        node = self._nodes[fid]
        if node.op is not None:
            key = (node.op, node.children)
            self._sig_count[key] = self._sig_count.get(key, 0) + 1

    def _rebuild_signatures(self) -> None:
        sig: dict[tuple[str, tuple[int, ...]], int] = {}
        for fid in self._live:
            node = self._nodes[fid]
            if node.op is not None:
                key = (node.op, node.children)
                sig[key] = sig.get(key, 0) + 1
        self._sig_count = sig

    def __setstate__(self, state: dict) -> None:
        # Spaces pickled by older builds may hold their columns in a dict
        # (``_columns``, fid -> column) instead of the arena, and the
        # oldest carry neither ``_n_samples`` nor the signature counts.
        # Adopt every such state onto the arena; the values are the same.
        self.__dict__.update(state)
        self.__dict__.pop("_backend", None)
        columns = self.__dict__.pop("_columns", None)
        if columns is not None:
            n = len(next(iter(columns.values()))) if columns else 0
            self._n_samples = n
            width = max(8, 2 * self.n_input_columns, self._next_fid)
            self._arena = np.empty((n, width), dtype=float, order="F")
            for fid, column in columns.items():
                self._arena[:, fid] = column
        if "_sig_count" not in state:
            self._rebuild_signatures()

    @property
    def live_ids(self) -> list[int]:
        return list(self._live)

    @property
    def live_ids_view(self) -> list[int]:
        """The internal live-id list without the defensive copy.

        Hot callers (the session's recluster/prune loops) read this instead
        of :attr:`live_ids`; treat it as read-only.
        """
        return self._live

    @property
    def original_ids(self) -> tuple[int, ...]:
        return self._original_ids

    @property
    def n_features(self) -> int:
        return len(self._live)

    @property
    def n_samples(self) -> int:
        return self._n_samples

    def _is_live_prefix(self, fids: list[int]) -> bool:
        """True when ``fids`` is exactly arena slots ``0..k-1`` in order."""
        return (
            self._next_fid >= len(fids)
            and all(f == i for i, f in enumerate(fids))
        )

    def matrix(self, fids: list[int] | None = None) -> np.ndarray:
        """Value matrix of the given (default: live) features.

        Always a fresh C-contiguous array, byte-identical to
        ``np.column_stack`` over the per-feature columns (consumers'
        axis-0 reductions are layout-sensitive at the bit level, so the
        arena gathers into row-major order before handing the matrix out).
        """
        fids = self._live if fids is None else fids
        if not fids:
            raise ValueError("matrix() of an empty feature list")
        if self._is_live_prefix(fids):
            return self._arena[:, : len(fids)].copy(order="C")
        # Gather straight into row-major storage: advanced indexing on an
        # F-order buffer would hand back an F-order result, and consumers'
        # axis-0 reductions are layout-sensitive at the bit level.
        out = np.empty((self._n_samples, len(fids)), dtype=float)
        for j, f in enumerate(fids):
            if f not in self._nodes:
                # An unallocated fid is a KeyError, never a silent read of
                # uninitialized arena slots.
                raise KeyError(f)
            out[:, j] = self._arena[:, f]
        return out

    def matrix_view(self, fids: list[int] | None = None) -> np.ndarray:
        """Read-only value matrix that avoids the row-major copy.

        When ``fids`` is a contiguous id prefix of the arena (the common
        case before the first prune), this is a zero-copy F-contiguous
        view of the buffer. Falls back to :meth:`matrix` otherwise.
        Intended for layout-insensitive consumers (per-column statistics,
        content hashing) — never mutate it.
        """
        fids = self._live if fids is None else fids
        if fids and self._is_live_prefix(fids):
            view = self._arena[:, : len(fids)]
            view.flags.writeable = False
            return view
        return self.matrix(fids)

    def values(self, fid: int) -> np.ndarray:
        if fid not in self._nodes:
            raise KeyError(fid)
        view = self._arena[:, fid]
        view.flags.writeable = False
        return view

    # -- transformation ----------------------------------------------------------

    def _is_duplicate(self, op_name: str, children: tuple[int, ...]) -> bool:
        """True when a live feature already carries this exact derivation."""
        return self._sig_count.get((op_name, children), 0) > 0

    def apply_unary(self, op_name: str, head_ids: list[int]) -> list[int]:
        """Apply a unary op to each head feature; returns new feature ids.

        Exact re-derivations of live features are skipped (the paper's
        'replacing useless features' behaviour starts with not duplicating)."""
        op = get_operation(op_name)
        if op.arity != 1:
            raise ValueError(f"{op_name} is not unary")
        new_ids = []
        for h in head_ids:
            if self._is_duplicate(op_name, (h,)):
                continue
            values = op(self.values(h))
            fid = self._allocate(FeatureNode(fid=0, op=op_name, children=(h,)), values)
            self._live_append(fid)
            new_ids.append(fid)
        return new_ids

    def apply_binary(
        self,
        op_name: str,
        head_ids: list[int],
        tail_ids: list[int],
        max_new: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[int]:
        """Group-wise crossing: op(h, t) for the |a_h|×|a_t| product.

        ``max_new`` caps the fan-out by sampling pairs (the sequence and the
        feature set would otherwise grow quadratically in cluster size); the
        sampling requires an explicit ``rng`` — an implicit unseeded
        fallback would silently make seeded searches nondeterministic.
        """
        op = get_operation(op_name)
        if op.arity != 2:
            raise ValueError(f"{op_name} is not binary")
        if max_new is not None and rng is None:
            raise ValueError(
                "apply_binary(max_new=...) samples pairs and requires an explicit "
                "rng (np.random.Generator); an unseeded fallback would make "
                "seeded searches silently nondeterministic"
            )
        commutative = op_name in ("add", "multiply")
        pairs = [(h, t) for h in head_ids for t in tail_ids if h != t]
        if not pairs:
            pairs = [(h, t) for h in head_ids for t in tail_ids]
        if commutative:
            # (a+b) and (b+a) are the same feature; canonicalize and dedup.
            pairs = list(dict.fromkeys((min(h, t), max(h, t)) for h, t in pairs))
        if max_new is not None and len(pairs) > max_new:
            chosen = rng.choice(len(pairs), size=max_new, replace=False)
            pairs = [pairs[i] for i in chosen]
        new_ids = []
        for h, t in pairs:
            if self._is_duplicate(op_name, (h, t)):
                continue
            values = op(self.values(h), self.values(t))
            fid = self._allocate(FeatureNode(fid=0, op=op_name, children=(h, t)), values)
            self._live_append(fid)
            new_ids.append(fid)
        return new_ids

    def prune(self, keep_ids: list[int]) -> None:
        """Restrict the live set (original features may also be dropped,
        matching the paper's 'replacing useless features' behaviour); the
        provenance registry keeps every ancestor so plans stay executable.
        The duplicate-signature counts are rebuilt over the surviving set,
        so :meth:`apply_unary`/:meth:`apply_binary` keep their exact
        live-only dedup semantics after a prune."""
        keep = [f for f in keep_ids if f in self._nodes]
        if not keep:
            raise ValueError("Cannot prune to an empty feature set")
        self._live = keep
        self._rebuild_signatures()

    # -- traceability --------------------------------------------------------------

    def expression(self, fid: int) -> str:
        """Infix formula of a feature in terms of the original columns."""
        return _format(self._nodes, self.feature_names, [fid])[0]

    def snapshot(self) -> TransformationPlan:
        """Freeze the current live set into a re-applicable plan."""
        needed: dict[int, FeatureNode] = {}

        def collect(fid: int) -> None:
            if fid in needed:
                return
            node = self._nodes[fid]
            needed[fid] = node
            for c in node.children:
                collect(c)

        for fid in self._live:
            collect(fid)
        return TransformationPlan(
            nodes=dict(needed),
            live_ids=list(self._live),
            n_input_columns=self.n_input_columns,
            feature_names=list(self.feature_names),
        )
