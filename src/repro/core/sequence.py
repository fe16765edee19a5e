"""Traceable feature space: expression trees + executable transformation plans.

Every feature — original or generated — is a node with a provenance record.
This gives FastFT the paper's traceability property (Table IV, Fig 15): each
generated column can be printed as an explicit formula over the original
features, and a fitted plan can be re-applied to unseen data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.operations import get_operation
from repro.ml.preprocessing import sanitize_features

__all__ = ["FeatureNode", "TransformationPlan", "FeatureSpace"]


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
        """Evaluate every live feature on ``X`` (memoized recursion)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_input_columns:
            raise ValueError(
                f"Plan was fitted on {self.n_input_columns} columns, got {X.shape}"
            )
        cache: dict[int, np.ndarray] = {}

        def evaluate(fid: int) -> np.ndarray:
            if fid in cache:
                return cache[fid]
            node = self.nodes[fid]
            if node.op is None:
                value = X[:, node.source_col]
            else:
                operands = [evaluate(c) for c in node.children]
                value = get_operation(node.op)(*operands)
            cache[fid] = value
            return value

        return sanitize_features(np.column_stack([evaluate(fid) for fid in self.live_ids]))

    def expression(self, fid: int) -> str:
        """Infix formula of a feature in terms of the original columns."""
        node = self.nodes[fid]
        if node.op is None:
            return self.feature_names[node.source_col]
        operands = [self.expression(c) for c in node.children]
        return get_operation(node.op).format(*operands)

    def expressions(self) -> list[str]:
        return [self.expression(fid) for fid in self.live_ids]

    @property
    def n_features(self) -> int:
        return len(self.live_ids)

    def validate(self) -> None:
        """Check the plan graph is executable; raise ``ValueError`` if not.

        Catches the failure modes that would otherwise surface as bare
        ``KeyError``/``IndexError`` deep inside :meth:`apply`: live ids
        missing from ``nodes``, dangling ``children`` references, source
        columns outside ``[0, n_input_columns)``, unknown operations and
        arity mismatches. Every message names the offending node id.
        """
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
        # Cycle check (iterative DFS, 1 = on the current path, 2 = done):
        # a cyclic graph would hang compilation and blow the interpreter's
        # recursion limit instead of failing cleanly here.
        state: dict[int, int] = {}
        for root in self.live_ids:
            if state.get(root) == 2:
                continue
            state[root] = 1
            stack = [(root, iter(self.nodes[root].children))]
            while stack:
                fid, children = stack[-1]
                pushed = False
                for c in children:
                    s = state.get(c)
                    if s == 1:
                        raise ValueError(f"node {c}: plan graph contains a cycle")
                    if s != 2:
                        state[c] = 1
                        stack.append((c, iter(self.nodes[c].children)))
                        pushed = True
                        break
                if not pushed:
                    state[fid] = 2
                    stack.pop()

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
        """Rebuild a plan serialized by :meth:`to_json` (validated on load)."""
        payload = json.loads(data)
        nodes = {
            int(raw["fid"]): FeatureNode(
                fid=int(raw["fid"]),
                op=raw["op"],
                children=tuple(int(c) for c in raw["children"]),
                source_col=raw["source_col"],
            )
            for raw in payload["nodes"]
        }
        plan = cls(
            nodes=nodes,
            live_ids=[int(i) for i in payload["live_ids"]],
            n_input_columns=int(payload["n_input_columns"]),
            feature_names=list(payload["feature_names"]),
        )
        plan.validate()
        return plan


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
        node = self._nodes[fid]
        if node.op is None:
            return self.feature_names[node.source_col]
        operands = [self.expression(c) for c in node.children]
        return get_operation(node.op).format(*operands)

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
