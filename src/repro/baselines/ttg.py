"""TTG — transformation-graph exploration (Table I baseline 6).

Following Khurana et al. (AAAI 2018): nodes of a directed graph are entire
datasets; an edge applies one operation to *all* features of a node (plus a
union/merge action). A Q-function over (node-state, action) pairs — here a
hashed linear approximation — is learned while the graph is expanded under a
node budget, and the best-evaluated node wins. networkx tracks the graph so
the exploration trace is inspectable.
"""

from __future__ import annotations

import numpy as np

try:  # networkx is available in the target environment; degrade gracefully.
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None

from repro.baselines.base import FeatureTransformBaseline
from repro.core.operations import UNARY_OPERATIONS
from repro.core.sequence import FeatureSpace, TransformationPlan
from repro.core.state import describe_matrix
from repro.ml.evaluation import DownstreamEvaluator
from repro.ml.mutual_info import mutual_info_with_target
from repro.ml.preprocessing import sanitize_features

__all__ = ["TTG"]


class TTG(FeatureTransformBaseline):
    """Budgeted transformation-graph search with linear Q-learning."""

    name = "TTG"

    def __init__(
        self,
        node_budget: int = 14,
        epsilon: float = 0.3,
        lr: float = 0.05,
        gamma: float = 0.9,
        max_features_factor: int = 3,
        cv_splits: int = 5,
        rf_estimators: int = 10,
        seed: int | None = 0,
    ) -> None:
        super().__init__(cv_splits, rf_estimators, seed)
        self.node_budget = node_budget
        self.epsilon = epsilon
        self.lr = lr
        self.gamma = gamma
        self.max_features_factor = max_features_factor

    def _search(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str,
        feature_names: list[str] | None,
        evaluator: DownstreamEvaluator,
        base_score: float,
    ) -> tuple[float, TransformationPlan, dict]:
        rng = np.random.default_rng(self.seed)
        actions = [op.name for op in UNARY_OPERATIONS]
        n_actions = len(actions)
        weights = np.zeros((n_actions, 49))  # linear Q over describe-vectors

        graph = nx.DiGraph() if nx is not None else None
        root = FeatureSpace(X, feature_names)
        nodes: list[tuple[FeatureSpace, float, np.ndarray]] = [
            (root, base_score, describe_matrix(X))
        ]
        if graph is not None:
            graph.add_node(0, score=base_score)
        cap = self.max_features_factor * X.shape[1]

        best_score, best_plan = base_score, root.snapshot()
        while len(nodes) < self.node_budget:
            parent_idx = int(rng.integers(0, len(nodes)))
            parent_space, parent_score, parent_state = nodes[parent_idx]

            if rng.random() < self.epsilon:
                action = int(rng.integers(0, n_actions))
            else:
                q = weights @ parent_state
                action = int(np.argmax(q))
            op_name = actions[action]

            # Expand: apply the op to every live feature of a copied space.
            child = FeatureSpace(X, feature_names)
            child_live = self._replay(parent_space, child)
            child.apply_unary(op_name, child_live)
            if child.n_features > cap:
                matrix = sanitize_features(child.matrix())
                relevance = mutual_info_with_target(matrix, y, task=task)
                live = child.live_ids
                child.prune([live[i] for i in np.argsort(-relevance)[:cap]])

            score = evaluator(child.matrix(), y)
            state = describe_matrix(child.matrix())
            reward = score - parent_score

            # Q-learning update on the linear approximation.
            q_next = float((weights @ state).max())
            td = reward + self.gamma * q_next - float(weights[action] @ parent_state)
            weights[action] += self.lr * td * parent_state

            nodes.append((child, score, state))
            if graph is not None:
                node_id = len(nodes) - 1
                graph.add_node(node_id, score=score)
                graph.add_edge(parent_idx, node_id, op=op_name)
            if score > best_score:
                best_score, best_plan = score, child.snapshot()

        extra = {}
        if graph is not None:
            extra["graph_nodes"] = graph.number_of_nodes()
            extra["graph_edges"] = graph.number_of_edges()
        return best_score, best_plan, extra

    @staticmethod
    def _replay(parent: FeatureSpace, child: FeatureSpace) -> list[int]:
        """Recreate the parent's live features inside a fresh space."""
        plan = parent.snapshot()
        mapping: dict[int, int] = {}
        for fid in plan.validate():  # operands before the features built on them
            node = plan.nodes[fid]
            if node.op is None:
                mapping[fid] = child.original_ids[node.source_col]
                continue
            args = [mapping[c] for c in node.children]
            if len(args) == 1:
                mapping[fid] = child.apply_unary(node.op, args)[0]
            else:
                mapping[fid] = child.apply_binary(node.op, args[:1], args[1:])[0]
        live = [mapping[fid] for fid in plan.live_ids]
        child.prune(live)
        return live
