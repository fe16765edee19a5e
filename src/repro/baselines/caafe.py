"""CAAFE — context-aware (LLM-driven) feature engineering (Table I baseline 9).

The real CAAFE prompts GPT-4 with the dataset description and feature names
and iteratively accepts proposed features that improve cross-validated
performance. No LLM is available offline, and a live one would make Table I
neither reproducible nor free to rerun, so we reproduce the *system shape*
with a deterministic "semantic prior" proposal engine:

- proposals are derived from feature-name templates (ratio/product/log rules
  such as ``Weight/Height²`` when both names are present) plus MI-guided
  generic combinations, mimicking an LLM's domain-prior suggestions;
- the accept/reject loop is identical to CAAFE's (propose k, evaluate, keep
  on improvement);
- every "LLM call" charges a configurable simulated latency, reproducing
  CAAFE's runtime profile in Figs 9/10 (large constant cost per iteration
  that dominates on small datasets).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FeatureTransformBaseline
from repro.core.sequence import FeatureSpace, TransformationPlan
from repro.ml.evaluation import DownstreamEvaluator
from repro.ml.mutual_info import mutual_info_with_target
from repro.ml.preprocessing import sanitize_features

__all__ = ["CAAFE", "SemanticProposalEngine"]

# Name-pattern templates: (keyword_a, keyword_b, op, rationale).
_TEMPLATES = [
    ("weight", "height", "divide", "body-mass-style ratio"),
    ("weight", "active", "divide", "load per activity level"),
    ("sbp", "dbp", "subtract", "pulse pressure"),
    ("glucose", "bmi", "multiply", "metabolic interaction"),
    ("alcohol", "density", "divide", "concentration ratio"),
    ("sulphates", "chlorides", "divide", "chemical balance"),
    ("age", "pregnancies", "divide", "age per pregnancy"),
    ("insulin", "glucose", "divide", "insulin sensitivity"),
]


class SemanticProposalEngine:
    """Deterministic stand-in for the LLM: metadata-conditioned proposals."""

    def __init__(self, feature_names: list[str], seed: int | None = 0) -> None:
        self.feature_names = [n.lower() for n in feature_names]
        self._rng = np.random.default_rng(seed)

    def _find(self, keyword: str) -> int | None:
        for i, name in enumerate(self.feature_names):
            if keyword in name:
                return i
        return None

    def propose(
        self, X: np.ndarray, y: np.ndarray, task: str, k: int
    ) -> list[tuple[str, int, int]]:
        """Return up to ``k`` (op_name, col_i, col_j) proposals.

        Template matches come first (the 'domain knowledge' an LLM would
        surface from names); the remainder are MI-guided combinations (the
        LLM's statistical fallback when names are opaque).
        """
        proposals: list[tuple[str, int, int]] = []
        for key_a, key_b, op, _ in _TEMPLATES:
            i, j = self._find(key_a), self._find(key_b)
            if i is not None and j is not None and i != j:
                proposals.append((op, i, j))
        relevance = mutual_info_with_target(sanitize_features(X), y, task=task)
        ranked = np.argsort(-relevance)
        ops = ["multiply", "divide", "add", "subtract"]
        idx = 0
        while len(proposals) < k and idx < len(ranked) * (len(ranked) - 1):
            i = int(ranked[idx % len(ranked)])
            j = int(ranked[(idx // len(ranked) + 1) % len(ranked)])
            if i != j:
                proposals.append((ops[idx % len(ops)], i, j))
            idx += 1
        return proposals[:k]


class CAAFE(FeatureTransformBaseline):
    """Propose-evaluate-accept loop with simulated per-call LLM latency."""

    name = "CAAFE"

    def __init__(
        self,
        n_iterations: int = 4,
        proposals_per_iteration: int = 3,
        simulated_llm_latency: float = 2.5,
        cv_splits: int = 5,
        rf_estimators: int = 10,
        seed: int | None = 0,
    ) -> None:
        super().__init__(cv_splits, rf_estimators, seed)
        self.n_iterations = n_iterations
        self.proposals_per_iteration = proposals_per_iteration
        self.simulated_llm_latency = simulated_llm_latency

    def _search(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str,
        feature_names: list[str] | None,
        evaluator: DownstreamEvaluator,
        base_score: float,
    ) -> tuple[float, TransformationPlan, dict]:
        names = feature_names or [f"f{j + 1}" for j in range(X.shape[1])]
        engine = SemanticProposalEngine(names, seed=self.seed)
        space = FeatureSpace(X, names)
        originals = list(space.original_ids)

        best_score = base_score
        best_plan = space.snapshot()
        kept = list(originals)
        llm_calls = 0
        accepted = 0

        for _ in range(self.n_iterations):
            llm_calls += 1  # one "LLM call" proposes a batch
            proposals = engine.propose(
                space.matrix(originals), y, task, self.proposals_per_iteration
            )
            for op_name, i, j in proposals:
                new = space.apply_binary(op_name, [originals[i]], [originals[j]])
                trial = kept + new
                space.prune(trial)
                score = evaluator(space.matrix(), y)
                if score > best_score:
                    best_score = score
                    kept = trial
                    best_plan = space.snapshot()
                    accepted += 1
                else:
                    space.prune(kept)

        extra = {
            "llm_calls": llm_calls,
            "accepted": accepted,
            # Charged into wall_time by the base class (no real sleep).
            "simulated_latency": llm_calls * self.simulated_llm_latency,
        }
        return best_score, best_plan, extra
