"""FastFT core: the paper's primary contribution.

The search is a resumable, observable session; the classic blocking call
is a thin wrapper over it. Quickstart::

    from repro.core import SearchSession, FastFTConfig
    from repro.core.callbacks import TimeBudget, EarlyStopping

    session = SearchSession(
        X, y, task="classification",
        config=FastFTConfig(episodes=20, steps_per_episode=8),
        callbacks=[TimeBudget(60), EarlyStopping(patience=5)],
    )
    for record in session:                 # one StepRecord per step
        ...                                # observe / break / checkpoint
    session.checkpoint("search.ckpt")      # resumable at any point
    session = SearchSession.resume("search.ckpt")
    result = session.run()                 # -> FastFTResult

    X_star = result.transform(X)           # T*(F) -> F*
    result.expressions()                   # traceable formulas
    result.time                            # Table II buckets

Blocking one-liner (unchanged public API)::

    result = FastFT(FastFTConfig(episodes=20)).fit(X, y, task)

See :mod:`repro.api` for the highest-level facade (``search``,
``fit_transform``, ``run_batch``, cached evaluation).
"""

from repro.core.agents import CascadingAgents, StepDecision
from repro.core.callbacks import (
    Callback,
    CallbackList,
    Checkpointer,
    EarlyStopping,
    HistoryCollector,
    TimeBudget,
    VerboseLogger,
)
from repro.core.clustering import cluster_features, pairwise_cluster_distance
from repro.core.config import FastFTConfig
from repro.core.engine import FastFT
from repro.core.novelty import NoveltyEstimator, novelty_distance
from repro.core.parallel import SearchOrchestrator, SessionView, SweepResult
from repro.core.operations import (
    BINARY_OPERATIONS,
    OPERATION_NAMES,
    OPERATIONS,
    UNARY_OPERATIONS,
    Operation,
    get_operation,
)
from repro.core.predictor import PerformancePredictor, SequenceRegressor
from repro.core.result import FastFTResult, StepRecord, TimeBreakdown
from repro.core.reward import NoveltyWeightSchedule, downstream_reward, pseudo_reward
from repro.core.sequence import FeatureNode, FeatureSpace, TransformationPlan
from repro.core.session import CheckpointCorruptError, SearchSession
from repro.core.state import STATE_DIM, describe_matrix, rep_operation
from repro.core.tokens import TokenVocabulary
from repro.core.traceability import feature_importance_table, reward_peak_features

__all__ = [
    "FastFT",
    "FastFTConfig",
    "FastFTResult",
    "SearchSession",
    "CheckpointCorruptError",
    "SearchOrchestrator",
    "SweepResult",
    "SessionView",
    "StepRecord",
    "TimeBreakdown",
    "Callback",
    "CallbackList",
    "VerboseLogger",
    "TimeBudget",
    "EarlyStopping",
    "HistoryCollector",
    "Checkpointer",
    "CascadingAgents",
    "StepDecision",
    "FeatureSpace",
    "FeatureNode",
    "TransformationPlan",
    "TokenVocabulary",
    "Operation",
    "OPERATIONS",
    "OPERATION_NAMES",
    "UNARY_OPERATIONS",
    "BINARY_OPERATIONS",
    "get_operation",
    "PerformancePredictor",
    "SequenceRegressor",
    "NoveltyEstimator",
    "novelty_distance",
    "NoveltyWeightSchedule",
    "downstream_reward",
    "pseudo_reward",
    "cluster_features",
    "pairwise_cluster_distance",
    "describe_matrix",
    "rep_operation",
    "STATE_DIM",
    "feature_importance_table",
    "reward_peak_features",
]
