"""The downstream-task oracle A(F, y) (Equation 1 of the paper).

FastFT's whole premise is that this oracle is *expensive*: it runs K-fold
cross-validation of a real model over the full generated dataset. The
:class:`DownstreamEvaluator` packages the paper's task-type conventions —

- classification → random forest, weighted F1,
- regression     → random forest, 1 − RAE,
- detection      → random forest, AUC over positive-class probability,

— and tracks cumulative invocation count and wall time, which the Table II
time-breakdown harness reads directly.
"""

from __future__ import annotations

import copy
import time
from typing import Callable

import numpy as np

from repro.ml.base import BaseEstimator
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import f1_score, one_minus_rae, roc_auc_score
from repro.ml.model_selection import cross_val_score
from repro.ml.preprocessing import sanitize_features
from repro.ml.split_engine import PresortEngine

__all__ = ["DownstreamEvaluator", "default_model_for_task", "default_metric_for_task", "TASKS"]

TASKS = ("classification", "regression", "detection")


def default_model_for_task(
    task: str,
    n_estimators: int = 10,
    max_depth: int | None = 8,
    seed: int | None = 0,
) -> BaseEstimator:
    """The paper-lineage default downstream model (random forest) per task.

    The template holds no split-engine instance (each fit makes its own
    presort engine), so its pickled bytes, and with them the
    :class:`~repro.ml.cache.CachedEvaluator` fingerprint, are the same in
    every process.
    """
    if task == "regression":
        return RandomForestRegressor(n_estimators=n_estimators, max_depth=max_depth, seed=seed)
    if task in ("classification", "detection"):
        return RandomForestClassifier(n_estimators=n_estimators, max_depth=max_depth, seed=seed)
    raise ValueError(f"Unknown task {task!r}; expected one of {TASKS}")


def default_metric_for_task(task: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Headline metric per task type (Table I's reported columns)."""
    if task == "classification":
        return f1_score
    if task == "regression":
        return one_minus_rae
    if task == "detection":
        return roc_auc_score
    raise ValueError(f"Unknown task {task!r}; expected one of {TASKS}")


class DownstreamEvaluator:
    """Cross-validated downstream evaluation with cost accounting.

    Parameters
    ----------
    task:
        ``"classification"``, ``"regression"`` or ``"detection"``.
    model:
        Unfitted estimator template; cloned per fold. Defaults to the
        task-appropriate random forest.
    metric:
        ``metric(y_true, y_pred_or_score) -> float``, higher is better.
    n_splits:
        CV folds (the paper uses 5; tests shrink this for speed).
    """

    # Observability (repro.obs): attached by SearchSession.set_tracer;
    # process-local, dropped on pickling (the class attr is the fallback
    # every unpickled or worker copy sees).
    tracer = None

    def __init__(
        self,
        task: str,
        model: BaseEstimator | None = None,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        n_splits: int = 5,
        seed: int | None = 0,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"Unknown task {task!r}; expected one of {TASKS}")
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.task = task
        self.model = model if model is not None else default_model_for_task(task, seed=seed)
        self.metric = metric if metric is not None else default_metric_for_task(task)
        self.n_splits = n_splits
        self.seed = seed
        self.n_calls = 0
        self.total_time = 0.0

    def _cross_val(self, model: BaseEstimator, X: np.ndarray, y: np.ndarray):
        use_proba = self.task == "detection"
        stratified = self.task in ("classification", "detection")
        # The template goes in as-is: cross_val_score clones per fold and
        # never fits it.
        return cross_val_score(
            model,
            X,
            y,
            scorer=self.metric,
            n_splits=self.n_splits,
            seed=self.seed,
            stratified=stratified,
            use_proba=use_proba,
            return_fold_times=True,
        )

    def __call__(self, X: np.ndarray, y: np.ndarray) -> float:
        """Evaluate a feature matrix; returns the mean CV score."""
        start = time.perf_counter()
        X = sanitize_features(X)
        scores, fold_times = self._cross_val(self.model, X, y)
        self.n_calls += 1
        elapsed = time.perf_counter() - start
        self.total_time += elapsed
        tracer = self.tracer
        if tracer is not None:
            labels = {"engine": PresortEngine.name, "task": self.task}
            tracer.count("eval.calls", labels=labels)
            tracer.observe("eval.call_seconds", elapsed, labels=labels)
            for fold_time in fold_times:
                tracer.observe("eval.fold_seconds", float(fold_time), labels=labels)
        return float(np.mean(scores))

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> float:
        """Alias of :meth:`__call__` — the oracle A(F, y) of Equation 1."""
        return self(X, y)

    def evaluate_with_model(self, X: np.ndarray, y: np.ndarray, model: BaseEstimator) -> float:
        """Evaluate the same features under a different downstream model
        (Table III robustness study)."""
        X = sanitize_features(X)
        scores, _ = self._cross_val(model, X, y)
        return float(np.mean(scores))

    def for_worker(self) -> "DownstreamEvaluator":
        """A copy suitable for running *inside* a worker process.

        The copy holds no tracer (tracers are process-local) and its cost
        counters start fresh, so per-worker deltas are honest. Scores are
        unchanged.
        """
        clone = copy.copy(self)
        clone.__dict__.pop("tracer", None)
        clone.reset_counters()
        return clone

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (``None`` detaches)."""
        self.tracer = tracer

    def __getstate__(self) -> dict:
        # A tracer holds an open file handle and locks — never serialized
        # (session checkpoints, async-oracle worker blobs).
        state = dict(self.__dict__)
        state.pop("tracer", None)
        return state

    def reset_counters(self) -> None:
        self.n_calls = 0
        self.total_time = 0.0
