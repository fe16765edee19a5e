"""Oracle-throughput bench — presorted split engine vs the seed's naive one.

Table II attributes the bulk of FastFT's search wall time to the
downstream oracle A(F, y): cross-validated random forests over every
triggered candidate feature set. This benchmark times
:meth:`DownstreamEvaluator.evaluate` on a representative mid-search
matrix (~2000 x 60, the paper's medium datasets after a few
transformation steps) with the production forest (presort engine) and
with the seed's per-node-argsort engine from ``tests/reference/``
injected, verifies the scores are *identical* (the presort engine's
bit-identity contract), and records the speedup so future PRs can track
the trajectory.

Timing notes: the ratio is taken from the best of two rounds per engine
to damp CPU-contention noise, and the assertion floor is deliberately
below the typically-measured speedup (~2x on a single-core runner for
the engine alone; fold-parallel CV adds more on multi-core hardware)
because this box shares cores with the rest of the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.ml.evaluation import DownstreamEvaluator
from repro.ml.forest import RandomForestClassifier
from tests.reference.split_engine import NaiveEngine

ROUNDS = 2


def _representative_matrix(seed: int = 0, n: int = 2000, d: int = 60):
    """A mid-search candidate set: informative columns plus the tie
    structures transformation chains produce (rounded and duplicated
    features)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, d // 3] = np.round(X[:, d // 3])
    X[:, d // 2] = X[:, d // 2 - 1]
    y = (X @ rng.normal(size=d) + 0.25 * rng.normal(size=n) > 0).astype(int)
    return X, y


def _time_engine(engine: str, X, y, n_estimators: int, n_splits: int):
    best, score = float("inf"), None
    for _ in range(ROUNDS):
        # The oracle's default forest, with the reference engine injected
        # for the naive arm.
        split_engine = NaiveEngine() if engine == "naive" else None
        evaluator = DownstreamEvaluator(
            "classification",
            model=RandomForestClassifier(
                n_estimators=n_estimators, max_depth=8, seed=0, split_engine=split_engine
            ),
            n_splits=n_splits,
            seed=0,
        )
        start = time.perf_counter()
        s = evaluator.evaluate(X, y)
        best = min(best, time.perf_counter() - start)
        if score is None:
            score = s
        else:
            assert s == score  # deterministic across rounds
    return best, score


@pytest.mark.serial
def test_oracle_throughput(profile, save_report):
    # The matrix stays at the representative size in every profile; the
    # smoke profile only shrinks the forest/CV budget to bound CI time.
    n_estimators = profile.rf_estimators if profile.name != "smoke" else 6
    n_splits = profile.cv_splits if profile.name != "smoke" else 3
    X, y = _representative_matrix()

    def measure_and_report() -> float:
        naive_t, naive_score = _time_engine("naive", X, y, n_estimators, n_splits)
        presort_t, presort_score = _time_engine("presort", X, y, n_estimators, n_splits)
        speedup = naive_t / presort_t

        lines = [
            "Oracle throughput — DownstreamEvaluator.evaluate, naive vs presort split engine",
            f"matrix: {X.shape[0]} x {X.shape[1]} (binary classification, "
            f"{n_estimators}-tree forest, {n_splits}-fold CV, best of {ROUNDS} rounds)",
            f"{'engine':10s} {'seconds':>9s} {'score':>10s}",
            f"{'naive':10s} {naive_t:9.3f} {naive_score:10.6f}",
            f"{'presort':10s} {presort_t:9.3f} {presort_score:10.6f}",
            f"speedup: {speedup:.2f}x  (scores identical: {naive_score == presort_score})",
        ]
        save_report("oracle_throughput", "\n".join(lines))
        # Bit-identity is the hard guarantee: same oracle scores either way.
        assert presort_score == naive_score
        return speedup

    # Like fig10, this is a wall-time ratio: the report is saved before the
    # floor is asserted, and one retry on a fresh pair of timings guards
    # against a background process landing on one engine's rounds. The
    # floor is set for a noisy shared-CPU runner; the report records the
    # actual measured ratio for tracking.
    speedup = measure_and_report()
    if speedup < 1.4:
        speedup = measure_and_report()
    assert speedup >= 1.4, f"presort engine too slow: {speedup:.2f}x vs naive"
