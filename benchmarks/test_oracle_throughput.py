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

Timing notes: wall-time ratio, contention-sensitive
(``@pytest.mark.serial``). The engines run in ``ROUNDS`` interleaved
rounds that alternate which engine goes first, so background load that
drifts during the run lands on both; the floor applies to the median of
the per-round naive/presort ratios, and the report gives every round and
the quartiles as the noise around it. The report is saved before the
floor is asserted. The floor is deliberately below the typically
measured speedup (~2x on a single-core runner for the engine alone;
fold-parallel CV adds more on multi-core hardware) because this box
shares cores with the rest of the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.ml.evaluation import DownstreamEvaluator
from repro.ml.forest import RandomForestClassifier
from tests.reference.split_engine import NaiveEngine

ROUNDS = 5
MIN_SPEEDUP = 1.4
ENGINES = ("naive", "presort")


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
    # The oracle's default forest, with the reference engine injected for
    # the naive arm.
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
    score = evaluator.evaluate(X, y)
    return time.perf_counter() - start, score


@pytest.mark.serial
def test_oracle_throughput(profile, save_report):
    # The matrix stays at the representative size in every profile; the
    # smoke profile only shrinks the forest/CV budget to bound CI time.
    n_estimators = profile.rf_estimators if profile.name != "smoke" else 6
    n_splits = profile.cv_splits if profile.name != "smoke" else 3
    X, y = _representative_matrix()

    seconds = {engine: [] for engine in ENGINES}
    scores = {engine: [] for engine in ENGINES}
    for round_ in range(ROUNDS):
        for engine in ENGINES if round_ % 2 == 0 else ENGINES[::-1]:
            elapsed, score = _time_engine(engine, X, y, n_estimators, n_splits)
            seconds[engine].append(elapsed)
            scores[engine].append(score)
    identical = scores["naive"] == scores["presort"]
    ratios = np.array(seconds["naive"]) / np.array(seconds["presort"])
    q1, speedup, q3 = np.percentile(ratios, [25, 50, 75])

    lines = [
        "Oracle throughput — DownstreamEvaluator.evaluate, naive vs presort split engine",
        f"matrix: {X.shape[0]} x {X.shape[1]} (binary classification, "
        f"{n_estimators}-tree forest, {n_splits}-fold CV), "
        f"median of {ROUNDS} interleaved rounds (engine order alternates)",
        f"{'engine':10s} {'seconds':>9s} {'score':>10s}",
    ]
    for engine in ENGINES:
        lines.append(
            f"{engine:10s} {float(np.median(seconds[engine])):9.3f} {scores[engine][0]:10.6f}"
        )
    lines += [
        f"speedup (median of per-round ratios): {speedup:.2f}x  "
        f"[quartiles {q1:.2f}x–{q3:.2f}x; rounds: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
        + "]",
        f"scores identical in every round: {identical}",
    ]
    save_report("oracle_throughput", "\n".join(lines))
    # Bit-identity is the hard guarantee: same oracle scores either way,
    # and the same score in every round.
    assert identical
    assert len(set(scores["presort"])) == 1
    # The floor is set for a noisy shared-CPU runner; the report records
    # the measured ratio for tracking.
    assert speedup >= MIN_SPEEDUP, (
        f"presort engine too slow: median paired ratio {speedup:.2f}x vs naive "
        f"(quartiles {q1:.2f}x–{q3:.2f}x, floor {MIN_SPEEDUP}x)"
    )
