"""Oracle-throughput bench — the production oracle vs the ones it replaced.

Table II attributes the bulk of FastFT's search wall time to the
downstream oracle A(F, y): cross-validated random forests over every
triggered candidate feature set. Two benchmarks time
:meth:`DownstreamEvaluator.evaluate` against references from
``tests/reference/`` and verify the scores are *identical* in every round:

- ``test_oracle_throughput``: a representative mid-search matrix (~2000 x
  60, the paper's medium datasets after a few transformation steps), the
  production forest against one with the seed's per-node-argsort engine
  injected (one node per engine call);
- ``test_lockstep_builder_throughput``: the production oracle, which grows
  all folds' trees of a call in lockstep, against the previous oracle
  (the recursive builder and per-tree forest loop on the per-node presort
  engine), on the ROADMAP baseline's three calls and on ``sweep_pool``'s
  call. The baseline calls report their ratio without a floor.

Timing notes: wall-time ratios, contention-sensitive
(``@pytest.mark.serial``). The arms run in ``ROUNDS`` interleaved rounds
that alternate which arm goes first, so background load that drifts
during the run lands on both; a floor applies to the median of the
per-round paired ratios, and each report gives every round and the
quartiles as the noise around it. Reports are saved before any floor is
asserted. The floors (1.4x over the naive engine, 1.3x over the previous
oracle on ``sweep_pool``'s call) sit well below the measured speedups
because this box shares cores with the rest of the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data.registry import load_dataset
from repro.ml.evaluation import DownstreamEvaluator
from repro.ml.forest import RandomForestClassifier
from tests.reference.split_engine import NaiveEngine
from tests.reference.tree import ReferenceRandomForestClassifier, ReferenceRandomForestRegressor

ROUNDS = 5
MIN_SPEEDUP = 1.4
ENGINES = ("naive", "presort")

# (label, dataset, scale, columns, folds, floor on the median paired ratio).
# The first three are the ROADMAP baseline's oracle calls: wine_quality_white
# and german_credit at their mid-search widths (raw columns plus derived
# ones), openml_618 as generated. The last is sweep_pool's call: pima_indian
# at the workload's scale, widened as a search widens it, 3 folds x 10 trees.
BUILDER_CALLS = (
    ("wine_quality_white", "wine_quality_white", 0.25, 36, 5, None),
    ("openml_618", "openml_618", 1.0, 50, 5, None),
    ("german_credit", "german_credit", 1.0, 36, 5, None),
    ("sweep_pool", "pima_indian", 0.5, 24, 3, 1.3),
)


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


def _widen(X: np.ndarray, columns: int, seed: int = 0) -> np.ndarray:
    """``X`` plus derived columns (products, rounded copies and sums of
    random column pairs) up to ``columns`` columns."""
    rng = np.random.default_rng(seed)
    derived = []
    for j in range(columns - X.shape[1]):
        a, b = rng.integers(0, X.shape[1], size=2)
        kind = j % 3
        if kind == 0:
            derived.append(X[:, a] * X[:, b])
        elif kind == 1:
            derived.append(np.round(X[:, a], 1))
        else:
            derived.append(X[:, a] + X[:, b])
    return np.column_stack([X, *derived]) if derived else X


def _paired_rounds(arms: dict, X, y):
    """Each arm's seconds and score per round, over ``ROUNDS`` interleaved
    rounds that alternate which arm goes first."""
    names = list(arms)
    seconds = {name: [] for name in names}
    scores = {name: [] for name in names}
    for round_ in range(ROUNDS):
        for name in names if round_ % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            score = arms[name].evaluate(X, y)
            seconds[name].append(time.perf_counter() - start)
            scores[name].append(score)
    return seconds, scores


def _engine_evaluator(engine: str, n_estimators: int, n_splits: int) -> DownstreamEvaluator:
    # The oracle's default forest, with the reference engine injected for
    # the naive arm.
    split_engine = NaiveEngine() if engine == "naive" else None
    return DownstreamEvaluator(
        "classification",
        model=RandomForestClassifier(
            n_estimators=n_estimators, max_depth=8, seed=0, split_engine=split_engine
        ),
        n_splits=n_splits,
        seed=0,
    )


@pytest.mark.serial
def test_oracle_throughput(profile, save_report):
    # The matrix stays at the representative size in every profile; the
    # smoke profile only shrinks the forest/CV budget to bound CI time.
    n_estimators = profile.rf_estimators if profile.name != "smoke" else 6
    n_splits = profile.cv_splits if profile.name != "smoke" else 3
    X, y = _representative_matrix()

    seconds, scores = _paired_rounds(
        {engine: _engine_evaluator(engine, n_estimators, n_splits) for engine in ENGINES}, X, y
    )
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


@pytest.mark.serial
def test_lockstep_builder_throughput(save_report):
    lines = [
        "Lockstep builder — DownstreamEvaluator.evaluate, previous oracle "
        "(recursive builder, per-node presort engine) vs lockstep builder",
        f"10-tree forests, median of {ROUNDS} interleaved rounds (arm order alternates)",
        f"{'call':20s} {'matrix':>10s} {'folds':>5s} {'previous':>9s} {'lockstep':>9s} "
        f"{'ratio':>6s} {'quartiles':>13s}  identical  rounds",
    ]
    outcomes = []
    for label, dataset, scale, columns, folds, floor in BUILDER_CALLS:
        data = load_dataset(dataset, scale=scale, seed=0)
        X = _widen(data.X, columns)
        previous = (
            ReferenceRandomForestRegressor
            if data.task == "regression"
            else ReferenceRandomForestClassifier
        )(n_estimators=10, max_depth=8, seed=0)
        arms = {
            "previous": DownstreamEvaluator(data.task, model=previous, n_splits=folds, seed=0),
            "lockstep": DownstreamEvaluator(data.task, n_splits=folds, seed=0),
        }
        seconds, scores = _paired_rounds(arms, X, data.y)
        identical = scores["previous"] == scores["lockstep"] and len(set(scores["lockstep"])) == 1
        ratios = np.array(seconds["previous"]) / np.array(seconds["lockstep"])
        q1, median, q3 = np.percentile(ratios, [25, 50, 75])
        outcomes.append((label, identical, median, q1, q3, floor))
        lines.append(
            f"{label:20s} {X.shape[0]:>5d}x{X.shape[1]:<4d} {folds:>5d} "
            f"{float(np.median(seconds['previous'])):9.3f} "
            f"{float(np.median(seconds['lockstep'])):9.3f} {median:5.2f}x "
            f"{q1:5.2f}x–{q3:.2f}x  {str(identical):9s}  "
            + ", ".join(f"{r:.2f}x" for r in ratios)
        )
    lines.append(
        "floor: "
        + ", ".join(f"{label} {floor}x" for label, *_, floor in outcomes if floor is not None)
        + " (median paired ratio); the other calls are reported without a floor"
    )
    save_report("lockstep_builder_throughput", "\n".join(lines))
    for label, identical, median, q1, q3, floor in outcomes:
        # Bit-identity is the hard guarantee: the same score from both
        # oracles in every round.
        assert identical, f"{label}: scores differ between the oracles"
    for label, identical, median, q1, q3, floor in outcomes:
        if floor is not None:
            assert median >= floor, (
                f"{label}: lockstep builder too slow: median paired ratio {median:.2f}x "
                f"(quartiles {q1:.2f}x–{q3:.2f}x, floor {floor}x)"
            )
