"""Domain scenario 1 — cardiovascular risk screening (the paper's Fig 15 case).

FastFT searches feature crossings of named medical indicators (Weight, DBP,
Active, ...). The script shows the paper's two qualitative claims:

1. *Traceability*: every generated feature is an explicit formula, so a
   domain expert can inspect what the agent discovered (e.g. ratios that
   flag blood pressure out of line with weight and activity).
2. *Robustness*: the discovered features transfer across downstream models
   (random forest, boosting, logistic regression, SVM — Table III's check).

Run:  python examples/medical_risk_screening.py
"""

from __future__ import annotations

from repro import api
from repro.core import FastFTConfig
from repro.core.traceability import feature_importance_table, reward_peak_features
from repro.data import load_dataset
from repro.ml import (
    DownstreamEvaluator,
    GradientBoostingClassifier,
    LinearSVMClassifier,
    LogisticRegression,
    RandomForestClassifier,
)


def main() -> None:
    dataset = load_dataset("cardiovascular", scale=0.15, seed=0)
    print(f"Screening dataset: {dataset.n_samples} patients, features: {dataset.feature_names}")

    config = FastFTConfig(
        episodes=8,
        steps_per_episode=5,
        cold_start_episodes=2,
        retrain_every_episodes=2,
        component_epochs=4,
        cv_splits=3,
        rf_estimators=8,
        seed=0,
    )
    result = api.search(
        dataset.X, dataset.y, task="classification", config=config,
        feature_names=dataset.feature_names,
    )
    print(f"\nF1: {result.base_score:.3f} -> {result.best_score:.3f}")

    print("\n-- Features generated at reward peaks (Fig 15 style) --")
    for peak in reward_peak_features(result, top_k=3):
        where = f"episode {peak['episode']}, step {peak['step']}"
        print(f"  reward {peak['reward']:+.3f} at {where}:")
        for expr in peak["expressions"]:
            print(f"    {expr}")

    transformed = result.transform(dataset.X)
    print("\n-- Most important screening features (Table IV style) --")
    for row in feature_importance_table(
        transformed, dataset.y, "classification", result.expressions(), top_k=5
    ):
        print(f"  {row.importance:.3f}  {row.expression}")

    print("\n-- Robustness across downstream models (Table III style) --")
    evaluator = DownstreamEvaluator("classification", n_splits=3, seed=0)
    models = {
        "RandomForest": RandomForestClassifier(n_estimators=10, seed=0),
        "GradientBoosting": GradientBoostingClassifier(n_estimators=20, seed=0),
        "LogisticRegression": LogisticRegression(),
        "LinearSVM": LinearSVMClassifier(),
    }
    for name, model in models.items():
        base = evaluator.evaluate_with_model(dataset.X, dataset.y, model)
        ours = evaluator.evaluate_with_model(transformed, dataset.y, model)
        print(f"  {name:18s}: {base:.3f} -> {ours:.3f}")


if __name__ == "__main__":
    main()
