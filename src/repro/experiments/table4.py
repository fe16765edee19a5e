"""Table IV — top-10 feature importances, original vs FastFT-transformed.

On Wine Quality Red the paper contrasts (a) the original dataset's top-10
random-forest importances (concentrated mass) with (b) the transformed
dataset's top-10 (balanced mass, explicit composed formulas). The report
includes both listings, their importance sums, and the before/after F1 —
the traceability showcase.
"""

from __future__ import annotations

from repro.core.traceability import feature_importance_table
from repro.experiments.harness import load_profile_dataset, run_fastft_on_dataset
from repro.experiments.profiles import DEFAULT, RunProfile
from repro.experiments.reporting import format_table
from repro.ml.evaluation import DownstreamEvaluator

__all__ = ["run", "format_report"]


def run(
    profile: RunProfile = DEFAULT,
    seed: int = 0,
    dataset_name: str = "wine_quality_red",
    top_k: int = 10,
) -> dict:
    dataset = load_profile_dataset(dataset_name, profile, seed=seed)
    evaluator = DownstreamEvaluator(dataset.task, n_splits=profile.cv_splits, seed=seed)

    original_rows = feature_importance_table(
        dataset.X, dataset.y, dataset.task, dataset.feature_names, top_k=top_k, seed=seed
    )
    base_score = evaluator(dataset.X, dataset.y)

    result, _ = run_fastft_on_dataset(dataset, profile, seed=seed)
    transformed = result.transform(dataset.X)
    transformed_rows = feature_importance_table(
        transformed, dataset.y, dataset.task, result.expressions(), top_k=top_k, seed=seed
    )

    return {
        "dataset": dataset_name,
        "base_score": base_score,
        "fastft_score": result.best_score,
        "original": [(r.expression, r.importance) for r in original_rows],
        "transformed": [(r.expression, r.importance) for r in transformed_rows],
        "original_sum": sum(r.importance for r in original_rows),
        "transformed_sum": sum(r.importance for r in transformed_rows),
        "profile": profile.name,
    }


def format_report(data: dict) -> str:
    rows = []
    n = max(len(data["original"]), len(data["transformed"]))
    for i in range(n):
        orig = data["original"][i] if i < len(data["original"]) else ("", "")
        trans = data["transformed"][i] if i < len(data["transformed"]) else ("", "")
        rows.append(
            [
                orig[0],
                f"{orig[1]:.3f}" if orig[0] else "",
                trans[0][:60],
                f"{trans[1]:.3f}" if trans[0] else "",
            ]
        )
    rows.append(
        [
            f"Score: {data['base_score']:.3f}",
            f"Sum: {data['original_sum']:.3f}",
            f"Score: {data['fastft_score']:.3f}",
            f"Sum: {data['transformed_sum']:.3f}",
        ]
    )
    return format_table(
        ["Original feature", "Imp.", "FastFT feature", "Imp."],
        rows,
        title=f"Table IV — top-10 importances on {data['dataset']} (profile={data['profile']})",
    )
