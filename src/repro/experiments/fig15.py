"""Fig 15 — case study: distinct features at reward-function peaks.

Runs FastFT on the Cardiovascular dataset (named medical features) and lists
the traceable formulas generated at the highest-reward exploration steps —
the paper's qualitative evidence that novelty-driven search surfaces
interpretable domain structure (e.g. ``Weight/(Active*DBP)``).
"""

from __future__ import annotations

from repro.core.traceability import reward_peak_features
from repro.experiments.harness import load_profile_dataset, run_fastft_on_dataset
from repro.experiments.profiles import DEFAULT, RunProfile
from repro.experiments.reporting import format_table

__all__ = ["run", "format_report"]


def run(
    profile: RunProfile = DEFAULT,
    seed: int = 0,
    dataset_name: str = "cardiovascular",
    top_k: int = 5,
) -> dict:
    dataset = load_profile_dataset(dataset_name, profile, seed=seed)
    result, _ = run_fastft_on_dataset(dataset, profile, seed=seed)
    peaks = reward_peak_features(result, top_k=top_k)
    return {
        "dataset": dataset_name,
        "base_score": result.base_score,
        "best_score": result.best_score,
        "peaks": peaks,
        "profile": profile.name,
    }


def format_report(data: dict) -> str:
    rows = []
    for i, peak in enumerate(data["peaks"], start=1):
        expressions = "; ".join(e[:50] for e in peak["expressions"]) or "(no new features)"
        rows.append(
            [
                str(i),
                f"ep{peak['episode']}/s{peak['step']}",
                f"{peak['reward']:+.4f}",
                f"{peak['score']:.3f}",
                expressions,
            ]
        )
    table = format_table(
        ["Peak", "Where", "Reward", "Score", "Generated features"],
        rows,
        title=f"Fig 15 — reward peaks on {data['dataset']} (profile={data['profile']})",
    )
    return (
        table
        + f"\nBase score {data['base_score']:.3f} -> best {data['best_score']:.3f}"
    )
