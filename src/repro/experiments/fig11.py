"""Fig 11 — spatial complexity of the Performance Predictor.

(a) predictor memory vs sequence length — grows slowly for the recurrent
architecture (constant parameters, linear activations);
(b) the memory-for-time trade-off — extra predictor bytes vs the evaluation
seconds saved relative to FastFT−PP.

The paper measures GPU allocation; our substrate is CPU-only, so we report
the analytically counted parameter + activation bytes of the same
architecture. The figure studies how the predictor's memory grows with
sequence length, which the architecture fixes: a device's allocator only
adds its own rounding and caching on top.
"""

from __future__ import annotations

from repro.core.operations import OPERATION_NAMES
from repro.core.predictor import PerformancePredictor
from repro.core.tokens import TokenVocabulary
from repro.experiments.harness import load_profile_dataset, run_fastft_on_dataset
from repro.experiments.profiles import DEFAULT, RunProfile
from repro.experiments.reporting import format_table

__all__ = ["run", "format_report"]


def run(
    profile: RunProfile = DEFAULT,
    seed: int = 0,
    dataset_name: str = "wine_quality_red",
    seq_lengths: list[int] | None = None,
) -> dict:
    seq_lengths = seq_lengths or [16, 32, 64, 128, 256, 512]
    vocab = TokenVocabulary(OPERATION_NAMES)
    predictor = PerformancePredictor(len(vocab), seed=seed)

    memory_curve = [
        {"seq_len": n, **predictor.memory_footprint(n)} for n in seq_lengths
    ]

    # Trade-off: predictor bytes bought vs evaluation time saved.
    dataset = load_profile_dataset(dataset_name, profile, seed=seed)
    with_pp, _ = run_fastft_on_dataset(dataset, profile, seed=seed)
    without_pp, _ = run_fastft_on_dataset(
        dataset, profile, seed=seed, use_performance_predictor=False
    )
    max_seq = max((len(r.new_expressions) for r in with_pp.history), default=1)
    footprint = predictor.memory_footprint(with_pp.config.max_seq_len)
    tradeoff = {
        "predictor_bytes": footprint["total_bytes"],
        "evaluation_time_with_pp": with_pp.time.evaluation,
        "evaluation_time_without_pp": without_pp.time.evaluation,
        "time_saved": without_pp.time.evaluation - with_pp.time.evaluation,
        "overall_with_pp": with_pp.time.overall,
        "overall_without_pp": without_pp.time.overall,
    }
    return {
        "memory_curve": memory_curve,
        "tradeoff": tradeoff,
        "dataset": dataset_name,
        "profile": profile.name,
        "max_observed_new_features": max_seq,
    }


def format_report(data: dict) -> str:
    rows = [
        [
            str(point["seq_len"]),
            f"{point['parameter_bytes'] / 1024:.1f}",
            f"{point['activation_bytes'] / 1024:.1f}",
            f"{point['total_bytes'] / 1024:.1f}",
        ]
        for point in data["memory_curve"]
    ]
    table = format_table(
        ["Seq length", "Params KiB", "Activations KiB", "Total KiB"],
        rows,
        title=f"Fig 11a — predictor memory vs sequence length (profile={data['profile']})",
    )
    t = data["tradeoff"]
    trade = (
        f"\nFig 11b — trade-off on {data['dataset']}: "
        f"{t['predictor_bytes'] / 1024:.1f} KiB of predictor memory saves "
        f"{t['time_saved']:.2f}s of evaluation time "
        f"({t['evaluation_time_without_pp']:.2f}s -> {t['evaluation_time_with_pp']:.2f}s)"
    )
    return table + trade
