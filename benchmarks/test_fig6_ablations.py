"""Fig 6 bench — component ablations (−PP, −RCT, −NE).

Paper shape to verify: each ablation arm completes and stays in the
neighbourhood of full FastFT (the paper reports minor drops per component);
the full model is best or near-best on average.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import fig6


def test_fig6_ablations(benchmark, sized_profile, save_report):
    data = benchmark.pedantic(
        lambda: fig6.run(sized_profile, seed=0, datasets=["wine_quality_red", "openml_589"]),
        rounds=1,
        iterations=1,
    )
    save_report("fig6_ablations", fig6.format_report(data))

    means = {
        arm: float(np.mean([data["scores"][d][arm] for d in data["datasets"]]))
        for arm in fig6.ARMS
    }
    # Full FastFT is within noise of the best ablation arm.
    assert means["FastFT"] >= max(means.values()) - 0.1


def test_fig6_extra_groupwise_ablation(benchmark, sized_profile, save_report):
    """Extra ablation beyond Fig 6: group-wise crossing fan-out cap.

    max_new_per_step=1 degenerates group-wise crossing to single-pair
    crossing (the pre-GRFG design); the group-wise default should explore at
    least as well.
    """
    from repro.experiments.harness import load_profile_dataset, run_fastft_on_dataset

    def run():
        ds = load_profile_dataset("openml_589", sized_profile, seed=0)
        group, _ = run_fastft_on_dataset(ds, sized_profile, seed=0)
        single, _ = run_fastft_on_dataset(ds, sized_profile, seed=0, max_new_per_step=1)
        return group, single

    group, single = benchmark.pedantic(run, rounds=1, iterations=1)
    report = (
        "Ablation: group-wise vs single-pair crossing (openml_589)\n"
        f"group-wise : {group.best_score:.4f} ({group.history[-1].n_features} features)\n"
        f"single-pair: {single.best_score:.4f} ({single.history[-1].n_features} features)"
    )
    save_report("fig6_extra_groupwise", report)
    assert group.best_score >= single.best_score - 0.1
