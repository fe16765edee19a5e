"""Extension benches beyond the paper's figures.

1. Noise robustness (the paper's §IX future-work direction): fixed
   transformation plans re-evaluated under growing feature noise.
2. Pruning-cap ablation (a design choice the paper fixes without
   studying it): how the post-step feature budget affects quality —
   unbounded growth is not free.
"""

from __future__ import annotations

from repro.experiments import ext_noise
from repro.experiments.harness import load_profile_dataset, run_fastft_on_dataset


def test_ext_noise_robustness(benchmark, profile, save_report):
    data = benchmark.pedantic(
        lambda: ext_noise.run(profile, seed=0, noise_levels=[0.0, 0.25, 0.5]),
        rounds=1,
        iterations=1,
    )
    save_report("ext_noise_robustness", ext_noise.format_report(data))

    rows = data["rows"]
    # Scores degrade (weakly) monotonically with noise for the FastFT plan...
    assert rows[0]["fastft"] >= rows[-1]["fastft"] - 0.05
    # ...and the transformed features never collapse below chance behaviour.
    assert rows[-1]["fastft"] > 0.0


def test_ext_pruning_cap_ablation(benchmark, profile, save_report):
    """Feature-budget sweep: tiny caps choke the search, huge caps dilute
    the downstream model; the default (3× originals) sits in between."""

    def run():
        ds = load_profile_dataset("openml_589", profile, seed=0)
        out = {}
        for cap in (ds.n_features + 2, 3 * ds.n_features, 8 * ds.n_features):
            result, _ = run_fastft_on_dataset(ds, profile, seed=0, max_features=cap)
            out[cap] = (result.best_score, max(r.n_features for r in result.history))
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — post-step pruning cap (openml_589)"]
    for cap, (score, peak) in data.items():
        lines.append(f"cap={cap:4d}: score={score:.4f} peak_features={peak}")
    save_report("ext_pruning_cap", "\n".join(lines))

    for cap, (_, peak) in data.items():
        assert peak <= cap
