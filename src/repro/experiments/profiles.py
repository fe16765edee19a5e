"""Run profiles: scaled-down defaults vs the paper's full settings.

The paper runs 200 episodes × 15 steps with 5-fold CV on datasets up to
425k rows on an A100 cluster. ``SMOKE`` and ``DEFAULT`` shrink every axis so
the complete benchmark suite runs on one laptop CPU while preserving the
*relative* comparisons; ``FULL`` restores the paper's hyper-parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunProfile", "SMOKE", "DEFAULT", "FULL"]


@dataclass(frozen=True)
class RunProfile:
    """Knobs shared by every experiment harness."""

    name: str
    # dataset sizing
    dataset_scale: float = 0.15
    max_samples: int = 1200
    # downstream oracle
    cv_splits: int = 3
    rf_estimators: int = 6
    # async oracle arm (oracle_mode="async" overlays evaluation with search;
    # harnesses opt in per arm — the profile only carries the knobs)
    oracle_mode: str = "serial"
    reconcile_every_k: int = 4
    oracle_workers: int = 2
    # FastFT schedule
    episodes: int = 6
    steps_per_episode: int = 5
    cold_start_episodes: int = 2
    retrain_every_episodes: int = 2
    component_epochs: int = 4
    trigger_warmup: int = 4
    max_clusters: int = 5
    mi_max_rows: int = 128
    # statistics
    n_runs: int = 1
    # baseline budgets (kwargs per registry name)
    baseline_kwargs: dict = field(
        default_factory=lambda: {
            "rfg": {"n_rounds": 8},
            "rdg": {"n_rounds": 4},
            "erg": {"binary_pair_budget": 16},
            "lda": {"n_iter": 20},
            "aft": {"n_rounds": 3},
            "nfs": {"n_epochs": 5},
            "ttg": {"node_budget": 8},
            "difer": {"corpus_size": 8, "search_rounds": 3},
            "openfe": {"binary_pair_budget": 12, "admit_budget": 5},
            "caafe": {"n_iterations": 3},
            "grfg": {"episodes": 3, "steps_per_episode": 4},
        }
    )


SMOKE = RunProfile(
    name="smoke",
    dataset_scale=0.08,
    max_samples=400,
    episodes=4,
    steps_per_episode=3,
    cold_start_episodes=1,
    retrain_every_episodes=2,
    component_epochs=2,
    max_clusters=4,
    baseline_kwargs={
        "rfg": {"n_rounds": 4},
        "rdg": {"n_rounds": 2},
        "erg": {"binary_pair_budget": 8},
        "lda": {"n_iter": 10},
        "aft": {"n_rounds": 2},
        "nfs": {"n_epochs": 3},
        "ttg": {"node_budget": 5},
        "difer": {"corpus_size": 5, "search_rounds": 2},
        "openfe": {"binary_pair_budget": 8, "admit_budget": 3},
        "caafe": {"n_iterations": 2},
        "grfg": {"episodes": 2, "steps_per_episode": 3},
    },
)

DEFAULT = RunProfile(name="default")

FULL = RunProfile(
    name="full",
    dataset_scale=1.0,
    max_samples=500_000,
    cv_splits=5,
    rf_estimators=10,
    episodes=200,
    steps_per_episode=15,
    cold_start_episodes=10,
    retrain_every_episodes=5,
    component_epochs=20,
    trigger_warmup=8,
    max_clusters=8,
    mi_max_rows=512,
    n_runs=5,
    baseline_kwargs={
        "rfg": {"n_rounds": 100},
        "rdg": {"n_rounds": 50},
        "erg": {"binary_pair_budget": 128},
        "lda": {"n_iter": 100},
        "aft": {"n_rounds": 10},
        "nfs": {"n_epochs": 40},
        "ttg": {"node_budget": 60},
        "difer": {"corpus_size": 64, "search_rounds": 20},
        "openfe": {"binary_pair_budget": 96, "admit_budget": 16},
        "caafe": {"n_iterations": 10},
        "grfg": {"episodes": 40, "steps_per_episode": 15},
    },
)
