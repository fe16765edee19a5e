"""Table I — overall comparison: datasets × methods with t-statistics.

Reproduces the paper's headline table: per-dataset scores (weighted F1 for
classification, 1-RAE for regression, AUC for detection) for every baseline
and FastFT (mean ± std over ``profile.n_runs`` seeds), plus the paired
t-statistic/p-value of FastFT against each baseline across datasets.
"""

from __future__ import annotations

import numpy as np

from repro.data import DATASET_SPECS
from repro.experiments.harness import (
    METHOD_ORDER,
    load_profile_dataset,
    run_baseline_on_dataset,
    run_fastft_on_dataset,
)
from repro.experiments.profiles import DEFAULT, RunProfile
from repro.experiments.reporting import format_table

__all__ = ["DEFAULT_DATASETS", "run", "format_report"]

# A task-balanced default subset (full 23-dataset sweep via datasets=...).
DEFAULT_DATASETS = [
    "pima_indian",        # classification, small
    "wine_quality_red",   # classification, multiclass
    "openml_589",         # regression
    "openml_637",         # regression
    "mammography",        # detection
]


def run(
    profile: RunProfile = DEFAULT,
    seed: int = 0,
    datasets: list[str] | None = None,
    methods: list[str] | None = None,
) -> dict:
    """Execute the sweep; returns per-dataset per-method score statistics."""
    from scipy import stats

    datasets = datasets or DEFAULT_DATASETS
    methods = methods or METHOD_ORDER
    scores: dict[str, dict[str, list[float]]] = {d: {m: [] for m in methods} for d in datasets}
    times: dict[str, dict[str, list[float]]] = {d: {m: [] for m in methods} for d in datasets}

    for ds_name in datasets:
        for run_idx in range(profile.n_runs):
            run_seed = seed + run_idx
            dataset = load_profile_dataset(ds_name, profile, seed=run_seed)
            for method in methods:
                if method == "fastft":
                    result, wall = run_fastft_on_dataset(dataset, profile, seed=run_seed)
                    scores[ds_name][method].append(result.best_score)
                    times[ds_name][method].append(wall)
                else:
                    res = run_baseline_on_dataset(method, dataset, profile, seed=run_seed)
                    scores[ds_name][method].append(res.best_score)
                    times[ds_name][method].append(res.wall_time)

    # Paired t-test of FastFT vs each baseline over per-dataset means.
    t_stats: dict[str, tuple[float, float]] = {}
    if "fastft" in methods:
        fastft_means = np.array(
            [float(np.mean(scores[d]["fastft"])) for d in datasets]
        )
        for method in methods:
            if method == "fastft":
                continue
            other = np.array([float(np.mean(scores[d][method])) for d in datasets])
            if len(datasets) >= 2 and not np.allclose(fastft_means, other):
                t, p = stats.ttest_rel(fastft_means, other)
                t_stats[method] = (float(t), float(p))
            else:
                t_stats[method] = (float("nan"), float("nan"))

    return {
        "datasets": datasets,
        "methods": methods,
        "scores": scores,
        "times": times,
        "t_stats": t_stats,
        "profile": profile.name,
        "n_runs": profile.n_runs,
    }


def format_report(data: dict) -> str:
    headers = ["Dataset", "Task"] + [m.upper() for m in data["methods"]]
    rows = []
    for ds_name in data["datasets"]:
        task = DATASET_SPECS[ds_name].task[0].upper()
        row = [ds_name, task]
        best = max(float(np.mean(v)) for v in data["scores"][ds_name].values() if v)
        for method in data["methods"]:
            values = data["scores"][ds_name][method]
            mean = float(np.mean(values))
            std = float(np.std(values))
            cell = f"{mean:.3f}"
            if len(values) > 1:
                cell += f"±{std:.3f}"
            if abs(mean - best) < 1e-12:
                cell = f"*{cell}"
            row.append(cell)
        rows.append(row)
    if data["t_stats"]:
        t_row = ["T-stat vs FASTFT", "-"]
        p_row = ["P-value", "-"]
        for method in data["methods"]:
            if method == "fastft":
                t_row.append("-")
                p_row.append("-")
            else:
                t, p = data["t_stats"][method]
                t_row.append(f"{t:.2f}" if np.isfinite(t) else "n/a")
                p_row.append(f"{p:.3g}" if np.isfinite(p) else "n/a")
        rows.append(t_row)
        rows.append(p_row)
    return format_table(
        headers,
        rows,
        title=f"Table I (profile={data['profile']}, runs={data['n_runs']}; * = row best)",
    )
