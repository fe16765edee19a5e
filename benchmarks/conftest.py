"""Benchmark plumbing: run each experiment once, save its report to disk.

``pytest benchmarks/`` regenerates every table and figure of the paper at
the scaled-down SMOKE/DEFAULT profiles and writes the formatted reports to
the gitignored ``.benchmarks/reports/``, so a test run leaves the committed
copies alone. ``pytest benchmarks/ --refresh-reports`` writes them to
``benchmarks/reports/`` instead, to refresh the committed copies on
purpose. Pass ``--profile=default`` (or ``full``, hours of compute) to
rescale.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPORT_DIR = Path(__file__).resolve().parent / "reports"
RUN_REPORT_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "reports"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "serial: timing-ratio benchmark; must not run concurrently with "
        "other CPU-heavy work (see fig10)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store",
        default="smoke",
        choices=["smoke", "default", "full"],
        help="Experiment scale profile (smoke | default | full)",
    )
    parser.addoption(
        "--refresh-reports",
        action="store_true",
        default=False,
        help="Write reports to the committed benchmarks/reports/ "
        "(default: the gitignored .benchmarks/reports/)",
    )


@pytest.fixture(scope="session")
def profile(request):
    from repro.experiments import DEFAULT, FULL, SMOKE

    return {"smoke": SMOKE, "default": DEFAULT, "full": FULL}[
        request.config.getoption("--profile")
    ]


@pytest.fixture(scope="session")
def sized_profile(profile):
    """The selected profile with floors on dataset size and RL schedule.

    Sweep-style figures (learning curves, threshold/hyper-parameter sweeps)
    are uninformative on sub-100-sample datasets where every arm lands on the
    same quantized CV score; this keeps the method budgets of the selected
    profile but guarantees enough data/episodes for the sweeps to resolve.
    """
    import dataclasses

    return dataclasses.replace(
        profile,
        dataset_scale=max(profile.dataset_scale, 0.25),
        episodes=max(profile.episodes, 6),
        steps_per_episode=max(profile.steps_per_episode, 4),
        cold_start_episodes=max(profile.cold_start_episodes, 2),
    )


@pytest.fixture(scope="session")
def report_dir(request) -> Path:
    """Where this run writes its reports (see the module docstring)."""
    refresh = request.config.getoption("--refresh-reports")
    path = REPORT_DIR if refresh else RUN_REPORT_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def save_report(report_dir):
    from repro.obs import run_metadata_header

    def _save(name: str, report: str) -> None:
        path = report_dir / f"{name}.txt"
        # Perf numbers are only interpretable with the producing machine
        # attached; every report leads with the environment header.
        path.write_text(run_metadata_header() + "\n" + report + "\n")
        print(f"\n{report}\n[report saved to {path}]")

    return _save
