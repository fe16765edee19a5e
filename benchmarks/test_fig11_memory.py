"""Fig 11 bench — predictor memory vs sequence length and the memory/time trade-off.

Paper shape to verify: the recurrent predictor's memory grows *linearly*
(slowly) with sequence length — parameters constant, activations linear —
and a sub-megabyte predictor buys a measurable evaluation-time reduction.

The time saved is a difference of two wall-clock timings, small next to
either one, so a single with/without-predictor pair can read negative
under load. The bench runs the experiment ``RUNS`` times, reports every
saving, and asserts on their median.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fig11

RUNS = 5


@pytest.mark.serial
def test_fig11_memory(benchmark, profile, save_report):
    runs = benchmark.pedantic(
        lambda: [fig11.run(profile, seed=0) for _ in range(RUNS)],
        rounds=1,
        iterations=1,
    )
    data = runs[0]
    savings = [run["tradeoff"]["time_saved"] for run in runs]
    median_saved = float(np.median(savings))
    save_report(
        "fig11_memory",
        fig11.format_report(data)
        + f"\nTime saved over {RUNS} runs: "
        + ", ".join(f"{s:+.3f}s" for s in savings)
        + f" (median {median_saved:+.3f}s)",
    )

    curve = data["memory_curve"]
    params = [p["parameter_bytes"] for p in curve]
    activations = [p["activation_bytes"] for p in curve]
    # Parameters are sequence-length independent; activations grow linearly.
    assert len(set(params)) == 1
    ratios = [b / a for a, b in zip(activations, activations[1:])]
    lengths = [p["seq_len"] for p in curve]
    expected = [b / a for a, b in zip(lengths, lengths[1:])]
    for got, want in zip(ratios, expected):
        assert got == want  # exactly linear for the LSTM encoder
    # The trade-off saves evaluation time.
    assert median_saved > 0
