"""Retrain-throughput bench — the fused LSTM op vs the autograd unroll.

FastFT replaces oracle calls with the performance predictor φ and the
novelty estimator ψ (§III-C/D), and retrains both at episode ends. Both
encode token sequences with a 2-layer LSTM, which trains through one
fused op (``repro.nn.recurrent.LSTMEncoder._unroll``: a plain-numpy
forward and a hand-written BPTT). This bench times
``PerformancePredictor.fit`` and ``NoveltyEstimator.fit`` on fixed inputs
twice: on the op, and with every encoder switched to the seed's per-step
autograd unroll kept in ``tests/reference/recurrent.py``. It asserts the
two arms end on byte-identical weights in every round and reports
retrains/sec (one retrain is both fits).

Timing notes: wall-time ratio, contention-sensitive
(``@pytest.mark.serial``). The arms run in ``ROUNDS`` interleaved rounds
that alternate which arm goes first; the floor applies to the median of
the per-round autograd/op ratios of the two fits together, and the
report gives every round and the quartiles. The report is saved before
the floor is asserted; the floor is retried once on fresh timings and
skipped on 1-core runners. The smoke profile fits a short schedule; the
default profile runs the ROADMAP's retrain bar (60 sequences of up to 73
tokens, 20 epochs).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.novelty import NoveltyEstimator
from repro.core.predictor import PerformancePredictor
from tests.reference.recurrent import use_reference_unroll

ROUNDS = 5
MIN_SPEEDUP = 2.0
VOCAB = 40
ARMS = ("autograd", "op")


def _inputs(profile):
    n, max_len, epochs = (32, 48, 4) if profile.name == "smoke" else (60, 73, 20)
    rng = np.random.default_rng(20)
    sequences = [rng.integers(0, VOCAB, size=rng.integers(1, max_len + 1)) for _ in range(n)]
    return sequences, rng.normal(size=n), epochs


def _fit(arm: str, sequences, scores, epochs):
    """Seconds of each fit and the final weights of both estimators."""
    predictor = PerformancePredictor(VOCAB, seed=0)
    novelty = NoveltyEstimator(VOCAB, seed=0)
    if arm == "autograd":
        use_reference_unroll(predictor.model)
        use_reference_unroll(novelty.target, novelty.estimator)
    t0 = time.perf_counter()
    predictor.fit(sequences, scores, epochs=epochs, rng=np.random.default_rng(1))
    t1 = time.perf_counter()
    novelty.fit(sequences, epochs=epochs, rng=np.random.default_rng(2))
    t2 = time.perf_counter()
    params = (*predictor.model.parameters(), *novelty.estimator.parameters())
    return (t1 - t0, t2 - t1), b"".join(p.data.tobytes() for p in params)


def _quartiles(values) -> tuple[float, float, float]:
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


@pytest.mark.serial
def test_retrain_throughput(profile, save_report):
    cpu = os.cpu_count() or 1
    sequences, scores, epochs = _inputs(profile)

    def measure_and_report() -> float:
        seconds = {arm: [] for arm in ARMS}  # per round: (predictor, novelty)
        identical = True
        for round_ in range(ROUNDS):
            weights = {}
            for arm in ARMS if round_ % 2 == 0 else ARMS[::-1]:
                fit_seconds, weights[arm] = _fit(arm, sequences, scores, epochs)
                seconds[arm].append(fit_seconds)
            identical = identical and weights["autograd"] == weights["op"]
        autograd, op = (np.array(seconds[arm]) for arm in ARMS)
        per_fit = autograd / op
        total = autograd.sum(axis=1) / op.sum(axis=1)
        q1, speedup, q3 = _quartiles(total)
        lengths = [len(s) for s in sequences]
        lines = [
            "Retrain throughput — PerformancePredictor.fit + NoveltyEstimator.fit, "
            "fused LSTM op vs autograd unroll",
            f"inputs: {len(sequences)} sequences of {min(lengths)}-{max(lengths)} tokens, "
            f"{epochs} epochs, batch 16, 2-layer LSTM (embed 32, hidden 32); "
            f"median of {ROUNDS} interleaved rounds (arm order alternates)",
            f"{'arm':10s} {'predictor_s':>12s} {'novelty_s':>10s} {'retrains/sec':>13s}",
        ]
        for arm, arr in zip(ARMS, (autograd, op)):
            pred_s, nov_s = np.median(arr, axis=0)
            lines.append(
                f"{arm:10s} {pred_s:12.3f} {nov_s:10.3f} "
                f"{1.0 / float(np.median(arr.sum(axis=1))):13.2f}"
            )
        for i, name in enumerate(("predictor", "novelty")):
            fq1, fmed, fq3 = _quartiles(per_fit[:, i])
            lines.append(f"{name} speedup: {fmed:.2f}x  [quartiles {fq1:.2f}x–{fq3:.2f}x]")
        lines += [
            f"speedup, both fits (median of per-round ratios): {speedup:.2f}x  "
            f"[quartiles {q1:.2f}x–{q3:.2f}x; rounds: "
            + ", ".join(f"{r:.2f}x" for r in total)
            + "]",
            f"final weights byte-identical in every round: {identical}",
        ]
        save_report("retrain_throughput", "\n".join(lines))
        # The hard guarantee: the op trains to the autograd arm's bytes.
        assert identical
        return speedup

    speedup = measure_and_report()
    if cpu < 2:
        pytest.skip(
            "retrain-throughput floor needs >= 2 cores (this suite's own "
            "background load skews 1-core wall-time ratios; the identity "
            "checks above ran and the report records the measured ratio)"
        )
    # One retry on fresh timings guards against background load landing
    # on one arm.
    if speedup < MIN_SPEEDUP:
        speedup = measure_and_report()
    assert speedup >= MIN_SPEEDUP, (
        f"fused LSTM op too slow: median paired ratio {speedup:.2f}x vs the "
        f"autograd unroll (floor {MIN_SPEEDUP}x)"
    )
