"""Helpers shared by the benchmark workloads: timing, memory, set-up
children, result digests, process hygiene and run metadata."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 5
# Seconds a child process gets to start, answer or stop before it is killed.
CHILD_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> passed
    attempted: int = 0  # operations: searches, seeds, requests
    failed: int = 0  # failed operations (degraded, non-200, timed out)
    notes: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        """Record a correctness check; a failure counts as a failed operation."""
        self.checks[name] = bool(self.checks.get(name, True) and passed)

    def report(self, trace: bool, units: dict) -> dict:
        names = self.per_layer if trace else self.end_to_end
        failed_checks = sum(1 for ok in self.checks.values() if not ok)
        return {
            "correct": failed_checks == 0,
            "attempted": self.attempted + len(self.checks),
            "failed": self.failed + failed_checks,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in names.items()
            },
        }


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def median(values) -> float:
    return float(statistics.median(values))


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest
    quarter (all of them when there are fewer than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


_PROBE_RNG = np.random.default_rng(0)
_PROBE_DATA = _PROBE_RNG.random((256, 16))
# 4 MiB, more than a core's L2 cache: gathers from it go to the shared L3,
# where other tenants of the host contend.
_PROBE_BIG = _PROBE_RNG.random(1 << 19)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 19, 1 << 16)


def cpu_probe() -> float:
    """Wall seconds of a fixed single-threaded task (a Python loop, small
    numpy sorts and random reads from a 4 MiB array, the mix the program
    runs) that calls no program code.

    The shared host's CPU speed swings by up to 1.5x, in bursts of a
    fraction of a second and in spells of tens of seconds, which moves
    every CPU-bound wall time with it. Unit times divided by the times of
    a reference task run beside them cancel most of the swing and keep
    what the program itself costs.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    for j in range(1000):
        order = np.argsort(_PROBE_DATA[:, j % 16], kind="stable")
        _PROBE_DATA[order].cumsum(axis=0)
    for _ in range(80):
        _PROBE_BIG.take(_PROBE_INDEX).sum()
    return time.perf_counter() - t0


def _cpu_probe_task(_index: int) -> float:
    return cpu_probe()


def pool_probe() -> float:
    """Wall seconds of the CPU probe run four times on a fresh pool of two
    forked workers: the shape of a sweep (pool start-up, two busy
    processes), with no program code."""
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("fork")) as pool:
        list(pool.map(_cpu_probe_task, range(4)))
    return time.perf_counter() - t0


def sampled_probe(samples: int = 30, pause_s: float = 0.01) -> float:
    """Median wall seconds of a short Python loop (about 3 ms) timed
    ``samples`` times, ``pause_s`` apart: the host's speed as the median of
    many short operations sees it, as a request latency's median does."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        times.append(time.perf_counter() - t0)
        time.sleep(pause_s)
    return median(times)


class ProbedUnits:
    """Wall times of units of work, with a reference task (``probe``, a
    function returning its own wall seconds) run before the first unit and
    after each one. The reference has the unit's shape: one busy process
    for a search, a two-worker pool for a sweep, many short operations for
    request latencies."""

    def __init__(self, probe=cpu_probe) -> None:
        self.probe = probe
        self.walls: list[float] = []
        self.probes: list[float] = [probe()]

    def add(self, wall: float) -> None:
        self.walls.append(wall)
        self.probes.append(self.probe())

    def relative(self) -> float:
        """Each unit's time in units of the mean of the two probes around
        it, averaged over the middle half of the units. Pairing each unit
        with its own probes follows the host's speed from unit to unit; the
        interquartile mean drops the units a burst on the host disturbed
        and averages the rest."""
        ratios = [wall / ((before + after) / 2)
                  for wall, before, after in zip(self.walls, self.probes, self.probes[1:])]
        return interquartile_mean(ratios)


def peak_rss_mb(include_self: bool = True) -> float:
    """Peak resident memory: this process (when it runs the program) plus
    the largest child process reaped so far (ru_maxrss is in KiB)."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kib += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def no_children_left() -> bool:
    """True when every worker process started so far has been reaped."""
    return not multiprocessing.active_children()


def result_digest(result) -> str:
    """Digest of everything a search determines: plan, scores and the step
    trajectory minus wall-clock fields."""
    payload = {
        "plan": result.plan.to_json(),
        "base_score": repr(result.base_score),
        "best_score": repr(result.best_score),
        "history": [record.deterministic_dict() for record in result.history],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def time_setup_children(args: list[str]) -> float:
    """Median wall time, over fresh interpreters, from process start until
    the child prints ``ready <input seconds> <tail seconds>``, less the
    seconds it spent generating the benchmark's inputs and the seconds
    from the end of its set-up to the print."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if not line.startswith("ready ") or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {args} -> {line!r}")
        _, input_s, tail_s = line.split()
        samples.append(elapsed - float(input_s) - float(tail_s))
    return median(samples)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git (a plain
    source checkout has none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata(workload: str, seed: int, trace: bool) -> dict:
    from repro.obs.runmeta import run_metadata_header

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runmeta": run_metadata_header(),
    }
