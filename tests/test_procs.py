"""repro.procs: the one process policy behind every worker pool.

Every pool looks up :func:`repro.procs.context` through the module, so the
``spawn`` fixture below switches all of them to the ``spawn`` start method
at once; the spawn tests then hold each pool to its serial (or inline)
reference, byte for byte.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api, procs
from repro.core import FastFTConfig, HistoryCollector
from repro.core.async_oracle import AsyncOracle
from repro.core.session import make_default_evaluator
from repro.jobs import JobFleetSupervisor

TINY = dict(
    episodes=2,
    steps_per_episode=2,
    cold_start_episodes=1,
    retrain_every_episodes=1,
    component_epochs=2,
    trigger_warmup=2,
    cv_splits=3,
    rf_estimators=4,
    max_clusters=3,
    mi_max_rows=64,
)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture
def spawn(monkeypatch):
    """Run every pool under ``spawn``; returns the contexts handed out so far."""
    handed_out = []

    def spawn_context():
        ctx = multiprocessing.get_context("spawn")
        handed_out.append(ctx)
        return ctx

    monkeypatch.setattr(procs, "context", spawn_context)
    return handed_out


def _report(task: int) -> tuple:
    """Pool task: what this worker knows about itself and its inputs."""
    return task, procs.worker_inputs(), multiprocessing.get_start_method()


def _every_field(result) -> tuple:
    return (
        result.task,
        result.config,
        result.plan.to_json(),
        repr(result.base_score),
        repr(result.best_score),
        result.n_downstream_calls,
        [r.deterministic_dict() for r in result.history],
    )


class TestResolveWorkers:
    def test_minus_one_means_all_cores(self):
        assert procs.resolve_workers(-1) == (os.cpu_count() or 1)

    def test_capped_at_task_count(self):
        assert procs.resolve_workers(8, 3) == 3
        assert procs.resolve_workers(2, 5) == 2
        assert procs.resolve_workers(-1, 1) == 1

    @pytest.mark.parametrize("bad", [0, -2, -3])
    def test_rejects_other_values_below_one(self, bad):
        message = rf"n_jobs must be >= 1 or -1 \(all cores\), got {bad}"
        with pytest.raises(ValueError, match=message):
            procs.resolve_workers(bad)
        with pytest.raises(ValueError, match="n_workers must be"):
            procs.resolve_workers(bad, 4, name="n_workers")

    def test_every_pool_validates_through_it(self, problem):
        _, y = problem
        with pytest.raises(ValueError, match="n_jobs must be"):
            api.SearchOrchestrator(-2)
        with pytest.raises(ValueError, match="n_workers must be"):
            AsyncOracle(make_default_evaluator("classification", FastFTConfig()), y, n_workers=-2)
        with pytest.raises(ValueError, match="n_workers must be"):
            JobFleetSupervisor("no-such-sweep-dir", n_workers=0)


class TestPicklable:
    def test_unpicklable_payload_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert procs.picklable({"bad": lambda: None}, "the payload") is False
        assert procs.picklable({"fine": np.arange(3)}, "the payload") is True

    def test_warning_names_what_and_fallback(self):
        message = "the thing is not picklable; falling back to plan B"
        with pytest.warns(RuntimeWarning, match=message):
            procs.picklable(lambda: None, "the thing", "plan B")


class TestPool:
    def test_workers_receive_inputs_once_and_tasks_keep_order(self):
        inputs = {"X": np.arange(6.0)}
        with procs.pool(2, inputs) as pool:
            reports = list(pool.map(_report, range(4)))
        assert [task for task, _, _ in reports] == [0, 1, 2, 3]
        for _, received, _ in reports:
            assert received["X"].tobytes() == inputs["X"].tobytes()
        assert procs.worker_inputs() is None  # the parent never holds them

    def test_spawn_workers_start_by_spawn_and_receive_inputs(self, spawn):
        with procs.pool(2, ("shared", 7)) as pool:
            reports = list(pool.map(_report, range(2)))
        assert spawn
        assert reports == [(0, ("shared", 7), "spawn"), (1, ("shared", 7), "spawn")]


class TestSpawnMatchesSerial:
    def test_sweep(self, problem, spawn):
        X, y = problem
        serial = api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=1, **TINY)
        collectors: dict[str, HistoryCollector] = {}

        def factory(label):
            collectors[label] = HistoryCollector()
            return [collectors[label]]

        pooled = api.sweep(
            X, y, "classification", seeds=[0, 1], n_jobs=2, callbacks_factory=factory, **TINY
        )
        assert spawn
        for seed in serial.seeds:
            assert _every_field(pooled[seed]) == _every_field(serial[seed])
            relayed = collectors[f"seed={seed}"].records
            assert [r.deterministic_dict() for r in relayed] == [
                r.deterministic_dict() for r in serial[seed].history
            ]

    def test_async_oracle(self, problem, spawn):
        X, y = problem
        evaluator = make_default_evaluator("classification", FastFTConfig(**TINY))
        matrices = [X, X[:, :2], np.tanh(X)]

        def outcomes(n_workers):
            with AsyncOracle(evaluator, y, n_workers=n_workers) as oracle:
                assert oracle.inline == (n_workers == 0)
                for matrix in matrices:
                    oracle.submit(matrix)
                return oracle.drain()

        inline = outcomes(0)
        pooled = outcomes(1)
        assert spawn
        assert pooled == inline
        assert all(o.ok for o in pooled)


# Runs one small search in a fresh interpreter and prints how long each
# non-main thread ran during it. OpenBLAS's helper threads spin for a
# while after the library loads, so the probe waits until they sleep.
_SEARCH_THREAD_TIMES = """
import json, os, time
import numpy as np
from repro import api

def run_times():
    main = str(os.getpid())
    times = {}
    for tid in os.listdir("/proc/self/task"):
        if tid != main:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                times[tid] = int(f.read().split()[0])
    return times

before = run_times()
for _ in range(50):
    time.sleep(0.1)
    now = run_times()
    if now == before:
        break
    before = now
rng = np.random.default_rng(0)
X = rng.normal(size=(120, 5))
y = (X[:, 0] + X[:, 1] > 0).astype(int)
api.search(X, y, "classification", episodes=2, steps_per_episode=2,
           cold_start_episodes=1, cv_splits=3, rf_estimators=3, seed=0)
after = run_times()
print(json.dumps({tid: after[tid] - before.get(tid, 0) for tid in after}))
"""


class TestOneBlasThread:
    @pytest.mark.parametrize("shape", [(530, 32), (128, 32), (32, 1), (1000, 64)])
    def test_qr_bytes_do_not_depend_on_the_limit(self, shape):
        for seed in range(20):
            flat = np.random.default_rng(seed).normal(size=shape)
            q, r = np.linalg.qr(flat)
            with procs.one_blas_thread():
                q1, r1 = np.linalg.qr(flat)
            assert q.tobytes() == q1.tobytes() and r.tobytes() == r1.tobytes()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
        reason="needs /proc task statistics and at least 2 CPUs",
    )
    def test_a_search_leaves_blas_helper_threads_asleep(self):
        if procs._blas_setter() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with per-thread limits")
        env = {**os.environ, "PYTHONPATH": str(Path(procs.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _SEARCH_THREAD_TIMES],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        ran = json.loads(proc.stdout.strip().splitlines()[-1])
        assert ran and all(ns == 0 for ns in ran.values()), ran
