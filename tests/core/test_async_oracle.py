"""AsyncOracle: pool semantics, failure degradation, session integration.

The determinism side of the async arm (pooled == inline reference, pinned
goldens) lives in tests/test_determinism_golden.py; this file covers the
mechanics — submission ordering, the cache front, and the satellite
failure contract: a crashed or hung evaluation degrades to the
predictor-estimated score with a warning, never a deadlock.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback

import numpy as np
import pytest

from repro import api
from repro.core.async_oracle import AsyncOracle
from repro.ml.cache import EvaluationCache
from repro.ml.evaluation import DownstreamEvaluator


def _problem(n=60, d=3):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


def _evaluator():
    return DownstreamEvaluator(
        "classification",
        model=None,
        n_splits=2,
        seed=0,
    )


class _MeanEvaluator:
    """Cheap deterministic oracle with the n_calls accounting protocol."""

    def __init__(self) -> None:
        self.n_calls = 0

    def __call__(self, X, y):
        self.n_calls += 1
        return float(np.mean(X) + np.mean(y))


class _CrashInWorker:
    """Works in the creating process, raises in any other process.

    This is the satellite's "deliberately-crashing evaluator": the
    session's synchronous calls (base score, cold start) succeed, every
    pool-side evaluation crashes.
    """

    def __init__(self, evaluator) -> None:
        self._evaluator = evaluator
        self._pid = os.getpid()

    def __call__(self, X, y):
        if os.getpid() != self._pid:
            raise RuntimeError("deliberate worker crash")
        return self._evaluator(X, y)


class _HangInWorker:
    """Works in the creating process, hangs in any other process."""

    def __init__(self, evaluator, sleep=60.0) -> None:
        self._evaluator = evaluator
        self._sleep = sleep
        self._pid = os.getpid()

    def __call__(self, X, y):
        if os.getpid() != self._pid:
            time.sleep(self._sleep)
        return self._evaluator(X, y)


class _DieOnce:
    """Hard-kills its process on the first call, works after.

    Module-level (not nested in the test) so it pickles into the worker;
    a nested class would silently demote the oracle to the inline arm and
    ``os._exit`` would take the test runner down with it. The flag file
    makes "first call" survive the respawned worker process.
    """

    def __init__(self, flag_path) -> None:
        self._flag = flag_path

    def __call__(self, X, y):
        if os.getpid() == _MAIN_PID:
            # Never hard-exit the process that is running pytest.
            return 1.25
        if not os.path.exists(self._flag):
            with open(self._flag, "w") as fh:
                fh.write("x")
            os._exit(13)
        return 1.25


class _StallFirstInWorker:
    """Mean oracle whose first call in a worker writes a flag file and
    then sleeps, so a test can kill the worker while it runs a ticket.
    Later calls (in the respawned worker) score at once."""

    def __init__(self, flag_path) -> None:
        self._flag = flag_path

    def __call__(self, X, y):
        if os.getpid() != _MAIN_PID and not os.path.exists(self._flag):
            with open(self._flag, "w") as fh:
                fh.write("x")
            time.sleep(60.0)
        return float(np.mean(X) + np.mean(y))


_MAIN_PID = os.getpid()


def _start_oracle(evaluator, y, **kwargs):
    """An AsyncOracle and the worker processes it started."""
    before = set(multiprocessing.active_children())
    oracle = AsyncOracle(evaluator, y, **kwargs)
    workers = [p for p in multiprocessing.active_children() if p not in before]
    return oracle, workers


def _kill(process) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)


def _in_own_session(scenario, *args, seconds: float = 30.0):
    """``scenario(*args)``, run in a forked child that leads its own
    process group; returns what the scenario returns.

    A scenario still running after ``seconds`` fails the test, and the
    whole group (the child and every oracle worker it started) is
    SIGKILLed, so a blocked drain neither hangs the suite nor leaves a
    worker behind.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def leader():
        os.setsid()
        try:
            send.send(("ok", scenario(*args)))
        except Exception:
            send.send(("error", traceback.format_exc()))

    child = ctx.Process(target=leader)
    child.start()
    send.close()
    finished = recv.poll(seconds)
    if not finished:
        os.killpg(child.pid, signal.SIGKILL)
    child.join(timeout=30.0)
    assert not child.is_alive()
    assert finished, f"{scenario.__name__} still blocked after {seconds} s"
    status, value = recv.recv()
    assert status == "ok", value
    return value


def _kill_idle_workers_then_drain(n_workers: int, n_killed: int):
    X, y = _problem()
    matrices = [X + i for i in range(4)]
    oracle, workers = _start_oracle(_MeanEvaluator(), y, n_workers=n_workers)
    with oracle:
        for m in matrices[:2]:
            oracle.submit(m)
        first = oracle.drain()
        time.sleep(0.5)  # every worker is back inside its task queue's get()
        for process in workers[:n_killed]:
            _kill(process)
        for m in matrices[2:]:
            oracle.submit(m)
        start = time.monotonic()
        second = oracle.drain()
        return len(workers), first + second, time.monotonic() - start


def _kill_running_worker_then_drain(flag: str):
    X, y = _problem()
    matrices = [X * (i + 1) for i in range(3)]
    oracle, (worker,) = _start_oracle(_StallFirstInWorker(flag), y, n_workers=1)
    with oracle:
        for m in matrices:
            oracle.submit(m)
        while not os.path.exists(flag):
            time.sleep(0.01)
        _kill(worker)  # mid-ticket 0, with tickets 1 and 2 queued behind it
        return oracle.drain()


def _kill_running_worker_behind_a_full_pipe(flag: str):
    """Three 400x60 tickets (187.5 KiB each) for one worker: while it runs
    the first, the feeder thread fills the pipe with the second and blocks
    on the third. Returns the outcomes and how many feeder threads of the
    discarded queue are still alive after the drain."""
    X, y = _problem(n=400, d=60)
    matrices = [X * (i + 1) for i in range(3)]
    oracle, (worker,) = _start_oracle(_StallFirstInWorker(flag), y, n_workers=1)
    with oracle:
        first = list(oracle._workers.values())
        for m in matrices:
            oracle.submit(m)
        while not os.path.exists(flag):
            time.sleep(0.01)
        _kill(worker)
        outcomes = oracle.drain()
        feeders = [w.tasks._thread for w in first]
        return outcomes, sum(1 for t in feeders if t is not None and t.is_alive())


class TestSubmitDrain:
    def test_outcomes_in_submission_order_with_exact_scores(self):
        X, y = _problem()
        evaluator = _MeanEvaluator()
        matrices = [X + i for i in range(5)]
        expected = [float(np.mean(m) + np.mean(y)) for m in matrices]
        with AsyncOracle(evaluator, y, n_workers=2) as oracle:
            tickets = [oracle.submit(m) for m in matrices]
            outcomes = oracle.drain()
        assert [o.ticket for o in outcomes] == tickets
        assert all(o.ok for o in outcomes)
        assert [o.score for o in outcomes] == expected
        assert all(o.n_calls == 1 for o in outcomes)

    def test_inline_arm_matches_pool(self):
        X, y = _problem()
        matrices = [X * (i + 1) for i in range(4)]
        with AsyncOracle(_MeanEvaluator(), y, n_workers=0) as inline:
            for m in matrices:
                inline.submit(m)
            inline_out = [o.score for o in inline.drain()]
        with AsyncOracle(_MeanEvaluator(), y, n_workers=3) as pooled:
            for m in matrices:
                pooled.submit(m)
            pooled_out = [o.score for o in pooled.drain()]
        assert inline_out == pooled_out

    def test_drain_empty_is_noop_and_resubmission_works(self):
        X, y = _problem()
        with AsyncOracle(_MeanEvaluator(), y, n_workers=1) as oracle:
            assert oracle.drain() == []
            oracle.submit(X)
            first = oracle.drain()
            oracle.submit(X * 2.0)
            second = oracle.drain()
        assert len(first) == 1 and len(second) == 1
        assert first[0].ok and second[0].ok

    def test_unpicklable_evaluator_falls_back_to_inline(self):
        X, y = _problem()
        calls = []
        evaluator = lambda X, y: calls.append(1) or 0.5  # noqa: E731 - unpicklable on purpose
        with pytest.warns(RuntimeWarning, match="not picklable"):
            oracle = AsyncOracle(evaluator, y, n_workers=2)
        assert oracle.inline
        oracle.submit(X)
        (outcome,) = oracle.drain()
        assert outcome.ok and outcome.score == 0.5 and calls
        oracle.shutdown()


class TestCacheFront:
    def test_cache_hits_resolve_at_submit_and_scores_land_in_cache(self):
        X, y = _problem()
        cache = EvaluationCache()
        cached = cache.wrap(_evaluator())
        with AsyncOracle(cached, y, n_workers=2) as oracle:
            oracle.submit(X)
            (first,) = oracle.drain()
            assert first.ok and first.n_calls == 1
            # The landed score went into the cache, so the same matrix now
            # resolves at submission time without touching the pool.
            oracle.submit(X)
            (second,) = oracle.drain()
        assert second.ok and second.n_calls == 0
        assert repr(second.score) == repr(first.score)
        assert cache.hits >= 1

    def test_serial_cached_evaluator_agrees_with_pool_scores(self):
        X, y = _problem()
        reference = _evaluator()(X, y)
        cache = EvaluationCache()
        with AsyncOracle(cache.wrap(_evaluator()), y, n_workers=1) as oracle:
            oracle.submit(X)
            (outcome,) = oracle.drain()
        assert repr(outcome.score) == repr(float(reference))


class TestFailureDegradation:
    def test_crashing_evaluator_degrades_with_warning(self):
        X, y = _problem()
        evaluator = _CrashInWorker(_MeanEvaluator())
        with AsyncOracle(evaluator, y, n_workers=1, retries=1) as oracle:
            oracle.submit(X)
            with pytest.warns(RuntimeWarning, match="degrading"):
                (outcome,) = oracle.drain()
        assert not outcome.ok
        assert outcome.score is None
        assert outcome.attempts == 2  # first try + one retry
        assert "deliberate worker crash" in outcome.error

    def test_hung_evaluator_times_out_and_pool_survives(self):
        X, y = _problem()
        evaluator = _HangInWorker(_MeanEvaluator())
        with AsyncOracle(evaluator, y, n_workers=1, timeout=0.5, retries=0) as oracle:
            oracle.submit(X)
            start = time.monotonic()
            with pytest.warns(RuntimeWarning, match="degrading"):
                (outcome,) = oracle.drain()
            elapsed = time.monotonic() - start
        assert not outcome.ok
        assert elapsed < 30.0  # far below the worker's 60s sleep: no deadlock
        assert outcome.error == "timeout"

    def test_worker_death_is_retried_then_recovers(self, tmp_path):
        X, y = _problem()
        flag = str(tmp_path / "die_once.flag")
        with AsyncOracle(_DieOnce(flag), y, n_workers=1, retries=1) as oracle:
            if oracle.inline:
                pytest.skip("no fork-capable pool available")
            oracle.submit(X)
            (outcome,) = oracle.drain()
        assert outcome.ok
        assert outcome.score == 1.25
        assert outcome.attempts == 2


class TestDeadWorkers:
    @pytest.mark.parametrize("n_workers, n_killed", [(1, 1), (2, 2), (2, 1)])
    def test_killing_idle_workers_does_not_block_drain(self, n_workers, n_killed):
        """An idle worker waits inside its task queue's ``get``; a SIGKILL
        there must not wedge the next drain (a task queue shared by all
        workers stays locked by the dead reader)."""
        X, y = _problem()
        expected = [float(np.mean(X + i) + np.mean(y)) for i in range(4)]
        started, outcomes, drain_seconds = _in_own_session(
            _kill_idle_workers_then_drain, n_workers, n_killed
        )
        assert started == n_workers
        assert [o.ticket for o in outcomes] == [0, 1, 2, 3]
        assert [o.score for o in outcomes] == expected
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert drain_seconds < 5.0

    def test_killed_worker_retries_its_ticket_and_resends_the_queued(self, tmp_path):
        X, y = _problem()
        expected = [float(np.mean(X * (i + 1)) + np.mean(y)) for i in range(3)]
        outcomes = _in_own_session(_kill_running_worker_then_drain, str(tmp_path / "flag"))
        assert [o.score for o in outcomes] == expected
        # The running ticket spends an attempt; the queued ones never started.
        assert [o.attempts for o in outcomes] == [2, 1, 1]
        assert all(o.ok for o in outcomes)

    def test_dead_worker_leaves_no_feeder_thread_on_a_full_pipe(self, tmp_path):
        X, y = _problem(n=400, d=60)
        expected = [float(np.mean(X * (i + 1)) + np.mean(y)) for i in range(3)]
        outcomes, alive_feeders = _in_own_session(
            _kill_running_worker_behind_a_full_pipe, str(tmp_path / "flag")
        )
        assert [o.score for o in outcomes] == expected
        assert [o.attempts for o in outcomes] == [2, 1, 1]
        assert all(o.ok for o in outcomes)
        assert alive_feeders == 0


class TestSessionIntegration:
    CFG = dict(
        episodes=3,
        steps_per_episode=2,
        cold_start_episodes=1,
        retrain_every_episodes=1,
        component_epochs=2,
        trigger_warmup=2,
        cv_splits=2,
        rf_estimators=3,
        max_clusters=3,
        mi_max_rows=64,
        seed=3,
        oracle_mode="async",
        reconcile_every_k=2,
    )

    def test_crashing_pool_degrades_session_to_estimates(self):
        """The satellite regression: every pool-side evaluation crashes;
        the session must finish on predictor estimates with warnings —
        not deadlock, not raise."""
        X, y = _problem(n=80, d=4)
        evaluator = _CrashInWorker(_evaluator())
        with pytest.warns(RuntimeWarning, match="degrading"):
            result = api.search(
                X, y, "classification",
                evaluator=evaluator,
                oracle_workers=1,
                oracle_retries=0,
                **self.CFG,
            )
        deferred = [r for r in result.history if r.triggered and not r.is_real]
        assert deferred, "no evaluation was ever deferred to the pool"
        # Degraded steps keep their φ estimate in the record; the result
        # is still well-formed and anchored by the real cold-start scores.
        assert np.isfinite(result.best_score)
        assert result.best_score >= result.base_score - 1e-12

    def test_session_reconciles_on_checkpoint(self, tmp_path):
        from repro.core.session import SearchSession
        from repro.core.config import FastFTConfig

        X, y = _problem(n=80, d=4)
        cfg = FastFTConfig(**{**self.CFG, "reconcile_every_k": 50})
        session = SearchSession(X, y, "classification", config=cfg)
        # Step past cold start, stopping mid-episode so a deferred
        # evaluation is genuinely in flight when the checkpoint lands.
        for _ in range(3):
            session.step()
        assert session._pending_evals, "expected an in-flight deferred evaluation"
        path = str(tmp_path / "mid.ckpt")
        session.checkpoint(path)  # reconcile point: must not raise
        assert not session._pending_evals
        resumed = SearchSession.resume(path)
        resumed.run()
        session.run()
        assert repr(session.result().best_score) == repr(resumed.result().best_score)
        session.close()
        resumed.close()

    def test_on_reconcile_callback_fires(self):
        from repro.core.callbacks import Callback

        class _Spy(Callback):
            def __init__(self):
                self.events = []

            def on_reconcile(self, session, landed, degraded):
                self.events.append((session.global_step, landed, degraded))

        X, y = _problem(n=80, d=4)
        spy = _Spy()
        result = api.search(
            X, y, "classification",
            callbacks=[spy],
            oracle_workers=0,
            **self.CFG,
        )
        deferred = sum(1 for r in result.history if r.triggered and not r.is_real)
        assert deferred > 0
        assert spy.events, "no reconcile event fired"
        assert sum(landed for _, landed, _ in spy.events) == deferred
        assert all(deg == 0 for *_, deg in spy.events)
