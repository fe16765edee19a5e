"""repro.core.parallel: orchestrated sweeps/batches vs the serial reference.

The load-bearing assertions are the bit-identity ones: a sweep seed run
through the process pool must reproduce the serial run of that seed
field-for-field (plan JSON, scores, deterministic step history). Process
pools on a 1-core box are slow but correct, so these tests keep the
configs tiny.
"""

from __future__ import annotations

import io
import threading

import numpy as np
import pytest

from repro import api, procs
from repro.core import HistoryCollector, VerboseLogger
from repro.core.callbacks import Callback
from repro.core.parallel import SearchOrchestrator, SweepResult
from repro.core.result import FastFTResult
from repro.ml.cache import EvaluationCache


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


def _identity_fields(result: FastFTResult) -> tuple:
    return (
        result.plan.to_json(),
        repr(result.base_score),
        repr(result.best_score),
        [r.deterministic_dict() for r in result.history],
    )


HOOKS = (
    "on_search_start",
    "on_episode_start",
    "on_step",
    "on_real_evaluation",
    "on_reconcile",
    "on_retrain",
    "on_episode_end",
    "on_finish",
)


def _plain(arg):
    if isinstance(arg, FastFTResult):
        return repr(arg.best_score)
    return arg.deterministic_dict() if hasattr(arg, "deterministic_dict") else arg


class _Recorder(Callback):
    """Every hook one job's observers receive: its arguments, the session
    fields a view carries, and the thread it ran on."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.threads: set[str] = set()


def _recording(hook: str):
    def method(self, session, *args):
        self.threads.add(threading.current_thread().name)
        fields = (
            session.episode, session.global_step, session.total_steps, session.n_features,
            session.n_downstream_calls, repr(session.base_score), repr(session.best_score),
        )
        self.calls.append((hook, fields, [_plain(arg) for arg in args]))

    return method


for _hook in HOOKS:
    setattr(_Recorder, _hook, _recording(_hook))


class _RaiseOnFirstStep(Callback):
    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, session, record) -> None:
        self.steps += 1
        if self.steps == 1:
            raise RuntimeError("observer failed")


class TestSweep:
    def test_serial_sweep_matches_individual_searches(self, problem):
        X, y = problem
        sweep = api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=1, **TINY)
        assert sweep.seeds == [0, 1]
        for seed in sweep.seeds:
            reference = api.search(X, y, "classification", seed=seed, **TINY)
            assert _identity_fields(sweep[seed]) == _identity_fields(reference)

    def test_parallel_sweep_bit_identical_to_serial(self, problem):
        X, y = problem
        serial = api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=1, **TINY)
        parallel = api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=2, **TINY)
        for seed in serial.seeds:
            assert _identity_fields(parallel[seed]) == _identity_fields(serial[seed])
            assert parallel[seed].n_downstream_calls == serial[seed].n_downstream_calls

    def test_sweep_statistics_and_iteration(self, problem):
        X, y = problem
        sweep = api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=1, **TINY)
        scores = sweep.scores
        assert scores.shape == (2,)
        assert sweep.score_mean == pytest.approx(scores.mean())
        assert sweep.score_std == pytest.approx(scores.std())
        assert len(sweep) == 2
        assert [r.best_score for r in sweep] == [sweep[0].best_score, sweep[1].best_score]
        assert sweep.best is sweep[sweep.best_seed]
        summary = sweep.summary()
        assert "mean" in summary and "seed" in summary

    def test_best_seed_tie_break_is_seed_order(self):
        def fake(score: float) -> FastFTResult:
            return FastFTResult(
                base_score=0.1, best_score=score, plan=None, history=[],
                time=None, n_downstream_calls=0, config=None, task="classification",
            )

        sweep = SweepResult(
            task="classification",
            seeds=[5, 3, 9],
            results={5: fake(0.7), 3: fake(0.7), 9: fake(0.4)},
        )
        # Both 5 and 3 hit the max; the caller's seed order breaks the tie.
        assert sweep.best_seed == 5

    def test_sweep_rejects_bad_seed_lists(self, problem):
        X, y = problem
        with pytest.raises(ValueError, match="non-empty"):
            api.sweep(X, y, seeds=[], **TINY)
        with pytest.raises(ValueError, match="unique"):
            api.sweep(X, y, seeds=[1, 1], **TINY)
        with pytest.raises(ValueError, match="n_jobs"):
            SearchOrchestrator(0)
        with pytest.raises(ValueError, match="n_jobs"):
            api.sweep(X, y, seeds=[0], n_jobs=0, backend="jobfile", **TINY)

    def test_sweep_merges_job_caches_into_local(self, problem, monkeypatch):
        import multiprocessing.managers

        def refuse(self, *args, **kwargs):
            raise AssertionError("a pooled sweep without callbacks_factory started a Manager")

        monkeypatch.setattr(multiprocessing.managers.SyncManager, "start", refuse)
        X, y = problem
        cache = EvaluationCache()
        api.sweep(X, y, "classification", seeds=[0, 1], n_jobs=2, cache=cache, **TINY)
        assert len(cache) > 0
        # A rerun seeded from the merged cache answers the same oracle
        # calls without any real CV work, serially and in pooled jobs.
        for n_jobs in (1, 2):
            rerun = api.sweep(
                X, y, "classification", seeds=[0, 1], n_jobs=n_jobs, cache=cache, **TINY
            )
            assert rerun.n_downstream_calls == 0

    def test_callbacks_factory_bridge_under_parallelism(self, problem):
        X, y = problem
        collectors: dict[str, HistoryCollector] = {}
        streams: dict[str, io.StringIO] = {}

        def factory(label):
            collectors[label] = HistoryCollector()
            streams[label] = io.StringIO()
            return [collectors[label], VerboseLogger(stream=streams[label])]

        sweep = api.sweep(
            X, y, "classification", seeds=[0, 1], n_jobs=2,
            callbacks_factory=factory, **TINY,
        )
        assert set(collectors) == {"seed=0", "seed=1"}
        for seed in sweep.seeds:
            collector = collectors[f"seed={seed}"]
            result = sweep[seed]
            # The relayed step stream is the run's real history.
            assert [r.deterministic_dict() for r in collector.records] == [
                r.deterministic_dict() for r in result.history
            ]
            assert len(collector.episodes) == TINY["episodes"]
            assert collector.episodes[-1]["best_score"] == pytest.approx(result.best_score)
            out = streams[f"seed={seed}"].getvalue()
            assert "[FastFT] finished" in out  # on_finish fired exactly once
            assert out.count("[FastFT] finished") == 1

    def test_pooled_observers_see_the_serial_stream_on_the_calling_thread(self, problem):
        X, y = problem
        # The inline async arm defers evaluations, so on_reconcile fires too.
        cfg = dict(TINY, episodes=3, oracle_mode="async", oracle_workers=0, reconcile_every_k=2)
        streams: dict[int, dict[str, _Recorder]] = {1: {}, 2: {}}
        for n_jobs, recorders in streams.items():

            def factory(label, recorders=recorders):
                recorders[label] = _Recorder()
                return [recorders[label]]

            api.sweep(
                X, y, "classification", seeds=[0, 1], n_jobs=n_jobs,
                callbacks_factory=factory, **cfg,
            )
        serial, pooled = streams[1], streams[2]
        assert set(pooled) == set(serial) == {"seed=0", "seed=1"}
        for label, recorder in serial.items():
            assert {hook for hook, *_ in recorder.calls} == set(HOOKS)
            assert pooled[label].calls == recorder.calls
            assert pooled[label].threads == {threading.current_thread().name}

    def test_raising_observer_stops_no_later_event(self, problem):
        X, y = problem
        recorders: dict[str, _Recorder] = {}
        raisers: dict[str, _RaiseOnFirstStep] = {}

        def factory(label):
            recorders[label], raisers[label] = _Recorder(), _RaiseOnFirstStep()
            return [recorders[label], raisers[label]]

        with pytest.raises(RuntimeError, match="observer failed"):
            api.sweep(
                X, y, "classification", seeds=[0, 1], n_jobs=2,
                callbacks_factory=factory, **TINY,
            )
        n_steps = TINY["episodes"] * TINY["steps_per_episode"]
        for label, recorder in recorders.items():
            hooks = [hook for hook, *_ in recorder.calls]
            assert hooks.count("on_step") == n_steps
            assert raisers[label].steps == n_steps
            # on_finish ran, once and last, before the error was raised.
            assert hooks.index("on_finish") == len(hooks) - 1


class TestRunBatchParallel:
    def test_parallel_batch_preserves_input_order_and_results(self, problem):
        X, y = problem
        jobs = [("b_first", X, y, "classification"), ("a_second", X, y, "classification")]
        serial = api.run_batch(jobs, n_jobs=1, **TINY)
        parallel = api.run_batch(jobs, n_jobs=2, **TINY)
        assert list(parallel) == ["b_first", "a_second"] == list(serial)
        for name in serial:
            assert _identity_fields(parallel[name]) == _identity_fields(serial[name])

    def test_duplicate_names_fail_fast_on_both_paths(self, problem):
        X, y = problem
        ran: list[str] = []

        def factory(name):
            ran.append(name)
            return []

        jobs = [
            ("ok", X, y, "classification"),
            ("dup", X, y, "classification"),
            ("dup", X, y, "classification"),
        ]
        for n_jobs in (1, 2):
            with pytest.raises(ValueError, match="Duplicate job name 'dup'"):
                api.run_batch(jobs, n_jobs=n_jobs, callbacks_factory=factory, **TINY)
        # Pre-scan: the error fires before any job launches (the factory
        # would have been consulted for 'ok' first otherwise).
        assert ran == []

    def test_empty_batch(self):
        assert api.run_batch([], n_jobs=2, **TINY) == {}

    def test_time_budget_is_enforced_inside_workers(self, problem):
        X, y = problem
        results = api.run_batch(
            [("budgeted", X, y, "classification")],
            n_jobs=1,
            time_budget=1e-6,
            **TINY,
        )
        # The budget trips after the first step, so the search cannot have
        # run to completion.
        cfg_steps = TINY["episodes"] * TINY["steps_per_episode"]
        assert len(results["budgeted"].history) < cfg_steps


class TestFallbackAndCache:
    def test_forced_fallback_still_runs_and_matches_serial(self, problem, monkeypatch):
        X, y = problem
        serial = api.sweep(X, y, "classification", seeds=[0], n_jobs=1, **TINY)
        monkeypatch.setattr(procs, "picklable", lambda *args: False)
        demoted = api.sweep(X, y, "classification", seeds=[0], n_jobs=2, **TINY)
        assert _identity_fields(demoted[0]) == _identity_fields(serial[0])

    def test_session_view_request_stop_warns(self):
        from repro.core.parallel import SessionView

        view = SessionView(
            label="seed=0", task="classification", episode=0, global_step=1,
            total_steps=4, n_features=4, n_downstream_calls=1,
            base_score=0.5, best_score=0.6,
        )
        with pytest.warns(RuntimeWarning, match="no-op"):
            view.request_stop("nope")
