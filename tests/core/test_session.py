"""Tests for SearchSession: stepping, callbacks, checkpoint/resume determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Checkpointer,
    EarlyStopping,
    FastFT,
    FastFTConfig,
    HistoryCollector,
    SearchSession,
    TimeBudget,
    VerboseLogger,
)
from repro.core.callbacks import Callback


def tiny_config(**overrides) -> FastFTConfig:
    base = dict(
        episodes=3,
        steps_per_episode=3,
        cold_start_episodes=1,
        retrain_every_episodes=1,
        component_epochs=2,
        trigger_warmup=2,
        cv_splits=3,
        rf_estimators=3,
        max_clusters=3,
        mi_max_rows=64,
        seed=0,
    )
    base.update(overrides)
    return FastFTConfig(**base)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(140, 5))
    y = (X[:, 0] * X[:, 1] + 0.3 * X[:, 2] > 0).astype(int)
    return X, y


def deterministic_history(result):
    """Step history minus wall-clock timing fields."""
    return [r.deterministic_dict() for r in result.history]


def make_parent_format(session: SearchSession, layout: str) -> None:
    """Rewrite a live session's state into what an older build pickled.

    ``"arena"`` and ``"naive"`` are the two inner-loop arms of the build
    that still had the ``inner_loop`` and ``oracle_engine`` switches; the
    naive arm kept its columns in a dict and built no caches.
    ``"pre_arena"`` is a build from before the arena: dict columns, no
    arena flags or caches, no sample count or signature counts, and a
    plain list of novelty embeddings.
    """
    naive = layout != "arena"
    vars(session.config).update(
        inner_loop="naive" if naive else "arena",
        oracle_engine="naive" if naive else "presort",
    )
    vars(session._evaluator)["engine"] = session.config.oracle_engine
    session._evaluator.model.split_engine = session.config.oracle_engine
    space = session._space
    if not naive:
        vars(session).update(_use_arena=True, _incremental_clustering=True)
        vars(space).update(_backend="arena", _columns=None)
        # That build cached MI in per-id dicts and kept the target's raw
        # codes; the pair cache held entries for the current live set.
        clusterer = vars(session._clusterer)
        live = space.live_ids
        for name in ("_table", "_counts", "_mi"):
            del clusterer[name]
        clusterer.update(
            _y_codes=np.zeros(3, dtype=np.int64),
            _codes={f: np.zeros(3, dtype=np.int64) for f in live},
            _rel=dict.fromkeys(live, 0.0),
            _pair_mi={(a, b): 0.0 for a in live for b in live},
        )
        relevance = vars(session._relevance_cache)
        del relevance["_target"]
        relevance["_y_codes"] = np.zeros(3, dtype=np.int64)
        return
    columns = {fid: space._arena[:, fid].copy() for fid in space._nodes}
    vars(space).update(_backend="dict", _columns=columns, _arena=None)
    vars(session).update(
        _use_arena=False,
        _incremental_clustering=False,
        _state_cache=None,
        _relevance_cache=None,
        _clusterer=None,
    )
    if layout == "pre_arena":
        for name in ("_use_arena", "_incremental_clustering", "_state_cache",
                     "_relevance_cache", "_clusterer"):
            del vars(session)[name]
        for name in ("_backend", "_n_samples", "_sig_count"):
            del vars(space)[name]
        del vars(session.config)["inner_loop"]
        session._embedding_history = [e.copy() for e in session._embedding_history.view()]


class TestStepping:
    def test_iterator_protocol(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        records = list(session)
        assert len(records) == session.total_steps == 9
        assert session.finished and session.done
        assert [r.global_step for r in records] == list(range(9))

    def test_step_after_finish_raises(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config(episodes=1))
        session.run()
        with pytest.raises(RuntimeError):
            session.step()

    def test_start_is_idempotent(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        session.start()
        base = session.base_score
        session.start()
        assert session.base_score == base
        assert session.n_downstream_calls == 1

    def test_run_until_step_count(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        partial = session.run(until=4)
        assert session.global_step == 4
        assert not session.finished
        assert len(partial.history) == 4
        full = session.run()
        assert session.finished
        assert len(full.history) == 9

    def test_run_until_predicate(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        session.run(until=lambda s: s.global_step >= 2)
        assert session.global_step == 2

    def test_unknown_task_raises(self, problem):
        X, y = problem
        with pytest.raises(ValueError):
            SearchSession(X, y, "ranking", config=tiny_config())

    def test_properties_before_start(self, problem):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        assert not session.started
        assert session.global_step == 0
        assert session.history == []
        assert session.n_downstream_calls == 0
        with pytest.raises(RuntimeError):
            _ = session.best_score

    def test_request_stop_mid_run(self, problem):
        X, y = problem

        class StopAtThree(Callback):
            def on_step(self, session, record):
                if record.global_step == 2:
                    session.request_stop("enough")

        session = SearchSession(
            X, y, "classification", config=tiny_config(), callbacks=[StopAtThree()]
        )
        result = session.run()
        assert session.stop_requested and session.done and not session.finished
        assert session.stop_reason == "enough"
        assert len(result.history) == 3
        assert result.best_score >= result.base_score


class TestFitEquivalence:
    def test_session_matches_blocking_fit(self, problem):
        """FastFT.fit is a facade: identical decisions, scores and history."""
        X, y = problem
        fit_result = FastFT(tiny_config()).fit(X, y, task="classification")
        session = SearchSession(X, y, "classification", config=tiny_config())
        for _ in session:
            pass
        session_result = session.result()
        assert fit_result.best_score == session_result.best_score
        assert fit_result.base_score == session_result.base_score
        assert fit_result.n_downstream_calls == session_result.n_downstream_calls
        assert fit_result.plan.expressions() == session_result.plan.expressions()
        assert deterministic_history(fit_result) == deterministic_history(session_result)


class TestCheckpointResume:
    @pytest.mark.parametrize("interrupt_at", [2, 4, 8])
    def test_resume_is_bit_identical(self, problem, tmp_path, interrupt_at):
        """A checkpoint/resume cycle (even mid-episode) must reproduce the
        uninterrupted run exactly: best score, plan, and step history."""
        X, y = problem
        uninterrupted = SearchSession(X, y, "classification", config=tiny_config()).run()

        session = SearchSession(X, y, "classification", config=tiny_config())
        for _ in range(interrupt_at):
            session.step()
        path = str(tmp_path / "mid.ckpt")
        session.checkpoint(path)
        del session

        resumed = SearchSession.resume(path)
        assert resumed.global_step == interrupt_at
        result = resumed.run()

        assert result.best_score == uninterrupted.best_score
        assert result.base_score == uninterrupted.base_score
        assert result.n_downstream_calls == uninterrupted.n_downstream_calls
        assert result.plan.expressions() == uninterrupted.plan.expressions()
        assert deterministic_history(result) == deterministic_history(uninterrupted)

    @pytest.mark.parametrize("layout", ["arena", "naive", "pre_arena"])
    def test_parent_format_checkpoint_resumes_bit_identical(self, problem, tmp_path, layout):
        """A checkpoint written by an older build, taken mid-episode with the
        φ/ψ components trained, adopts onto the arena path on resume and
        lands on the uninterrupted result bit for bit."""
        X, y = problem
        uninterrupted = SearchSession(X, y, "classification", config=tiny_config()).run()

        session = SearchSession(X, y, "classification", config=tiny_config())
        for _ in range(4):  # episode 1, step 1: after the cold start
            session.step()
        assert session._step_in_episode == 1 and session._components_trained
        make_parent_format(session, layout)
        path = str(tmp_path / "parent.ckpt")
        session.checkpoint(path)
        del session

        resumed = SearchSession.resume(path)
        assert not {"_use_arena", "_incremental_clustering"} & set(vars(resumed))
        assert not {"inner_loop", "oracle_engine"} & set(vars(resumed.config))
        assert not {"_backend", "_columns"} & set(vars(resumed._space))
        assert resumed._state_cache is not None and resumed._clusterer is not None
        result = resumed.run()

        assert repr(result.best_score) == repr(uninterrupted.best_score)
        assert repr(result.base_score) == repr(uninterrupted.base_score)
        assert result.n_downstream_calls == uninterrupted.n_downstream_calls
        assert result.plan.to_json() == uninterrupted.plan.to_json()
        assert deterministic_history(result) == deterministic_history(uninterrupted)
        assert result.config == uninterrupted.config

    def test_checkpoint_before_start(self, problem, tmp_path):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        path = str(tmp_path / "fresh.ckpt")
        session.checkpoint(path)
        resumed = SearchSession.resume(path)
        assert not resumed.started
        result = resumed.run()
        reference = SearchSession(X, y, "classification", config=tiny_config()).run()
        assert result.best_score == reference.best_score
        assert deterministic_history(result) == deterministic_history(reference)

    def test_checkpoint_preserves_transform(self, problem, tmp_path):
        X, y = problem
        session = SearchSession(X, y, "classification", config=tiny_config())
        session.run(until=5)
        path = str(tmp_path / "t.ckpt")
        session.checkpoint(path)
        resumed = SearchSession.resume(path)
        a = session.result()
        b = resumed.result()
        np.testing.assert_array_equal(a.transform(X), b.transform(X))

    def test_resume_clears_stop_request(self, problem, tmp_path):
        """A budget-stopped checkpoint must actually continue on resume —
        the stop flag is a transient signal, not persistent state."""
        X, y = problem
        uninterrupted = SearchSession(X, y, "classification", config=tiny_config()).run()
        session = SearchSession(
            X,
            y,
            "classification",
            config=tiny_config(),
            callbacks=[TimeBudget(1e-9)],
        )
        session.run()
        assert session.stop_requested and not session.finished
        path = str(tmp_path / "stopped.ckpt")
        session.checkpoint(path)
        resumed = SearchSession.resume(path)
        assert not resumed.stop_requested and not resumed.done
        result = resumed.run()
        assert resumed.finished
        assert result.best_score == uninterrupted.best_score
        assert deterministic_history(result) == deterministic_history(uninterrupted)

    def test_resume_rejects_non_checkpoint(self, tmp_path):
        bogus = tmp_path / "bogus.pkl"
        import pickle

        with open(bogus, "wb") as fh:
            pickle.dump({"something": "else"}, fh)
        with pytest.raises(ValueError):
            SearchSession.resume(str(bogus))

    def test_resume_attaches_fresh_callbacks(self, problem, tmp_path):
        X, y = problem
        collector = HistoryCollector()
        session = SearchSession(
            X, y, "classification", config=tiny_config(), callbacks=[collector]
        )
        session.run(until=3)
        path = str(tmp_path / "cb.ckpt")
        session.checkpoint(path)
        new_collector = HistoryCollector()
        resumed = SearchSession.resume(path, callbacks=[new_collector])
        resumed.run()
        # The fresh collector sees only post-resume steps.
        assert len(new_collector.records) == resumed.total_steps - 3
        assert len(resumed.history) == resumed.total_steps


class TestCallbacks:
    def test_event_order_and_counts(self, problem):
        X, y = problem
        events: list[str] = []

        class Recorder(Callback):
            def on_search_start(self, session):
                events.append("search_start")

            def on_episode_start(self, session, episode):
                events.append(f"ep_start:{episode}")

            def on_step(self, session, record):
                events.append(f"step:{record.global_step}")

            def on_real_evaluation(self, session, record):
                events.append(f"real:{record.global_step}")

            def on_retrain(self, session, episode, stage):
                events.append(f"retrain:{episode}:{stage}")

            def on_episode_end(self, session, episode):
                events.append(f"ep_end:{episode}")

            def on_finish(self, session, result):
                events.append("finish")

        cfg = tiny_config(episodes=2, steps_per_episode=2)
        SearchSession(X, y, "classification", config=cfg, callbacks=[Recorder()]).run()
        assert events[0] == "search_start"
        assert events[-1] == "finish"
        assert events.count("ep_start:0") == events.count("ep_end:0") == 1
        assert "retrain:0:cold_start" in events
        assert "retrain:1:fine_tune" in events
        # Cold-start steps always hit the oracle.
        assert "real:0" in events and "real:1" in events
        # Retraining happens before the episode-end event.
        assert events.index("retrain:0:cold_start") < events.index("ep_end:0")

    def test_history_collector(self, problem):
        X, y = problem
        collector = HistoryCollector()
        session = SearchSession(
            X, y, "classification", config=tiny_config(), callbacks=[collector]
        )
        result = session.run()
        assert [r.global_step for r in collector.records] == [
            r.global_step for r in result.history
        ]
        assert len(collector.episodes) == 3
        assert collector.episodes[-1]["best_score"] == result.best_score
        assert collector.n_real_evaluations == sum(r.is_real for r in result.history)
        assert collector.retrain_events[0] == (0, "cold_start")

    def test_time_budget_stops_early(self, problem):
        X, y = problem
        session = SearchSession(
            X,
            y,
            "classification",
            config=tiny_config(episodes=50),
            callbacks=[TimeBudget(1e-9)],
        )
        result = session.run()
        assert session.stop_requested
        assert "time budget" in session.stop_reason
        assert len(result.history) == 1  # stopped right after the first step

    def test_time_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimeBudget(0)

    def test_early_stopping(self, problem):
        X, y = problem
        # min_delta so large no improvement can ever clear it -> stops after
        # `patience` episodes beyond the first.
        stopper = EarlyStopping(patience=1, min_delta=100.0)
        session = SearchSession(
            X, y, "classification", config=tiny_config(episodes=50), callbacks=[stopper]
        )
        result = session.run()
        assert session.stop_requested
        assert len(result.history) == 2 * 3  # episodes 0 (baseline) + 1 (stale)

    def test_early_stopping_validates_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_checkpointer_writes_and_resumes(self, problem, tmp_path):
        X, y = problem
        path = str(tmp_path / "auto.ckpt")
        saver = Checkpointer(path, every_episodes=1)
        uninterrupted = SearchSession(X, y, "classification", config=tiny_config()).run()
        session = SearchSession(
            X, y, "classification", config=tiny_config(), callbacks=[saver]
        )
        session.run(until=6)  # exactly two full episodes -> checkpoint is fresh
        assert saver.n_checkpoints >= 1
        resumed = SearchSession.resume(path)
        result = resumed.run()
        assert result.best_score == uninterrupted.best_score
        assert deterministic_history(result) == deterministic_history(uninterrupted)

    def test_on_finish_fires_once_per_final_state(self, problem):
        X, y = problem
        finishes: list[int] = []

        class CountFinish(Callback):
            def on_finish(self, session, result):
                finishes.append(session.global_step)

        session = SearchSession(
            X,
            y,
            "classification",
            config=tiny_config(episodes=1),
            callbacks=[CountFinish()],
        )
        session.run()
        session.run()  # running an already-done session must not re-notify
        session.result()
        assert finishes == [session.total_steps]

    def test_verbose_config_adds_logger(self, problem, capsys):
        X, y = problem
        cfg = tiny_config(episodes=1, verbose=True)
        session = SearchSession(X, y, "classification", config=cfg)
        assert any(isinstance(cb, VerboseLogger) for cb in session.callbacks.callbacks)
        session.run()
        out = capsys.readouterr().out
        assert "[FastFT] episode 0" in out
        assert "[FastFT] finished" in out
