"""Tests for FastFTResult.save / FastFTResult.load round-trips."""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import FastFTConfig
from repro.core.engine import FastFT, FastFTResult


@pytest.fixture(scope="module")
def run_result():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    cfg = FastFTConfig(
        episodes=2, steps_per_episode=2, cold_start_episodes=1,
        retrain_every_episodes=1, component_epochs=1, cv_splits=3,
        rf_estimators=3, max_clusters=3, mi_max_rows=64, seed=0,
    )
    return FastFT(cfg).fit(X, y, task="classification"), X


class TestResultRoundtrip:
    def test_scores_and_task_preserved(self, run_result, tmp_path):
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        assert restored.base_score == result.base_score
        assert restored.best_score == result.best_score
        assert restored.task == "classification"
        assert restored.n_downstream_calls == result.n_downstream_calls

    def test_plan_transform_identical(self, run_result, tmp_path):
        result, X = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        assert np.allclose(restored.transform(X), result.transform(X))
        assert restored.expressions() == result.expressions()

    def test_history_preserved(self, run_result, tmp_path):
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        assert len(restored.history) == len(result.history)
        assert restored.history[0].op_name == result.history[0].op_name
        assert restored.history[-1].reward == pytest.approx(result.history[-1].reward)

    def test_config_tuple_fields_restored(self, run_result, tmp_path):
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        assert restored.config.predictor_head_dims == (16, 1)
        assert restored.config.novelty_head_dims == (16, 4, 1)
        assert isinstance(restored.config.predictor_head_dims, tuple)

    def test_time_breakdown_preserved(self, run_result, tmp_path):
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        assert restored.time.overall == pytest.approx(result.time.overall)

    def test_step_records_roundtrip_exactly(self, run_result, tmp_path):
        """Every StepRecord field — including sequence_tokens — survives."""
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        restored = FastFTResult.load(str(path))
        for original, loaded in zip(result.history, restored.history):
            assert asdict(loaded) == asdict(original)
        assert any(r.sequence_tokens for r in restored.history)
        assert all(
            isinstance(t, int) for r in restored.history for t in r.sequence_tokens
        )


class TestConfigVariantRoundtrip:
    @staticmethod
    def _fit_with(config_overrides, tmp_path, name):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(90, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        cfg = FastFTConfig(
            episodes=1, steps_per_episode=2, cold_start_episodes=1,
            retrain_every_episodes=1, component_epochs=1, cv_splits=3,
            rf_estimators=3, max_clusters=3, mi_max_rows=64, seed=0,
            **config_overrides,
        )
        result = FastFT(cfg).fit(X, y, task="classification")
        path = tmp_path / f"{name}.json"
        result.save(str(path))
        return result, FastFTResult.load(str(path))

    def test_cluster_threshold_auto_roundtrip(self, tmp_path):
        result, restored = self._fit_with({"cluster_threshold": "auto"}, tmp_path, "auto")
        assert restored.config.cluster_threshold == "auto"
        assert asdict(restored.config) == asdict(result.config)

    def test_cluster_threshold_float_roundtrip(self, tmp_path):
        result, restored = self._fit_with({"cluster_threshold": 0.75}, tmp_path, "float")
        assert restored.config.cluster_threshold == 0.75
        assert isinstance(restored.config.cluster_threshold, float)

    def test_custom_head_dims_roundtrip(self, tmp_path):
        overrides = {"predictor_head_dims": (8, 4, 1), "novelty_head_dims": (8, 1)}
        _, restored = self._fit_with(overrides, tmp_path, "heads")
        assert restored.config.predictor_head_dims == (8, 4, 1)
        assert restored.config.novelty_head_dims == (8, 1)
        assert isinstance(restored.config.predictor_head_dims, tuple)
        assert isinstance(restored.config.novelty_head_dims, tuple)


class TestRemovedSwitches:
    """Configs, result files and pickles written by builds that still had
    the ``inner_loop``, ``oracle_engine`` and ``cv_jobs`` switches load
    without them."""

    # The two inner-loop arms of a build that had all three switches, and
    # a build that had only ``cv_jobs``.
    OLD_FIELDS = [
        dict(inner_loop="arena", oracle_engine="presort", cv_jobs=1),
        dict(inner_loop="naive", oracle_engine="naive", cv_jobs=2),
        dict(cv_jobs=-1),
    ]

    @pytest.mark.parametrize("old", OLD_FIELDS)
    def test_config_from_jsonable(self, old):
        payload = dict(FastFTConfig(seed=3).to_jsonable(), **old)
        restored = FastFTConfig.from_jsonable(payload)
        assert restored == FastFTConfig(seed=3)
        assert not set(old) & set(vars(restored))

    @pytest.mark.parametrize("old", OLD_FIELDS)
    def test_result_load(self, run_result, tmp_path, old):
        result, X = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        payload = json.loads(path.read_text())
        payload["config"].update(old)
        path.write_text(json.dumps(payload))
        restored = FastFTResult.load(str(path))
        assert restored.config == result.config
        assert restored.transform(X).tobytes() == result.transform(X).tobytes()

    def test_result_load_rejects_unknown_key(self, run_result, tmp_path):
        """Only the removed switches are dropped: a config key no build
        ever had fails the load, naming the key."""
        result, _ = run_result
        path = tmp_path / "run.json"
        result.save(str(path))
        payload = json.loads(path.read_text())
        payload["config"]["future_knob"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="future_knob"):
            FastFTResult.load(str(path))

    @pytest.mark.parametrize("old", OLD_FIELDS)
    def test_pickled_config_drops_removed_fields(self, old):
        cfg = FastFTConfig(seed=5)
        vars(cfg).update(old)
        restored = pickle.loads(pickle.dumps(cfg))
        assert restored == FastFTConfig(seed=5)
        assert not set(old) & set(vars(restored))

    def test_pickled_config_rejects_unknown_key(self):
        """A pickled config (session checkpoint, fleet result) with a field
        no build ever had fails the load, naming it, as JSON configs do."""
        cfg = FastFTConfig(seed=5)
        vars(cfg).update(future_field=1, inner_loop="naive")
        with pytest.raises(ValueError, match="unknown FastFTConfig field.*future_field"):
            pickle.loads(pickle.dumps(cfg))
