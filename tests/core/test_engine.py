"""Integration tests for the FastFT engine (Algorithms 1 & 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FastFTConfig
from repro.core.engine import FastFT, TimeBreakdown
from repro.core.traceability import feature_importance_table, reward_peak_features
from repro.ml.evaluation import DownstreamEvaluator


def tiny_config(**overrides) -> FastFTConfig:
    base = dict(
        episodes=4,
        steps_per_episode=3,
        cold_start_episodes=1,
        retrain_every_episodes=2,
        component_epochs=2,
        trigger_warmup=2,
        cv_splits=3,
        rf_estimators=4,
        max_clusters=4,
        mi_max_rows=100,
        seed=0,
    )
    base.update(overrides)
    return FastFTConfig(**base)


@pytest.fixture(scope="module")
def interaction_problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(180, 6))
    y = (X[:, 0] * X[:, 1] + 0.3 * X[:, 2] > 0).astype(int)
    return X, y


@pytest.fixture(scope="module")
def fitted_result(interaction_problem):
    X, y = interaction_problem
    return FastFT(tiny_config()).fit(X, y, task="classification")


class TestEngineBasics:
    def test_result_fields(self, fitted_result):
        r = fitted_result
        assert np.isfinite(r.base_score)
        assert r.best_score >= r.base_score  # base plan is always a candidate
        assert r.n_downstream_calls >= 1
        assert r.task == "classification"
        assert len(r.history) == 4 * 3

    def test_transform_roundtrip(self, fitted_result, interaction_problem):
        X, _ = interaction_problem
        out = fitted_result.transform(X)
        assert out.shape[0] == X.shape[0]
        assert out.shape[1] == fitted_result.plan.n_features
        assert np.isfinite(out).all()

    def test_transform_new_data(self, fitted_result):
        rng = np.random.default_rng(1)
        out = fitted_result.transform(rng.normal(size=(20, 6)))
        assert out.shape == (20, fitted_result.plan.n_features)

    def test_expressions_align(self, fitted_result):
        exprs = fitted_result.expressions()
        assert len(exprs) == fitted_result.plan.n_features
        assert all(isinstance(e, str) and e for e in exprs)

    def test_history_schema(self, fitted_result):
        record = fitted_result.history[0]
        assert record.episode == 0 and record.step == 0
        assert record.n_features > 0
        assert record.n_clusters >= 1
        assert record.time_evaluation >= 0

    def test_cold_start_steps_are_real(self, fitted_result):
        cold = [r for r in fitted_result.history if r.episode < 1]
        assert all(r.is_real for r in cold)

    def test_time_breakdown_consistent(self, fitted_result):
        t = fitted_result.time
        assert t.overall == pytest.approx(t.optimization + t.estimation + t.evaluation)
        per_ep = t.per_episode(4)
        assert per_ep.overall == pytest.approx(t.overall / 4)

    def test_reward_peaks(self, fitted_result):
        peaks = fitted_result.reward_peaks(3)
        assert len(peaks) == 3
        assert peaks[0].reward >= peaks[1].reward >= peaks[2].reward

    def test_invalid_task_raises(self, interaction_problem):
        X, y = interaction_problem
        with pytest.raises(ValueError):
            FastFT(tiny_config()).fit(X, y, task="ranking")


class TestEngineModes:
    def test_improves_over_base(self, interaction_problem):
        """On an interaction-driven problem FastFT should find useful crossings."""
        X, y = interaction_problem
        result = FastFT(tiny_config(episodes=6, steps_per_episode=4)).fit(
            X, y, task="classification"
        )
        assert result.best_score >= result.base_score

    def test_no_pp_evaluates_every_step(self, interaction_problem):
        X, y = interaction_problem
        cfg = tiny_config(use_performance_predictor=False)
        result = FastFT(cfg).fit(X, y, task="classification")
        # every exploration step + the baseline call hit the downstream task
        assert result.n_downstream_calls >= cfg.episodes * cfg.steps_per_episode
        assert all(r.is_real for r in result.history)

    def test_pp_reduces_downstream_calls(self, interaction_problem):
        X, y = interaction_problem
        cfg = tiny_config(episodes=6, alpha=5.0, beta=5.0, trigger_warmup=2)
        with_pp = FastFT(cfg).fit(X, y, task="classification")
        no_pp = FastFT(tiny_config(episodes=6, use_performance_predictor=False)).fit(
            X, y, task="classification"
        )
        assert with_pp.n_downstream_calls < no_pp.n_downstream_calls

    def test_no_novelty_mode(self, interaction_problem):
        X, y = interaction_problem
        result = FastFT(tiny_config(use_novelty=False)).fit(X, y, task="classification")
        assert all(r.novelty == 0.0 for r in result.history)

    def test_uniform_replay_mode(self, interaction_problem):
        X, y = interaction_problem
        result = FastFT(tiny_config(prioritized_replay=False)).fit(
            X, y, task="classification"
        )
        assert result.best_score >= result.base_score

    def test_alpha_beta_zero_disables_triggering(self, interaction_problem):
        X, y = interaction_problem
        cfg = tiny_config(alpha=0.0, beta=0.0, trigger_warmup=0, episodes=4)
        result = FastFT(cfg).fit(X, y, task="classification")
        explore = [r for r in result.history if r.episode >= cfg.cold_start_episodes]
        assert not any(r.triggered for r in explore)

    @pytest.mark.parametrize("framework", ["dqn", "dueling_double_dqn"])
    def test_dqn_frameworks(self, framework, interaction_problem):
        X, y = interaction_problem
        result = FastFT(tiny_config(episodes=2, rl_framework=framework)).fit(
            X, y, task="classification"
        )
        assert np.isfinite(result.best_score)

    def test_regression_task(self, rng):
        X = rng.normal(size=(150, 5))
        y = X[:, 0] * X[:, 1] + 0.1 * rng.normal(size=150)
        result = FastFT(tiny_config()).fit(X, y, task="regression")
        assert np.isfinite(result.best_score)

    def test_detection_task(self, detection_data):
        X, y = detection_data
        result = FastFT(tiny_config()).fit(X, y, task="detection")
        assert 0.0 <= result.best_score <= 1.0

    def test_custom_evaluator_respected(self, interaction_problem):
        X, y = interaction_problem
        evaluator = DownstreamEvaluator("classification", n_splits=3, seed=0)
        FastFT(tiny_config(episodes=2)).fit(
            X, y, task="classification", evaluator=evaluator
        )
        assert evaluator.n_calls > 0

    def test_deterministic_given_seed(self, interaction_problem):
        X, y = interaction_problem
        a = FastFT(tiny_config(episodes=2)).fit(X, y, task="classification")
        b = FastFT(tiny_config(episodes=2)).fit(X, y, task="classification")
        assert a.best_score == pytest.approx(b.best_score)
        assert [r.op_name for r in a.history] == [r.op_name for r in b.history]

    def test_feature_cap_respected(self, interaction_problem):
        X, y = interaction_problem
        cfg = tiny_config(max_features=10)
        result = FastFT(cfg).fit(X, y, task="classification")
        assert all(r.n_features <= 10 for r in result.history)

    def test_fit_transform(self, interaction_problem):
        X, y = interaction_problem
        out = FastFT(tiny_config(episodes=2)).fit_transform(X, y, task="classification")
        assert out.shape[0] == X.shape[0]


class TestTracing:
    def test_importance_table(self, fitted_result, interaction_problem):
        X, y = interaction_problem
        transformed = fitted_result.transform(X)
        rows = feature_importance_table(
            transformed, y, "classification", fitted_result.expressions(), top_k=5
        )
        assert len(rows) == min(5, transformed.shape[1])
        assert all(r.importance >= 0 for r in rows)
        importances = [r.importance for r in rows]
        assert importances == sorted(importances, reverse=True)

    def test_importance_table_misaligned_raises(self, interaction_problem):
        X, y = interaction_problem
        with pytest.raises(ValueError):
            feature_importance_table(X, y, "classification", ["just_one"])

    def test_reward_peak_features(self, fitted_result):
        peaks = reward_peak_features(fitted_result, top_k=3)
        assert len(peaks) == 3
        for peak in peaks:
            assert {"episode", "step", "reward", "score", "expressions"} <= set(peak)


class TestTimeBreakdown:
    def test_overall_sum(self):
        t = TimeBreakdown(1.0, 2.0, 3.0)
        assert t.overall == 6.0

    def test_per_episode_invalid(self):
        with pytest.raises(ValueError):
            TimeBreakdown().per_episode(0)
