"""Tests for the cascading agents and FastFTConfig validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agents import CascadingAgents
from repro.core.config import FastFTConfig
from repro.core.operations import OPERATIONS
from repro.core.state import STATE_DIM


@pytest.fixture
def agents():
    return CascadingAgents(n_ops=len(OPERATIONS), memory_size=16, replay_batch_size=4, seed=0)


def is_binary(op_idx: int) -> bool:
    return OPERATIONS[op_idx].arity == 2


class TestCascadingAgents:
    def test_decide_produces_valid_cascade(self, agents, rng):
        overall = rng.normal(size=STATE_DIM)
        clusters = rng.normal(size=(4, STATE_DIM))
        decision = agents.decide(overall, clusters, is_binary)
        assert 0 <= decision.head_index < 4
        assert 0 <= decision.op_index < len(OPERATIONS)
        if is_binary(decision.op_index):
            assert 0 <= decision.tail_index < 4
        else:
            assert decision.tail_index is None

    def test_op_state_concatenates_head(self, agents, rng):
        overall = rng.normal(size=STATE_DIM)
        clusters = rng.normal(size=(3, STATE_DIM))
        decision = agents.decide(overall, clusters, is_binary)
        assert decision.op_state.shape == (2 * STATE_DIM,)
        assert np.allclose(decision.op_state[:STATE_DIM], overall)
        assert np.allclose(decision.op_state[STATE_DIM:], clusters[decision.head_index])

    def test_store_returns_priority_and_fills_buffers(self, agents, rng):
        overall = rng.normal(size=STATE_DIM)
        clusters = rng.normal(size=(3, STATE_DIM))
        decision = agents.decide(overall, clusters, is_binary)
        priority = agents.store(decision, 0.5, overall, clusters, done=False)
        assert priority >= 0
        assert len(agents.buffers["head"]) == 1
        assert len(agents.buffers["op"]) == 1
        expected_tail = 1 if decision.tail_index is not None else 0
        assert len(agents.buffers["tail"]) == expected_tail

    def test_optimize_noop_until_batch_available(self, agents):
        assert agents.optimize() == {}

    def test_optimize_after_enough_transitions(self, agents, rng):
        overall = rng.normal(size=STATE_DIM)
        for _ in range(6):
            clusters = rng.normal(size=(3, STATE_DIM))
            decision = agents.decide(overall, clusters, is_binary)
            agents.store(decision, float(rng.normal()), overall, clusters, done=False)
        losses = agents.optimize()
        assert "head_critic" in losses and "op_critic" in losses

    def test_uniform_buffer_variant(self, rng):
        agents = CascadingAgents(
            n_ops=len(OPERATIONS), memory_size=8, prioritized=False, seed=0
        )
        from repro.rl.replay import ReplayBuffer

        assert isinstance(agents.buffers["head"], ReplayBuffer)

    @pytest.mark.parametrize("framework", ["dqn", "dueling_double_dqn"])
    def test_dqn_frameworks_compatible(self, framework, rng):
        agents = CascadingAgents(n_ops=len(OPERATIONS), framework=framework, seed=0)
        overall = rng.normal(size=STATE_DIM)
        clusters = rng.normal(size=(3, STATE_DIM))
        decision = agents.decide(overall, clusters, is_binary)
        agents.store(decision, 0.1, overall, clusters, done=True)
        assert len(agents.buffers["head"]) == 1


class TestFastFTConfig:
    def test_paper_defaults(self):
        cfg = FastFTConfig()
        assert cfg.episodes == 200
        assert cfg.steps_per_episode == 15
        assert cfg.cold_start_episodes == 10
        assert cfg.retrain_every_episodes == 5
        assert cfg.alpha == 10.0 and cfg.beta == 5.0
        assert cfg.novelty_weight_start == 0.10
        assert cfg.novelty_weight_end == 0.005
        assert cfg.novelty_decay_steps == 1000
        assert cfg.memory_size == 16
        assert cfg.orthogonal_gain == 16.0
        assert cfg.predictor_head_dims == (16, 1)
        assert cfg.novelty_head_dims == (16, 4, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FastFTConfig(episodes=0)
        with pytest.raises(ValueError):
            FastFTConfig(cold_start_episodes=10, episodes=5)
        with pytest.raises(ValueError):
            FastFTConfig(alpha=-1)
        with pytest.raises(ValueError):
            FastFTConfig(novelty_decay_steps=0)
        with pytest.raises(ValueError):
            FastFTConfig(memory_size=0)
        with pytest.raises(ValueError):
            FastFTConfig(seq_model="gru")
        for bad in (1, 0, -1):
            with pytest.raises(ValueError, match="cv_splits must be >= 2"):
                FastFTConfig(cv_splits=bad)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="rf_estimators must be >= 1"):
                FastFTConfig(rf_estimators=bad)

    def test_resolved_max_features(self):
        cfg = FastFTConfig()
        assert cfg.resolved_max_features(10) == 30
        assert cfg.resolved_max_features(2) == 10  # n + 8 floor
        cfg2 = FastFTConfig(max_features=5)
        assert cfg2.resolved_max_features(10) == 10  # never below original count
        assert cfg2.resolved_max_features(3) == 5

    def test_trigger_window_validation(self):
        with pytest.raises(ValueError, match="trigger_window"):
            FastFTConfig(trigger_window=0)

    def test_trigger_warmup_validation(self):
        # With triggering active a zero warmup would percentile an empty
        # window on the first exploration step.
        with pytest.raises(ValueError, match="trigger_warmup"):
            FastFTConfig(trigger_warmup=0)
        with pytest.raises(ValueError, match="trigger_warmup"):
            FastFTConfig(trigger_warmup=0, alpha=0.0, beta=5.0)
        # The degenerate Fig 12 arm (alpha = beta = 0) never consults the
        # warmup, so 0 stays legal there.
        assert FastFTConfig(trigger_warmup=0, alpha=0.0, beta=0.0).trigger_warmup == 0
        # A warmup the window can never reach would force a real evaluation
        # on every step forever.
        with pytest.raises(ValueError, match="trigger_warmup"):
            FastFTConfig(trigger_window=4, trigger_warmup=8)
        assert FastFTConfig(trigger_window=4, trigger_warmup=4).trigger_warmup == 4

    def test_replay_batch_validation(self):
        with pytest.raises(ValueError, match="replay_batch_size"):
            FastFTConfig(replay_batch_size=0)
        with pytest.raises(ValueError, match="replay_batch_size"):
            FastFTConfig(memory_size=4, replay_batch_size=8)
        assert FastFTConfig(memory_size=8, replay_batch_size=8).replay_batch_size == 8
