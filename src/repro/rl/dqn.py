"""DQN-family learners for the Fig 7 framework ablation.

The paper swaps the Actor-Critic core for DQN, DoubleDQN, DuelingDQN and
DuelingDoubleDQN and shows Actor-Critic converges faster. All four share the
candidate-conditioned Q(s, a) parameterization the cascade needs (actions are
variable-size candidate sets), differing in:

- **dueling**: Q = V(s) + A(s,a) − mean_a A(s,a) via two output streams;
- **double**: the online network argmaxes a′, the target network evaluates it.

A frozen target network is synced every ``target_sync`` updates.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, ReLU, Sequential, Tanh
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.replay import Transition

__all__ = ["DQNLearner", "make_learner", "DQN_VARIANTS", "LEARNERS"]

DQN_VARIANTS = ("dqn", "double_dqn", "dueling_dqn", "dueling_double_dqn")
# Every name make_learner accepts (in any case): actor-critic (None) or
# the DQNLearner options of a variant.
LEARNERS: dict[str, dict | None] = {
    "actor_critic": None,
    "ac": None,
    "dqn": {},
    "double_dqn": {"double": True},
    "ddqn": {"double": True},
    "dueling_dqn": {"dueling": True},
    "dueling_double_dqn": {"double": True, "dueling": True},
    "dueling_ddqn": {"double": True, "dueling": True},
}


class _QNetwork:
    """MLP trunk with either a single Q head or dueling V/A heads."""

    def __init__(
        self, in_dim: int, state_dim: int, hidden: int, dueling: bool, rng: np.random.Generator
    ) -> None:
        self.dueling = dueling
        self.trunk = Sequential(
            Linear(in_dim, hidden, rng=rng), ReLU(), Linear(hidden, hidden, rng=rng), Tanh()
        )
        self.q_head = Linear(hidden, 1, rng=rng)
        if dueling:
            self.value_trunk = Sequential(Linear(state_dim, hidden, rng=rng), ReLU())
            self.value_head = Linear(hidden, 1, rng=rng)

    def parameters(self):
        yield from self.trunk.parameters()
        yield from self.q_head.parameters()
        if self.dueling:
            yield from self.value_trunk.parameters()
            yield from self.value_head.parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for i, p in enumerate(self.parameters()):
            out[str(i)] = p.data.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for i, p in enumerate(self.parameters()):
            p.data = state[str(i)].copy()

    def q_values(self, state: np.ndarray, candidates: np.ndarray) -> Tensor:
        """Q(s, a_j) for every candidate a_j; (n_candidates,) tensor."""
        candidates = np.atleast_2d(candidates)
        inputs = np.concatenate([np.tile(state, (len(candidates), 1)), candidates], axis=1)
        advantage = self.q_head(self.trunk(Tensor(inputs))).reshape(-1)
        if not self.dueling:
            return advantage
        value = self.value_head(self.value_trunk(Tensor(state.reshape(1, -1)))).reshape(-1)
        centered = advantage - advantage.mean()
        return centered + value  # broadcast (1,) over (n,)


class DQNLearner:
    """Q-learning over candidate sets; variant selected by two booleans."""

    def __init__(
        self,
        state_dim: int,
        candidate_dim: int,
        hidden: int = 64,
        lr: float = 1e-3,
        gamma: float = 0.95,
        epsilon: float = 0.25,
        epsilon_decay: float = 0.995,
        epsilon_min: float = 0.05,
        double: bool = False,
        dueling: bool = False,
        target_sync: int = 10,
        seed: int | None = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.state_dim = state_dim
        self.candidate_dim = candidate_dim
        self.gamma = gamma
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.epsilon_min = epsilon_min
        self.double = double
        self.dueling = dueling
        self.target_sync = target_sync
        in_dim = state_dim + candidate_dim
        self.online = _QNetwork(in_dim, state_dim, hidden, dueling, rng)
        self.target = _QNetwork(in_dim, state_dim, hidden, dueling, rng)
        self.target.load_state_dict(self.online.state_dict())
        self.optimizer = Adam(list(self.online.parameters()), lr=lr)
        self._updates = 0
        self._rng = np.random.default_rng(None if seed is None else seed + 1)

    @property
    def name(self) -> str:
        prefix = "dueling_" if self.dueling else ""
        return f"{prefix}{'double_' if self.double else ''}dqn"

    # -- acting ----------------------------------------------------------------

    def select(self, state: np.ndarray, candidates: np.ndarray, greedy: bool = False) -> int:
        candidates = np.atleast_2d(candidates)
        if len(candidates) == 0:
            raise ValueError("No candidates to select from")
        if not greedy and self._rng.random() < self.epsilon:
            return int(self._rng.integers(0, len(candidates)))
        q = self.online.q_values(state, candidates).data
        return int(np.argmax(q))

    def value(self, state: np.ndarray) -> float:
        """State value proxy for priorities: V(s) ≈ 0 without candidates.

        The engine supplies candidate sets when computing TD errors for
        DQN-family learners via :meth:`td_error`.
        """
        return 0.0

    def td_error(self, transition: Transition) -> float:
        target = self._target_value(transition)
        candidates = transition.payload.get("candidates")
        chosen = transition.payload.get("action_index", 0)
        if candidates is None:
            return transition.reward
        q = self.online.q_values(transition.state, np.atleast_2d(candidates)).data
        return float(target - q[int(chosen)])

    def _target_value(self, t: Transition) -> float:
        if t.done or t.next_candidates is None or len(t.next_candidates) == 0:
            return t.reward
        next_c = np.atleast_2d(t.next_candidates)
        if self.double:
            online_q = self.online.q_values(t.next_state, next_c).data
            best = int(np.argmax(online_q))
            target_q = self.target.q_values(t.next_state, next_c).data
            bootstrap = target_q[best]
        else:
            target_q = self.target.q_values(t.next_state, next_c).data
            bootstrap = target_q.max()
        return t.reward + self.gamma * float(bootstrap)

    # -- learning ----------------------------------------------------------------

    def update(
        self, batch: list[Transition], weights: np.ndarray | None = None
    ) -> dict[str, float]:
        if not batch:
            raise ValueError("Empty batch")
        if weights is None:
            weights = np.ones(len(batch))

        targets = np.array([self._target_value(t) for t in batch])

        self.optimizer.zero_grad()
        terms = []
        for t, target, w in zip(batch, targets, weights):
            candidates = t.payload.get("candidates")
            if candidates is None:
                continue
            chosen = int(t.payload["action_index"])
            q = self.online.q_values(t.state, np.atleast_2d(candidates))
            diff = q[chosen] - float(target)
            terms.append(diff * diff * float(w))
        loss_val = 0.0
        if terms:
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            loss = total * (1.0 / len(terms))
            loss.backward()
            self.optimizer.step()
            loss_val = loss.item()

        self._updates += 1
        if self._updates % self.target_sync == 0:
            self.target.load_state_dict(self.online.state_dict())
        self.epsilon = max(self.epsilon_min, self.epsilon * self.epsilon_decay)

        new_errors = np.array([abs(self.td_error(t)) for t in batch])
        return {"critic_loss": loss_val, "actor_loss": 0.0, "td_errors": new_errors}


def make_learner(
    kind: str,
    state_dim: int,
    candidate_dim: int,
    seed: int | None = 0,
    **kwargs,
):
    """Factory over the five frameworks compared in Fig 7 (``LEARNERS``)."""
    if kind.lower() not in LEARNERS:
        raise ValueError(
            f"Unknown learner {kind!r}; expected actor_critic or one of {DQN_VARIANTS}"
        )
    options = LEARNERS[kind.lower()]
    if options is None:
        from repro.rl.actor_critic import ActorCriticLearner

        return ActorCriticLearner(state_dim, candidate_dim, seed=seed, **kwargs)
    return DQNLearner(state_dim, candidate_dim, seed=seed, **options, **kwargs)
