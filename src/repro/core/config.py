"""FastFT configuration: every hyper-parameter of §V plus ablation toggles.

Paper defaults: 200 episodes × 15 steps, cold start ends at episode 10,
components re-train every 5 episodes, α=10 (performance percentile), β=5
(novelty percentile), novelty weight 0.1→0.005 over M=1000 steps, replay
size S=16, LSTM(2 layers, emb 32) predictor with FC(16,1) head, novelty
estimator FC(16,4,1) with orthogonal gain 16.

The defaults below are the paper's; tests and benches pass scaled-down
profiles (fewer episodes/steps, smaller forests) via keyword overrides.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from numbers import Real

from repro.rl.dqn import LEARNERS

__all__ = ["FastFTConfig"]

# Tuple-typed fields that JSON round-trips as lists.
_TUPLE_FIELDS = ("predictor_head_dims", "novelty_head_dims")
# Fields removed from the config; durable files that still carry them load.
_REMOVED_FIELDS = ("inner_loop", "oracle_engine", "cv_jobs")


def _reject_unknown_fields(extra: set[str]) -> None:
    """Refuse fields this build never had (a newer build's file, most likely)."""
    unknown = sorted(extra - set(_REMOVED_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown FastFTConfig field(s): {', '.join(unknown)} (written "
            "by a newer build?); refusing to load with defaults in their place"
        )


@dataclass
class FastFTConfig:
    # -- exploration schedule (§V Hyperparameter 1) --
    episodes: int = 200
    steps_per_episode: int = 15
    cold_start_episodes: int = 10
    retrain_every_episodes: int = 5
    component_epochs: int = 20

    # -- adaptive downstream triggering (§III-D) --
    # α: top-percentile of predicted performance that triggers real evaluation.
    # β: top-percentile of novelty that triggers real evaluation.
    alpha: float = 10.0
    beta: float = 5.0
    trigger_window: int = 256
    trigger_warmup: int = 8  # min window length before percentiles apply

    # -- novelty reward schedule (Eq. 6) --
    novelty_weight_start: float = 0.10
    novelty_weight_end: float = 0.005
    novelty_decay_steps: int = 1000

    # -- prioritized experience replay (§V Hyperparameter 2, Eq. 10) --
    memory_size: int = 16
    replay_batch_size: int = 8
    per_alpha: float = 0.6
    per_beta: float = 0.4

    # -- evaluation components (§V Hyperparameters 3 & 4) --
    seq_model: str = "lstm"  # lstm | rnn | transformer (Fig 8)
    embed_dim: int = 32
    hidden_dim: int = 32
    encoder_layers: int = 2
    predictor_head_dims: tuple[int, ...] = (16, 1)
    novelty_head_dims: tuple[int, ...] = (16, 4, 1)
    orthogonal_gain: float = 16.0
    component_lr: float = 1e-3
    max_seq_len: int = 96
    eval_record_cap: int = 256

    # -- cascading agents --
    rl_framework: str = "actor_critic"  # + dqn / double_dqn / dueling_(double_)dqn (Fig 7)
    agent_hidden: int = 64
    agent_lr: float = 1e-3
    gamma: float = 0.95
    entropy_coef: float = 0.01

    # -- feature space management --
    max_features: int | None = None  # default: max(3 × original, original + 8)
    max_new_per_step: int = 12
    cluster_threshold: float | str = "auto"
    max_clusters: int | None = 8
    mi_bins: int = 8
    mi_max_rows: int = 256
    feature_slots: int = 512

    # -- downstream oracle --
    cv_splits: int = 5
    rf_estimators: int = 10
    rf_max_depth: int | None = 8
    # The forest fits with the presorted split engine, and the search's
    # inner loop runs on the columnar arena with incremental caches. The
    # seed implementations of both are test oracles in tests/reference/.

    # Oracle scheduling: "serial" runs triggered evaluations inside the
    # step (the paper's timeline and the pinned GOLDEN_DIGESTS arm);
    # "async" defers them to an AsyncOracle pool while the search advances
    # on φ estimates, reconciling every `reconcile_every_k` global steps
    # (a *different* trajectory with its own goldens — see
    # repro.core.async_oracle for the determinism contract).
    oracle_mode: str = "serial"
    reconcile_every_k: int = 4
    # AsyncOracle pool size (0 = inline reference arm, -1 = all cores),
    # per-attempt deadline in seconds (None = none) and how many times a
    # crashed/timed-out evaluation is retried before degrading to the
    # predictor-estimated score.
    oracle_workers: int = 2
    oracle_timeout: float | None = None
    oracle_retries: int = 1

    # -- ablation toggles (Fig 6) --
    use_performance_predictor: bool = True  # False → FastFT−PP
    use_novelty: bool = True  # False → FastFT−NE
    prioritized_replay: bool = True  # False → FastFT−RCT

    # -- misc --
    seed: int | None = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ValueError("episodes and steps_per_episode must be >= 1")
        if not 0 <= self.cold_start_episodes <= self.episodes:
            raise ValueError("cold_start_episodes must lie within [0, episodes]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative percentiles")
        if self.trigger_window < 1:
            raise ValueError("trigger_window must be >= 1")
        # With triggering active, warmup 0 would take a percentile over an
        # empty window on the first exploration step; only the degenerate
        # α=β=0 arm (Fig 12) may skip the warmup entirely.
        if self.alpha > 0 or self.beta > 0:
            if self.trigger_warmup < 1:
                raise ValueError("trigger_warmup must be >= 1 when alpha > 0 or beta > 0")
            # The warmup is measured against window length; a warmup the
            # window can never reach would silently trigger a real
            # evaluation on every step forever.
            if self.trigger_warmup > self.trigger_window:
                raise ValueError(
                    "trigger_warmup must not exceed trigger_window "
                    f"({self.trigger_warmup} > {self.trigger_window})"
                )
        if self.novelty_decay_steps < 1:
            raise ValueError("novelty_decay_steps must be >= 1")
        if self.memory_size < 1:
            raise ValueError("memory_size must be >= 1")
        if self.replay_batch_size < 1:
            raise ValueError("replay_batch_size must be >= 1")
        if self.replay_batch_size > self.memory_size:
            raise ValueError(
                "replay_batch_size must not exceed memory_size "
                f"({self.replay_batch_size} > {self.memory_size})"
            )
        if self.seq_model not in ("lstm", "rnn", "transformer"):
            raise ValueError("seq_model must be lstm, rnn or transformer")
        for name in ("hidden_dim", "encoder_layers", "agent_hidden", "mi_max_rows",
                     "feature_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("component_lr", "agent_lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not isinstance(self.rl_framework, str) or self.rl_framework.lower() not in LEARNERS:
            raise ValueError(
                f"rl_framework must be one of {', '.join(LEARNERS)}, got {self.rl_framework!r}"
            )
        if self.cluster_threshold != "auto" and not isinstance(self.cluster_threshold, Real):
            raise ValueError(
                f"cluster_threshold must be 'auto' or a number, got {self.cluster_threshold!r}"
            )
        if self.mi_bins < 2:
            raise ValueError(f"mi_bins must be >= 2, got {self.mi_bins}")
        if self.cv_splits < 2:
            raise ValueError(f"cv_splits must be >= 2, got {self.cv_splits}")
        if self.rf_estimators < 1:
            raise ValueError(f"rf_estimators must be >= 1, got {self.rf_estimators}")
        if self.oracle_mode not in ("serial", "async"):
            raise ValueError("oracle_mode must be 'serial' or 'async'")
        if self.reconcile_every_k < 1:
            raise ValueError("reconcile_every_k must be >= 1")
        if self.oracle_workers < 0 and self.oracle_workers != -1:
            raise ValueError("oracle_workers must be >= 0 or -1 (all cores)")
        if self.oracle_timeout is not None and self.oracle_timeout <= 0:
            raise ValueError("oracle_timeout must be positive or None")
        if self.oracle_retries < 0:
            raise ValueError("oracle_retries must be >= 0")

    def __setstate__(self, state: dict) -> None:
        # Configs pickled by older builds (session checkpoints, job results)
        # may carry fields since removed; those are dropped. Any other
        # unknown field fails the load, as it does in from_jsonable.
        known = {f.name for f in fields(self)}
        _reject_unknown_fields(set(state) - known)
        self.__dict__.update({k: v for k, v in state.items() if k in known})

    def resolved_max_features(self, n_original: int) -> int:
        if self.max_features is not None:
            return max(self.max_features, n_original)
        return max(3 * n_original, n_original + 8)

    # -- JSON round-trip (result files, repro.jobs sweep specs) -----------------

    def to_jsonable(self) -> dict:
        """Plain-JSON representation (tuples become lists)."""
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(self).items()
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FastFTConfig":
        """Rebuild from :meth:`to_jsonable` output.

        Fields since removed (``_REMOVED_FIELDS``) are dropped, so files
        written by older builds still load. Any other unknown key raises a
        ``ValueError`` naming it: a file written by a newer build must not
        run here with defaults in place of the fields this build lacks.
        The tuple-typed head-dims fields are converted back from lists.
        """
        known = {f.name for f in fields(cls)}
        _reject_unknown_fields(set(payload) - known)
        raw = {k: v for k, v in payload.items() if k in known}
        for key in _TUPLE_FIELDS:
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        return cls(**raw)
