"""The incremental FastFT search session.

:class:`SearchSession` is the step-structured heart of the system: it owns
every piece of mutable search state (feature space, cascading agents, φ/ψ
components, replay memory, trigger windows, RNG) and exposes the paper's
four stages — cold start, component training, efficient exploration,
fine-tuning — one exploration step at a time:

    session = SearchSession(X, y, task="classification", config=cfg)
    for record in session:            # iterator protocol == session.step()
        ...                           # observe each StepRecord live
    result = session.result()

or, equivalently, ``session.run()`` which also drives
:mod:`repro.core.callbacks` observers. Sessions are resumable:

    session.checkpoint("search.ckpt")            # anywhere, even mid-episode
    session = SearchSession.resume("search.ckpt")
    result = session.run()

Checkpoints capture the complete state — including the
``numpy.random.Generator`` streams of the session, the agents' learners and
the replay buffers — so a resumed run reproduces the uninterrupted run's
decisions, scores and history bit-for-bit (wall-clock timing fields aside).

:meth:`repro.core.engine.FastFT.fit` is a thin blocking wrapper around this
class, and :mod:`repro.api` builds the high-level facade on top of it.
"""

from __future__ import annotations

import pickle
import time
from collections import deque

import numpy as np

from repro.core.agents import CascadingAgents
from repro.core.async_oracle import AsyncOracle
from repro.core.callbacks import Callback, CallbackList, VerboseLogger
from repro.core.clustering import IncrementalClusterer, RelevanceCache, cluster_features
from repro.core.config import FastFTConfig
from repro.core.fsio import atomic_write_bytes
from repro.core.novelty import EmbeddingLog, NoveltyEstimator, novelty_distance
from repro.core.operations import OPERATION_NAMES, OPERATIONS
from repro.core.predictor import PerformancePredictor
from repro.core.result import FastFTResult, StepRecord, TimeBreakdown
from repro.core.reward import NoveltyWeightSchedule, downstream_reward, pseudo_reward
from repro.core.sequence import FeatureSpace, TransformationPlan
from repro.core.state import StateCache
from repro.core.tokens import TokenVocabulary
from repro.ml.evaluation import TASKS, DownstreamEvaluator, default_model_for_task
from repro.ml.preprocessing import sanitize_features
from repro.nn.tensor import no_grad

__all__ = [
    "SearchSession",
    "make_default_evaluator",
    "CheckpointCorruptError",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_FORMAT = "fastft-session"
CHECKPOINT_VERSION = 1


class CheckpointCorruptError(ValueError):
    """A checkpoint file exists but cannot be deserialized.

    Raised by :meth:`SearchSession.resume` when the pickle stream is
    truncated or corrupted — distinct from ``OSError`` (missing file) and
    from the plain ``ValueError`` of a well-formed file in an unknown
    format/version. Checkpoints are published atomically (tmp +
    ``os.replace`` + fsync), so this error indicates external damage
    (disk fault, manual truncation, fault injection), never an
    interrupted writer.
    """


def make_default_evaluator(task: str, config: FastFTConfig) -> DownstreamEvaluator:
    """The paper-default downstream oracle a session builds when none is
    supplied — the single source of truth shared with :mod:`repro.api`.
    """
    return DownstreamEvaluator(
        task,
        model=default_model_for_task(
            task,
            n_estimators=config.rf_estimators,
            max_depth=config.rf_max_depth,
            seed=config.seed,
        ),
        n_splits=config.cv_splits,
        seed=config.seed,
    )


class SearchSession:
    """A pausable, observable, checkpointable FastFT search.

    Parameters
    ----------
    X, y:
        The input feature matrix and target.
    task:
        ``"classification"``, ``"regression"`` or ``"detection"``.
    config:
        Search hyper-parameters; defaults to :class:`FastFTConfig`.
    feature_names:
        Optional column names used in traceable expressions.
    evaluator:
        Downstream oracle; any callable object with the
        :class:`~repro.ml.evaluation.DownstreamEvaluator` interface
        (``__call__(X, y) -> float`` plus ``n_calls``/``reset_counters``),
        e.g. a cache-wrapped evaluator from :mod:`repro.api`.
    callbacks:
        Iterable of :class:`~repro.core.callbacks.Callback` observers.
        ``config.verbose=True`` implicitly adds a
        :class:`~repro.core.callbacks.VerboseLogger`.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task: str = "classification",
        config: FastFTConfig | None = None,
        feature_names: list[str] | None = None,
        evaluator: DownstreamEvaluator | None = None,
        callbacks: list[Callback] | None = None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"Unknown task {task!r}; expected one of {TASKS}")
        self.config = config or FastFTConfig()
        self.task = task
        self._X = sanitize_features(np.asarray(X, dtype=float))
        self._y = np.asarray(y)
        self._feature_names = list(feature_names) if feature_names is not None else None
        self._evaluator = evaluator
        self._callbacks = CallbackList(callbacks)
        if self.config.verbose and not any(
            isinstance(cb, VerboseLogger) for cb in self._callbacks.callbacks
        ):
            self._callbacks.append(VerboseLogger())

        self._started = False
        self._finished = False
        self._stop_requested = False
        self._stop_reason: str | None = None
        self._finish_notified_at: int | None = None

        # Observability (repro.obs): the tracer is attached by a
        # TracingCallback and only *reads* timings the session measures
        # anyway — nothing here feeds back into the trajectory. The
        # last_*_seconds attributes expose phase durations the per-step
        # records cannot carry, for callbacks that fire right after them.
        self._tracer = None
        self.base_eval_seconds = 0.0
        self.last_episode_setup_seconds = 0.0
        self.last_reconcile_seconds = 0.0
        self.last_retrain_seconds = 0.0
        self.last_predictor_fit_seconds = 0.0
        self.last_novelty_fit_seconds = 0.0

    # -- lifecycle observability ------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def finished(self) -> bool:
        """All configured episodes ran to completion."""
        return self._finished

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    @property
    def stop_reason(self) -> str | None:
        return self._stop_reason

    @property
    def done(self) -> bool:
        """No more steps will run (exhausted or stopped by a callback)."""
        return self._finished or self._stop_requested

    @property
    def episode(self) -> int:
        """Index of the episode the next step belongs to."""
        return self._episode if self._started else 0

    @property
    def global_step(self) -> int:
        return self._global_step if self._started else 0

    @property
    def total_steps(self) -> int:
        return self.config.episodes * self.config.steps_per_episode

    @property
    def base_score(self) -> float:
        self._require_started()
        return self._base_score

    @property
    def best_score(self) -> float:
        """Best *real* downstream score seen so far (≥ base score)."""
        self._require_started()
        return max(self._best_real_score, self._base_score)

    @property
    def n_features(self) -> int:
        if self._started and self._space is not None:
            return self._space.n_features
        return self._X.shape[1]

    @property
    def n_downstream_calls(self) -> int:
        return self._n_eval_calls if self._started else 0

    @property
    def history(self) -> list[StepRecord]:
        return list(self._history) if self._started else []

    @property
    def callbacks(self) -> CallbackList:
        return self._callbacks

    def add_callback(self, callback: Callback) -> None:
        self._callbacks.append(callback)

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (or ``None`` to detach).

        Forwards to the downstream evaluator (per-fold timings, engine
        label) and the async oracle pool (queue telemetry) when present.
        Tracers are process-local: they never survive pickling.
        """
        self._tracer = tracer
        evaluator = self._evaluator
        # A cache wrapper (repro.api.CachedEvaluator) holds the real
        # evaluator on `.evaluator`; instrument the innermost one.
        inner = getattr(evaluator, "evaluator", evaluator)
        if hasattr(inner, "set_tracer"):
            inner.set_tracer(tracer)
        if getattr(self, "_async_oracle", None) is not None:
            self._async_oracle.set_tracer(tracer)

    def request_stop(self, reason: str = "") -> None:
        """Ask the session to end after the current step (callback-safe)."""
        self._stop_requested = True
        if reason and self._stop_reason is None:
            self._stop_reason = reason

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("Session not started; call start() or step() first")

    # -- construction of the search machinery ----------------------------------

    def _make_components(
        self, vocab_size: int
    ) -> tuple[PerformancePredictor | None, NoveltyEstimator | None]:
        cfg = self.config
        predictor = None
        novelty = None
        if cfg.use_performance_predictor:
            predictor = PerformancePredictor(
                vocab_size,
                seq_model=cfg.seq_model,
                embed_dim=cfg.embed_dim,
                hidden_dim=cfg.hidden_dim,
                num_layers=cfg.encoder_layers,
                head_dims=cfg.predictor_head_dims,
                lr=cfg.component_lr,
                seed=cfg.seed,
            )
        if cfg.use_novelty:
            novelty = NoveltyEstimator(
                vocab_size,
                seq_model=cfg.seq_model,
                embed_dim=cfg.embed_dim,
                hidden_dim=cfg.hidden_dim,
                num_layers=cfg.encoder_layers,
                estimator_head_dims=cfg.novelty_head_dims,
                orthogonal_gain=cfg.orthogonal_gain,
                lr=cfg.component_lr,
                seed=cfg.seed,
            )
        return predictor, novelty

    def start(self) -> "SearchSession":
        """Measure the base score and build all search state; idempotent."""
        if self._started:
            return self
        cfg = self.config

        if self._evaluator is None:
            self._evaluator = make_default_evaluator(self.task, cfg)
        self._rng = np.random.default_rng(cfg.seed)
        self._vocab = TokenVocabulary(OPERATION_NAMES, n_feature_slots=cfg.feature_slots)
        self._predictor, self._novelty = self._make_components(len(self._vocab))
        self._agents = CascadingAgents(
            n_ops=len(OPERATIONS),
            framework=cfg.rl_framework,
            hidden=cfg.agent_hidden,
            lr=cfg.agent_lr,
            gamma=cfg.gamma,
            entropy_coef=cfg.entropy_coef,
            memory_size=cfg.memory_size,
            replay_batch_size=cfg.replay_batch_size,
            prioritized=cfg.prioritized_replay,
            per_alpha=cfg.per_alpha,
            per_beta=cfg.per_beta,
            seed=cfg.seed,
        )
        self._schedule = NoveltyWeightSchedule(
            cfg.novelty_weight_start, cfg.novelty_weight_end, cfg.novelty_decay_steps
        )

        self._timers = TimeBreakdown()
        self._history: list[StepRecord] = []
        self._feature_cap = cfg.resolved_max_features(self._X.shape[1])

        self._n_eval_calls = 0
        t0 = time.perf_counter()
        self._base_score = self._evaluate_matrix(self._X)
        self.base_eval_seconds = time.perf_counter() - t0
        self._timers.evaluation += self.base_eval_seconds

        self._best_real_score = self._base_score
        self._best_real_plan = FeatureSpace(self._X, self._feature_names).snapshot()
        self._best_pseudo_score = -np.inf
        self._best_pseudo_plan: TransformationPlan | None = None
        self._pseudo_validation: tuple[TransformationPlan, float] | None = None

        # Training records for the evaluation components.
        self._eval_sequences: deque[np.ndarray] = deque(maxlen=cfg.eval_record_cap)
        self._eval_scores: deque[float] = deque(maxlen=cfg.eval_record_cap)
        self._seen_sequences: deque[np.ndarray] = deque(maxlen=2 * cfg.eval_record_cap)

        # Adaptive-trigger percentile windows (§III-D).
        self._pred_window: deque[float] = deque(maxlen=cfg.trigger_window)
        self._nov_window: deque[float] = deque(maxlen=cfg.trigger_window)

        # Fig 14 bookkeeping (preallocated growing buffer; the former
        # python list cost an O(steps) np.array rebuild per step).
        self._embedding_history = EmbeddingLog()
        self._seen_expressions: set[str] = set()
        self._unencountered_total = 0

        # Per-episode incremental caches over the columnar arena (see
        # _attach_caches), all bit-identical to recomputing from scratch.
        self._state_cache: StateCache | None = None
        self._clusterer: IncrementalClusterer | None = None
        self._relevance_cache: RelevanceCache | None = None

        self._global_step = 0
        self._components_trained = False

        # Async oracle state (cfg.oracle_mode == "async"): triggered
        # evaluations are deferred onto the pool and reconciled at pinned
        # points; the pool itself is built lazily on first submission.
        self._async_mode = cfg.oracle_mode == "async"
        self._async_oracle: AsyncOracle | None = None
        self._pending_evals: list[tuple[int, np.ndarray, TransformationPlan]] = []

        # Per-episode state (populated by _begin_episode).
        self._episode = 0
        self._step_in_episode = 0
        self._space: FeatureSpace | None = None
        self._body_tokens: list[int] = []
        self._prev_seq: np.ndarray | None = None
        self._clusters: list[list[int]] = []
        self._overall_rep: np.ndarray | None = None
        self._cluster_reps: np.ndarray | None = None
        self._prev_score_used = self._base_score
        self._prev_phi: float | None = None

        self._started = True
        self._callbacks.on_search_start(self)
        return self

    # -- evaluation plumbing -----------------------------------------------------

    def _evaluate_matrix(self, matrix: np.ndarray) -> float:
        """Run the downstream oracle, counting only *actual* CV runs.

        A cache-wrapped evaluator (see :class:`repro.api.EvaluationCache`)
        only bumps its ``n_calls`` on cache misses, so
        ``result.n_downstream_calls`` honestly reports oracle cost.
        """
        before = getattr(self._evaluator, "n_calls", None)
        score = self._evaluator(matrix, self._y)
        if before is None:
            self._n_eval_calls += 1
        else:
            self._n_eval_calls += max(0, self._evaluator.n_calls - before)
        return float(score)

    def _ensure_oracle(self) -> AsyncOracle:
        if self._async_oracle is None:
            cfg = self.config
            self._async_oracle = AsyncOracle(
                self._evaluator,
                self._y,
                n_workers=cfg.oracle_workers,
                timeout=cfg.oracle_timeout,
                retries=cfg.oracle_retries,
            )
            if self._tracer is not None:
                self._async_oracle.set_tracer(self._tracer)
        return self._async_oracle

    def _reconcile(self) -> None:
        """Drain every pending async evaluation, in submission order.

        This is the only place deferred real scores touch search state,
        and it runs at schedule-pinned points (every ``reconcile_every_k``
        global steps, episode end, ``result()``, ``checkpoint()``) — so
        the trajectory depends on the reconcile schedule, never on worker
        timing. Degraded submissions (crash/timeout past the retry
        budget) keep their predictor-estimated step scores.
        """
        if not self._pending_evals:
            return
        t0 = time.perf_counter()
        outcomes = self._async_oracle.drain()
        landed = degraded = 0
        for (ticket, seq, plan), outcome in zip(self._pending_evals, outcomes):
            assert outcome.ticket == ticket
            if not outcome.ok:
                degraded += 1
                continue
            landed += 1
            score = float(outcome.score)
            self._n_eval_calls += outcome.n_calls
            self._eval_sequences.append(seq)
            self._eval_scores.append(score)
            if score > self._best_real_score:
                self._best_real_score = score
                self._best_real_plan = plan
        self._pending_evals = []
        self.last_reconcile_seconds = time.perf_counter() - t0
        self._timers.evaluation += self.last_reconcile_seconds
        self._callbacks.on_reconcile(self, landed, degraded)

    def close(self) -> None:
        """Release the async oracle pool (no-op in serial mode).

        Pending evaluations are reconciled first, so closing never drops
        submitted work. ``run()`` calls this when the session is done.
        """
        if getattr(self, "_async_oracle", None) is not None:
            self._reconcile()
            self._async_oracle.shutdown()
            self._async_oracle = None

    # -- feature-space helpers ----------------------------------------------------

    @staticmethod
    def _cluster_fids(space: FeatureSpace, column_clusters: list[list[int]]) -> list[list[int]]:
        live = space.live_ids_view  # read-only; fresh lists are built below
        return [[live[c] for c in cols] for cols in column_clusters]

    def _attach_caches(self, space: FeatureSpace) -> None:
        """Build the incremental caches that describe ``space``.

        Per-column stats and MI estimates are cached by feature id (columns
        are immutable), so only newly created features cost O(n_samples)
        work. Feature ids restart every episode, so the caches are rebuilt
        alongside the space they describe. Subsampled MI clustering can
        only be cached when a seed pins the row subsample; an unseeded
        session clusters from scratch at every call instead.
        """
        cfg = self.config
        self._state_cache = StateCache(space)
        self._relevance_cache = RelevanceCache(self.task, cfg.mi_bins)
        pinned_rows = cfg.seed is not None or self._X.shape[0] <= cfg.mi_max_rows
        self._clusterer = (
            IncrementalClusterer(
                task=self.task,
                distance_threshold=cfg.cluster_threshold,
                max_clusters=cfg.max_clusters,
                n_bins=cfg.mi_bins,
                max_rows=cfg.mi_max_rows,
                seed=cfg.seed,
            )
            if pinned_rows
            else None
        )

    def _recluster(
        self, space: FeatureSpace
    ) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        cfg = self.config
        live = space.live_ids_view
        if self._clusterer is not None:
            column_clusters = self._clusterer.cluster(space, self._y, live)
        else:  # unpinned row subsample: cluster from scratch
            column_clusters = cluster_features(
                sanitize_features(space.matrix()),
                self._y,
                task=self.task,
                distance_threshold=cfg.cluster_threshold,
                max_clusters=cfg.max_clusters,
                n_bins=cfg.mi_bins,
                max_rows=cfg.mi_max_rows,
                seed=cfg.seed,
            )
        fid_clusters = self._cluster_fids(space, column_clusters)
        overall_rep = self._state_cache.describe(live)
        cluster_reps = np.stack([self._state_cache.describe(fids) for fids in fid_clusters])
        return fid_clusters, overall_rep, cluster_reps

    def _prune(self, space: FeatureSpace) -> None:
        if space.n_features <= self._feature_cap:
            return
        live = space.live_ids_view
        relevance = self._relevance_cache.relevance(space, self._y, live)
        order = np.argsort(-relevance)
        keep = [live[i] for i in order[: self._feature_cap]]
        space.prune(keep)

    def _should_trigger(self, predicted: float, nov: float) -> bool:
        """§III-D adaptive strategy: real evaluation for top-α% predicted
        performance or top-β% novelty. α=β=0 disables downstream evaluation
        entirely (the degenerate setting of Fig 12)."""
        cfg = self.config
        if cfg.alpha <= 0 and cfg.beta <= 0:
            return False
        if len(self._pred_window) < cfg.trigger_warmup:
            return True
        if cfg.alpha > 0:
            threshold = float(np.percentile(self._pred_window, 100 - cfg.alpha))
            if predicted >= threshold:
                return True
        if cfg.beta > 0 and len(self._nov_window) >= cfg.trigger_warmup:
            threshold = float(np.percentile(self._nov_window, 100 - cfg.beta))
            if nov >= threshold:
                return True
        return False

    # -- the step machine ---------------------------------------------------------

    def _begin_episode(self) -> None:
        self._space = FeatureSpace(self._X, self._feature_names)
        self._attach_caches(self._space)
        self._body_tokens = []
        self._prev_seq = self._vocab.finalize(self._body_tokens, self.config.max_seq_len)

        t0 = time.perf_counter()
        self._clusters, self._overall_rep, self._cluster_reps = self._recluster(self._space)
        self.last_episode_setup_seconds = time.perf_counter() - t0
        self._timers.optimization += self.last_episode_setup_seconds

        self._prev_score_used = self._base_score
        self._prev_phi = None
        self._callbacks.on_episode_start(self, self._episode)

    def _explore_step(self) -> StepRecord:
        cfg = self.config
        space = self._space
        episode, step = self._episode, self._step_in_episode

        # ---- decide & transform (optimization bucket) ----
        t0 = time.perf_counter()
        decision = self._agents.decide(
            self._overall_rep,
            self._cluster_reps,
            is_binary=lambda op_idx: OPERATIONS[op_idx].arity == 2,
        )
        op = OPERATIONS[decision.op_index]
        head_fids = self._clusters[decision.head_index]
        if op.arity == 2:
            tail_fids = self._clusters[decision.tail_index]
            new_fids = space.apply_binary(
                op.name, head_fids, tail_fids, max_new=cfg.max_new_per_step, rng=self._rng
            )
            self._body_tokens.extend(self._vocab.step_tokens(op.name, head_fids, tail_fids))
        else:
            new_fids = space.apply_unary(op.name, head_fids[: cfg.max_new_per_step])
            self._body_tokens.extend(self._vocab.step_tokens(op.name, head_fids))
        seq = self._vocab.finalize(self._body_tokens, cfg.max_seq_len)
        self._prune(space)
        time_optimization = time.perf_counter() - t0
        self._timers.optimization += time_optimization

        new_expressions = [space.expression(f) for f in new_fids]
        fresh = [e for e in new_expressions if e not in self._seen_expressions]
        self._unencountered_total += len(fresh)
        self._seen_expressions.update(fresh)

        # ---- score the new feature set ----
        in_cold_start = episode < cfg.cold_start_episodes or not self._components_trained
        use_components = (
            cfg.use_performance_predictor and self._components_trained and not in_cold_start
        )

        phi_i: float | None = None
        nov = 0.0
        nov_raw = 0.0
        nov_dist = 1.0
        triggered = False
        time_estimation = 0.0
        time_evaluation = 0.0

        # Inference-only forwards skip autograd bookkeeping: same numpy
        # expressions as a graph-recording forward, so bit-identical outputs.
        if self._novelty is not None and self._components_trained:
            t1 = time.perf_counter()
            # Fused pass: the frozen target encodes the sequence once for
            # both the distillation gap and the Fig 14 embedding.
            with no_grad():
                nov_raw, emb = self._novelty.score_with_embedding(seq)
            # Running-std normalization keeps the intrinsic term on the same
            # scale as the performance delta regardless of the orthogonal
            # target's gain (standard RND practice); the raw value feeds the
            # trigger percentile window.
            if len(self._nov_window) >= 2:
                scale = float(np.std(self._nov_window)) + 1e-8
                nov = float(np.tanh(nov_raw / scale))
            else:
                nov = 1.0 if nov_raw > 0 else 0.0
            nov_dist = novelty_distance(emb, self._embedding_history.view())
            self._embedding_history.append(emb)
            time_estimation += time.perf_counter() - t1

        deferred = False
        if use_components:
            t1 = time.perf_counter()
            # Candidate scoring goes through the batch entry point. The
            # masked exact batch encode makes batching bit-identical to
            # per-sequence forwards, so the previous sequence — needed
            # once per episode for the first reward delta — shares the
            # current sequence's pass.
            with no_grad():
                if self._prev_phi is None:
                    phis = self._predictor.predict_batch([seq, self._prev_seq])
                    phi_i = float(phis[0])
                    self._prev_phi = float(phis[1])
                else:
                    phi_i = float(self._predictor.predict_batch([seq])[0])
            time_estimation += time.perf_counter() - t1

            triggered = self._should_trigger(phi_i, nov_raw)
            self._pred_window.append(phi_i)

            if triggered and self._async_mode:
                # Defer the real evaluation to the pool and keep stepping
                # on φ; the score lands (against this step's snapshot) at
                # the next reconcile point. The step itself records the
                # estimate: triggered=True + is_real=False marks it.
                t1 = time.perf_counter()
                ticket = self._ensure_oracle().submit(space.matrix())
                self._pending_evals.append((ticket, seq, space.snapshot()))
                time_evaluation += time.perf_counter() - t1
                score = phi_i
                is_real = False
                deferred = True
            elif triggered:
                t1 = time.perf_counter()
                score = self._evaluate_matrix(space.matrix())
                time_evaluation += time.perf_counter() - t1
                is_real = True
            else:
                score = phi_i
                is_real = False
            eps_i = self._schedule.weight(self._global_step) if self._novelty is not None else 0.0
            reward = pseudo_reward(
                score if is_real else phi_i,
                self._prev_phi if self._prev_phi is not None else 0.0,
                nov,
                eps_i,
            )
            self._prev_phi = phi_i
        else:
            # Cold start (Algorithm 1) or the −PP ablation: real feedback.
            t1 = time.perf_counter()
            score = self._evaluate_matrix(space.matrix())
            time_evaluation += time.perf_counter() - t1
            is_real = True
            eps_i = (
                self._schedule.weight(self._global_step)
                if (self._novelty is not None and self._components_trained)
                else 0.0
            )
            reward = downstream_reward(score, self._prev_score_used) + eps_i * nov

        if self._novelty is not None and self._components_trained:
            self._nov_window.append(nov_raw)
        self._timers.estimation += time_estimation
        self._timers.evaluation += time_evaluation
        self._prev_score_used = score
        self._prev_seq = seq

        # ---- best tracking ----
        if is_real:
            self._eval_sequences.append(seq)
            self._eval_scores.append(score)
            if score > self._best_real_score:
                self._best_real_score = score
                self._best_real_plan = space.snapshot()
        elif not deferred and score > self._best_pseudo_score:
            # Deferred-triggered steps skip pseudo tracking: their real
            # score covers the same plan at the next reconcile point.
            self._best_pseudo_score = score
            self._best_pseudo_plan = space.snapshot()
        self._seen_sequences.append(seq)

        # ---- remember & learn (optimization bucket) ----
        t0 = time.perf_counter()
        self._clusters, overall_rep_next, cluster_reps_next = self._recluster(space)
        done = step == cfg.steps_per_episode - 1
        priority = self._agents.store(
            decision, reward, overall_rep_next, cluster_reps_next, done
        )
        self._agents.optimize()
        self._overall_rep, self._cluster_reps = overall_rep_next, cluster_reps_next
        dt = time.perf_counter() - t0
        time_optimization += dt
        self._timers.optimization += dt

        best_so_far = max(self._best_real_score, self._base_score)
        return StepRecord(
            episode=episode,
            step=step,
            global_step=self._global_step,
            op_name=op.name,
            n_new_features=len(new_fids),
            score=score,
            is_real=is_real,
            predicted_score=phi_i,
            novelty=nov,
            novelty_weight=self._schedule.weight(self._global_step),
            reward=reward,
            priority=priority,
            n_features=space.n_features,
            n_clusters=len(self._clusters),
            best_score_so_far=best_so_far,
            time_optimization=time_optimization,
            time_estimation=time_estimation,
            time_evaluation=time_evaluation,
            new_expressions=new_expressions,
            novelty_distance=nov_dist,
            unencountered_total=self._unencountered_total,
            triggered=triggered,
            sequence_tokens=[int(t) for t in seq],
        )

    def _end_episode(self) -> None:
        """Stage transitions: component training / fine-tuning (§III-C/D)."""
        cfg = self.config
        episode = self._episode
        # Episode-end reconcile point: the retrain below must see every
        # real score collected during the episode.
        self._reconcile()
        finished_cold_start = episode == cfg.cold_start_episodes - 1
        due_finetune = (
            self._components_trained
            and cfg.retrain_every_episodes > 0
            and (episode - cfg.cold_start_episodes + 1) % cfg.retrain_every_episodes == 0
        )
        if (finished_cold_start or due_finetune) and self._eval_sequences:
            t1 = time.perf_counter()
            if self._predictor is not None:
                self._predictor.fit(
                    list(self._eval_sequences),
                    np.array(self._eval_scores),
                    epochs=cfg.component_epochs,
                    rng=self._rng,
                )
            t2 = time.perf_counter()
            if self._novelty is not None:
                self._novelty.fit(
                    list(self._seen_sequences), epochs=cfg.component_epochs, rng=self._rng
                )
            self.last_predictor_fit_seconds = t2 - t1
            self.last_novelty_fit_seconds = time.perf_counter() - t2
            self.last_retrain_seconds = (
                self.last_predictor_fit_seconds + self.last_novelty_fit_seconds
            )
            self._timers.estimation += self.last_retrain_seconds
            self._components_trained = True
            stage = "cold_start" if finished_cold_start else "fine_tune"
            self._callbacks.on_retrain(self, episode, stage)

        # Advance the episode cursor *before* notifying observers, so a
        # checkpoint taken inside on_episode_end captures a state that
        # resumes at the top of the next episode (not a phantom extra step).
        self._episode += 1
        self._step_in_episode = 0
        if self._episode >= cfg.episodes:
            self._finished = True
        self._callbacks.on_episode_end(self, episode)

    def step(self) -> StepRecord:
        """Run one exploration step; starts the session on first call."""
        if not self._started:
            self.start()
        if self._finished:
            raise RuntimeError("Session already finished; no steps remain")
        if self._step_in_episode == 0:
            self._begin_episode()
        record = self._explore_step()
        self._history.append(record)
        self._global_step += 1
        self._step_in_episode += 1
        self._callbacks.on_step(self, record)
        if record.is_real:
            self._callbacks.on_real_evaluation(self, record)
        # Pinned mid-episode reconcile point (async mode): the schedule
        # depends only on the global step counter, never on worker timing.
        if self._pending_evals and self._global_step % self.config.reconcile_every_k == 0:
            self._reconcile()
        if self._step_in_episode >= self.config.steps_per_episode:
            self._end_episode()
        return record

    def __iter__(self) -> "SearchSession":
        return self

    def __next__(self) -> StepRecord:
        if self.done:
            raise StopIteration
        return self.step()

    def run(self, until=None) -> FastFTResult:
        """Step until exhaustion, a callback stop, or the ``until`` limit.

        ``until`` is either a global-step count (int) or a predicate
        ``until(session) -> bool`` checked before each step. Always returns
        the result of the work done so far; ``on_finish`` fires only when
        the session is genuinely done.
        """
        if not self._started:
            self.start()
        while not self.done:
            if until is not None:
                if callable(until):
                    if until(self):
                        break
                elif self._global_step >= int(until):
                    break
            self.step()
        result = self.result()
        if self.done:
            self.close()
        # on_finish fires once per final state: calling run() again on an
        # already-done session (e.g. resuming a finished checkpoint) must
        # not repeat finish-time side effects.
        if self.done and self._finish_notified_at != self._global_step:
            self._finish_notified_at = self._global_step
            self._callbacks.on_finish(self, result)
        return result

    # -- results ------------------------------------------------------------------

    def result(self) -> FastFTResult:
        """Build the result for the search so far.

        The pseudo-best candidate (a plan whose score came from φ, never
        measured for real) is validated with one downstream call, exactly as
        the blocking engine did; the validation is memoized so repeated
        ``result()`` calls do not re-evaluate.
        """
        self._require_started()
        self._reconcile()
        best_score, best_plan = self._best_real_score, self._best_real_plan
        if self._best_pseudo_plan is not None and self._best_pseudo_score > self._best_real_score:
            if (
                self._pseudo_validation is not None
                and self._pseudo_validation[0] is self._best_pseudo_plan
            ):
                validated = self._pseudo_validation[1]
            else:
                t1 = time.perf_counter()
                validated = self._evaluate_matrix(self._best_pseudo_plan.apply(self._X))
                self._timers.evaluation += time.perf_counter() - t1
                self._pseudo_validation = (self._best_pseudo_plan, validated)
            if validated > best_score:
                best_score, best_plan = validated, self._best_pseudo_plan
        return FastFTResult(
            base_score=self._base_score,
            best_score=best_score,
            plan=best_plan,
            history=list(self._history),
            time=TimeBreakdown(
                self._timers.optimization, self._timers.estimation, self._timers.evaluation
            ),
            n_downstream_calls=self._n_eval_calls,
            config=self.config,
            task=self.task,
        )

    # -- checkpointing --------------------------------------------------------------

    def __getstate__(self) -> dict:
        if getattr(self, "_pending_evals", None):
            raise RuntimeError(
                "Cannot pickle a session with in-flight async evaluations; "
                "use checkpoint() (which reconciles first)"
            )
        state = dict(self.__dict__)
        # Callbacks can hold streams / open files; they are re-attached on
        # resume rather than serialized. The async oracle pool is a
        # per-process resource: a resumed session rebuilds it lazily, and
        # the tracer (open file handle + locks) likewise stays behind.
        state["_callbacks"] = None
        state["_async_oracle"] = None
        state["_tracer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._callbacks = CallbackList()
        if self.config.verbose:
            self._callbacks.append(VerboseLogger())
        # Checkpoints written by older builds: adopt their list of
        # embeddings, drop the flags that once chose the inner loop, and
        # resume the current episode on the arena path. Their FeatureSpace
        # has already adopted its columns into the arena; a space without
        # caches gets them built here, and since the caches only memoize
        # pure functions of the columns, the episode continues bit for bit.
        if isinstance(getattr(self, "_embedding_history", None), list):
            log = EmbeddingLog()
            for emb in self._embedding_history:
                log.append(emb)
            self._embedding_history = log
        for name in ("_use_arena", "_incremental_clustering"):
            self.__dict__.pop(name, None)
        space = getattr(self, "_space", None)
        if space is not None and getattr(self, "_state_cache", None) is None:
            self._attach_caches(space)
        # Checkpoints written before the async oracle: default the config
        # knobs and the (empty) deferred-evaluation state.
        for name, default in (
            ("oracle_mode", "serial"),
            ("reconcile_every_k", 4),
            ("oracle_workers", 2),
            ("oracle_timeout", None),
            ("oracle_retries", 1),
        ):
            if not hasattr(self.config, name):
                setattr(self.config, name, default)
        if "_async_mode" not in state:
            self._async_mode = self.config.oracle_mode == "async"
        if "_pending_evals" not in state:
            self._pending_evals = []
        self._async_oracle = None
        # Checkpoints written before repro.obs: default the tracer slot and
        # the phase-duration attributes the TracingCallback reads.
        if "_tracer" not in state:
            self._tracer = None
        for name in (
            "base_eval_seconds",
            "last_episode_setup_seconds",
            "last_reconcile_seconds",
            "last_retrain_seconds",
            "last_predictor_fit_seconds",
            "last_novelty_fit_seconds",
        ):
            if name not in state:
                setattr(self, name, 0.0)
        # A stop request (time budget, early stopping, user interrupt) is a
        # transient signal to *this* process; resuming a stopped checkpoint
        # means "continue the search", so the flag does not survive. The
        # finish notification marker is likewise per-process: freshly
        # attached callbacks deserve one on_finish of their own.
        self._stop_requested = False
        self._stop_reason = None
        self._finish_notified_at = None

    def checkpoint(self, path: str) -> None:
        """Serialize the complete session state (callbacks excluded).

        Valid at any point — before :meth:`start`, mid-episode, or when
        done. The checkpoint embeds the training data, every model/agent
        parameter, replay memories and all RNG streams, so
        :meth:`resume` continues the search deterministically. In async
        mode, checkpointing is itself a reconcile point: pending real
        scores land before the state is frozen (the oracle pool is a
        per-process resource and never serializes).
        """
        if self._started:
            self._reconcile()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "session": self,
        }
        # Atomic publish: a reader (or a resumed run after a crash at any
        # instruction of this method) sees either the previous checkpoint
        # or the complete new one, never a torn prefix.
        atomic_write_bytes(path, pickle.dumps(payload))

    @classmethod
    def resume(
        cls, path: str, callbacks: list[Callback] | None = None
    ) -> "SearchSession":
        """Restore a session saved by :meth:`checkpoint`.

        ``callbacks`` are attached fresh (checkpoints never carry them); a
        ``verbose`` config re-adds the standard :class:`VerboseLogger`.
        """
        with open(path, "rb") as fh:
            try:
                payload = pickle.load(fh)
            except Exception as exc:
                # A torn/corrupted pickle stream surfaces as any of
                # EOFError, UnpicklingError, ValueError, ImportError, ...
                # depending on where the damage lands; name the real
                # problem instead of leaking an opaque pickle traceback.
                raise CheckpointCorruptError(
                    f"{path!r} is not a readable FastFT checkpoint: the file "
                    f"is truncated or corrupt ({type(exc).__name__}: {exc}). "
                    "Checkpoints are written atomically, so this indicates "
                    "external damage — re-run from an earlier checkpoint or "
                    "start the search fresh."
                ) from exc
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path!r} is not a FastFT session checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"Unsupported checkpoint version {payload.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        session: SearchSession = payload["session"]
        for cb in callbacks or []:
            session.add_callback(cb)
        return session
