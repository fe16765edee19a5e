"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``transform``    run FastFT on registry dataset(s) and print the discovered plan
``sweep``        the paper's multi-seed protocol (``--seeds``/``--n-jobs``)
``resume``       continue a search from a ``--checkpoint`` file
``export``       search a dataset and package the result as a pipeline artifact
``serve``        serve a pipeline artifact over HTTP (micro-batched inference)
``trace``        render a recorded ``--trace`` JSONL file as a profiling report
``experiments``  regenerate the paper's tables/figures (delegates to run_all)
``datasets``     list the 23 registered Table I datasets

``transform`` accepts several dataset names: they run as one batch
(``--n-jobs`` schedules them across worker processes), and ``sweep``
repeats one dataset across ``--seeds`` the same way — per-seed results are
bit-identical to serial runs.

``transform`` supports long-running searches: ``--checkpoint PATH`` writes a
resumable session snapshot every episode, ``--time-budget SECONDS`` stops
the search early, and ``--resume PATH`` (or the ``resume`` command) picks a
checkpointed search back up exactly where it left off.
"""

from __future__ import annotations

import argparse
import pickle
import sys


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import DATASET_SPECS

    print(f"{'name':20s} {'source':10s} {'task':14s} {'samples':>8s} {'features':>8s}")
    for spec in DATASET_SPECS.values():
        if args.task and spec.task != args.task:
            continue
        print(
            f"{spec.name:20s} {spec.source:10s} {spec.task:14s} "
            f"{spec.n_samples:8d} {spec.n_features:8d}"
        )
    return 0


def _session_callbacks(args: argparse.Namespace) -> list:
    from repro.core.callbacks import Checkpointer, TimeBudget

    callbacks = []
    if getattr(args, "time_budget", None) is not None:
        callbacks.append(TimeBudget(args.time_budget))
    if getattr(args, "checkpoint", None):
        callbacks.append(Checkpointer(args.checkpoint))
    if getattr(args, "trace", None):
        from repro.obs import TracingCallback

        callbacks.append(TracingCallback(path=args.trace))
    return callbacks


def _report_result(result, dataset=None, save_plan: str | None = None) -> None:
    if dataset is not None:
        print(
            f"dataset   : {dataset.name} "
            f"({dataset.n_samples}x{dataset.n_features}, {dataset.task})"
        )
    print(f"score     : {result.base_score:.4f} -> {result.best_score:.4f}")
    print(f"downstream: {result.n_downstream_calls} calls, "
          f"eval {result.time.evaluation:.1f}s / est {result.time.estimation:.1f}s / "
          f"opt {result.time.optimization:.1f}s")
    print("plan      :")
    for expr in result.expressions():
        print(f"  {expr}")
    if save_plan:
        # indent=2 + trailing newline so saved plans diff cleanly.
        with open(save_plan, "w") as fh:
            fh.write(result.plan.to_json(indent=2) + "\n")
        print(f"plan saved to {save_plan}")


def _search_config(args: argparse.Namespace):
    """Build a FastFTConfig from the shared search flags."""
    from repro.core import FastFTConfig

    cold_start = (
        args.cold_start_episodes
        if args.cold_start_episodes is not None
        else max(1, args.episodes // 4)
    )
    return FastFTConfig(
        episodes=args.episodes,
        steps_per_episode=args.steps,
        cold_start_episodes=cold_start,
        retrain_every_episodes=args.retrain_every,
        component_epochs=args.component_epochs,
        cv_splits=args.cv,
        rf_estimators=args.rf_estimators,
        oracle_mode=args.oracle_mode,
        reconcile_every_k=args.reconcile_every_k,
        oracle_workers=args.oracle_workers,
        oracle_timeout=args.oracle_timeout,
        seed=args.seed,
        verbose=args.verbose,
    )


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core import SearchSession
    from repro.data import load_dataset

    if args.resume:
        try:
            session = SearchSession.resume(args.resume, callbacks=_session_callbacks(args))
        except (OSError, ValueError, pickle.UnpicklingError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if session.done:
            print(f"checkpoint {args.resume} is already finished; printing its result")
        result = session.run()
        if session.stop_requested:
            print(f"stopped early: {session.stop_reason}")
        _report_result(result, save_plan=args.save_plan)
        return 0

    if not args.dataset:
        print("error: a dataset name is required unless --resume is given", file=sys.stderr)
        return 2
    if len(args.dataset) > 1:
        return _transform_batch(args)
    try:
        dataset = load_dataset(args.dataset[0], scale=args.scale, seed=args.seed)
        callbacks = _session_callbacks(args)
        config = _search_config(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = api.session(
        dataset.X,
        dataset.y,
        dataset.task,
        config=config,
        feature_names=dataset.feature_names,
        callbacks=callbacks,
    )
    result = session.run()
    if session.stop_requested:
        print(f"stopped early: {session.stop_reason}")
    _report_result(result, dataset=dataset, save_plan=args.save_plan)
    return 0


def _transform_batch(args: argparse.Namespace) -> int:
    """Several datasets = one batch; ``--n-jobs`` fans it across workers."""
    from repro import api
    from repro.data import load_dataset

    if args.checkpoint or args.save_plan:
        print(
            "error: --checkpoint/--save-plan apply to a single search; "
            "drop them when batching several datasets",
            file=sys.stderr,
        )
        return 2
    duplicates = {name for name in args.dataset if args.dataset.count(name) > 1}
    if duplicates:
        print(f"error: duplicate dataset names in batch: {sorted(duplicates)}",
              file=sys.stderr)
        return 2
    try:
        jobs = [
            load_dataset(name, scale=args.scale, seed=args.seed)
            for name in args.dataset
        ]
        config = _search_config(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Outside the try: a failure inside the search is a bug deserving its
    # traceback, not a terse usage error (same surface as single transform).
    results = api.run_batch(
        jobs,
        config=config,
        n_jobs=args.n_jobs,
        time_budget=args.time_budget,
    )
    width = max(len(name) for name in results)
    for name, result in results.items():
        print(
            f"{name:{width}s} : {result.base_score:.4f} -> {result.best_score:.4f} "
            f"({result.n_downstream_calls} downstream calls, "
            f"{result.plan.n_features} features)"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import api
    from repro.data import load_dataset

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        print(f"error: --seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    if not seeds:
        print("error: --seeds must name at least one seed", file=sys.stderr)
        return 2
    if len(set(seeds)) != len(seeds):
        print(f"error: --seeds must be unique, got {args.seeds!r}", file=sys.stderr)
        return 2
    try:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        config = _search_config(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.backend == "jobfile" and args.time_budget is not None:
        print(
            "error: --time-budget requires --backend pool (a wall-clock "
            "cutoff would break the jobfile backend's bit-identity contract)",
            file=sys.stderr,
        )
        return 2
    # Outside the try: an in-search failure keeps its traceback (the seeds
    # and flags were already validated above).
    sweep = api.sweep(
        dataset.X,
        dataset.y,
        dataset.task,
        seeds=seeds,
        n_jobs=args.n_jobs,
        config=config,
        feature_names=dataset.feature_names,
        time_budget=args.time_budget,
        backend=args.backend,
        sweep_dir=args.sweep_dir,
        lease_timeout=args.lease_timeout,
        max_retries=args.max_retries,
        allow_partial=args.allow_partial,
    )
    if sweep.is_partial:
        print(
            f"warning: partial sweep — seeds {sweep.failed_seeds} failed "
            "permanently (see the sweep dir's failed.json markers)",
            file=sys.stderr,
        )
    print(
        f"dataset   : {dataset.name} "
        f"({dataset.n_samples}x{dataset.n_features}, {dataset.task})"
    )
    print(sweep.summary())
    best = sweep.best
    print(f"best      : seed {sweep.best_seed} "
          f"({best.base_score:.4f} -> {best.best_score:.4f})")
    print("plan      :")
    for expr in best.expressions():
        print(f"  {expr}")
    if args.save_plan:
        with open(args.save_plan, "w") as fh:
            fh.write(best.plan.to_json(indent=2) + "\n")
        print(f"plan saved to {args.save_plan}")
    return 0


def _parse_seed_list(raw: str) -> list[int] | None:
    try:
        seeds = [int(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError:
        return None
    return seeds or None


def _cmd_jobs_init(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.jobs import SweepSpec, init_sweep

    seeds = _parse_seed_list(args.seeds)
    if seeds is None:
        print(f"error: --seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    try:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        config = _search_config(args)
        spec = SweepSpec(
            task=dataset.task,
            seeds=seeds,
            config=config,
            feature_names=dataset.feature_names,
            name=dataset.name,
            lease_timeout=args.lease_timeout,
            max_retries=args.max_retries,
            checkpoint_every=args.checkpoint_every,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    init_sweep(args.sweep_dir, dataset.X, dataset.y, spec)
    print(f"initialized sweep at {args.sweep_dir}: dataset {dataset.name}, "
          f"seeds {seeds}")
    print(f"run it with `repro jobs run {args.sweep_dir} --workers N` or "
          f"`repro jobs launch {args.sweep_dir}`")
    return 0


def _cmd_jobs_run(args: argparse.Namespace) -> int:
    from repro.jobs import JobFleetSupervisor

    try:
        supervisor = JobFleetSupervisor(
            args.sweep_dir,
            args.workers,
            max_retries=args.max_retries,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    states = supervisor.run(reset_failed=args.reset_failed)
    for seed in sorted(states):
        print(f"seed {seed}: {states[seed]}")
    failed = [s for s, st in states.items() if st != "done"]
    return 1 if failed else 0


def _cmd_jobs_worker(args: argparse.Namespace) -> int:
    from repro.jobs import WORKER_LEASED, run_job

    try:
        status = run_job(args.sweep_dir, args.seed)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"seed {args.seed}: {status}")
    return 3 if status == WORKER_LEASED else 0


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    from repro.jobs import JobDir, load_spec

    try:
        spec = load_spec(args.sweep_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts: dict[str, int] = {}
    for seed in spec.seeds:
        job = JobDir(args.sweep_dir, seed)
        state = job.state(spec.lease_timeout)
        counts[state] = counts.get(state, 0) + 1
        line = f"seed {seed}: {state}"
        if state in ("leased", "stale"):
            lease = job.read_lease() or {}
            line += f" (owner {lease.get('owner')}, age {job.lease_age():.1f}s)"
        elif state == "failed":
            failed = job.load_failed() or {}
            line += f" ({failed.get('last_error')})"
        print(line)
    print(", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    return 0 if counts.get("done", 0) == len(spec.seeds) else 1


def _cmd_jobs_gather(args: argparse.Namespace) -> int:
    from repro.jobs import SweepGatherError, gather

    try:
        sweep = gather(args.sweep_dir, allow_partial=args.allow_partial)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepGatherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sweep.is_partial:
        print(f"warning: partial sweep — seeds {sweep.failed_seeds} failed "
              "permanently", file=sys.stderr)
    print(sweep.summary())
    best = sweep.best
    print(f"best      : seed {sweep.best_seed} "
          f"({best.base_score:.4f} -> {best.best_score:.4f})")
    if args.save_plan:
        with open(args.save_plan, "w") as fh:
            fh.write(best.plan.to_json(indent=2) + "\n")
        print(f"plan saved to {args.save_plan}")
    return 0


def _cmd_jobs_launch(args: argparse.Namespace) -> int:
    from repro.jobs import write_launcher

    try:
        path = write_launcher(
            args.sweep_dir,
            args.kind,
            workers=args.workers,
            python=args.python,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"launcher written to {path}")
    if args.kind == "slurm":
        print(f"submit with: sbatch {path}")
    else:
        print(f"run with: sh {path}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.core import SearchSession

    try:
        session = SearchSession.resume(
            args.checkpoint_file, callbacks=_session_callbacks(args)
        )
    except (OSError, ValueError, pickle.UnpicklingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"resumed   : episode {session.episode}/{session.config.episodes}, "
        f"step {session.global_step}/{session.total_steps}, task {session.task}"
    )
    result = session.run()
    if session.stop_requested:
        print(f"stopped early: {session.stop_reason}")
    _report_result(result, save_plan=args.save_plan)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro import api
    from repro.data import load_dataset

    if (args.out is None) == (args.registry is None):
        print("error: pass exactly one of --out or --registry", file=sys.stderr)
        return 2
    if args.registry is not None and args.name is None:
        print("error: --registry requires --name", file=sys.stderr)
        return 2
    try:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        config = _search_config(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = api.search(
        dataset.X,
        dataset.y,
        dataset.task,
        config=config,
        feature_names=dataset.feature_names,
    )
    artifact, version = api.export(
        result,
        dataset.X,
        dataset.y,
        path=args.out,
        registry=args.registry,
        name=args.name,
        tag=args.tag,
        dataset=dataset.name,
    )
    print(f"score     : {result.base_score:.4f} -> {result.best_score:.4f}")
    print(f"features  : {artifact.plan.n_features} "
          f"(from {artifact.plan.n_input_columns} input columns)")
    print(f"hash      : {artifact.manifest['content_hash']}")
    if version is not None:
        tagged = f" (tag {args.tag!r})" if args.tag else ""
        print(f"published : {args.name} {version}{tagged} -> {args.registry}")
    else:
        print(f"saved     : {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import api

    if (args.artifact is None) == (args.registry is None):
        print("error: pass exactly one of --artifact or --registry", file=sys.stderr)
        return 2
    if args.registry is not None and args.name is None:
        print("error: --registry requires --name", file=sys.stderr)
        return 2
    if args.registry is None and (args.reload or args.shadow_tag):
        print("error: --reload/--shadow-tag require --registry", file=sys.stderr)
        return 2
    common = dict(
        host=args.host,
        port=args.port,
        max_wait_ms=args.max_wait_ms,
        max_batch_rows=args.max_batch_rows,
        max_requests=args.max_requests,
        access_log=args.access_log,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms,
    )
    try:
        if args.registry is not None:
            server = api.serve_from_registry(
                args.registry,
                args.name,
                version=args.version,
                tag=args.tag,
                reload=args.reload,
                shadow_tag=args.shadow_tag,
                **common,
            )
        else:
            server = api.serve(api.load_pipeline(args.artifact), **common)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = server.service.artifact
    summary = artifact.summary()
    print(f"serving   : {summary['task']} pipeline, {summary['n_features']} features "
          f"({'with' if summary['has_model'] else 'no'} model), "
          f"version {server.service.version}")
    print(f"listening : {server.url}  (POST /transform, POST /predict, "
          f"GET /healthz, GET /metrics"
          f"{', POST /admin/reload' if args.registry and args.reload else ''})")
    if args.max_queue is not None or args.deadline_ms is not None:
        print(f"admission : max_queue={args.max_queue} deadline_ms={args.deadline_ms}")
    if args.shadow_tag:
        print(f"shadow    : mirroring traffic to tag {args.shadow_tag!r} "
              f"({server.service.shadow.version})")
    if args.url_file:
        # Written once the socket is bound — lets scripts and tests find an
        # ephemeral --port 0 server without parsing stdout.
        with open(args.url_file, "w") as fh:
            fh.write(server.url + "\n")
    server.serve_forever()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace_report

    try:
        print(render_trace_report(args.trace_file), end="")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import EXPERIMENTS, run_experiments

    names = args.only if args.only else list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiments {unknown}; available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    run_experiments(names, profile_name=args.profile, out_dir=args.out, seed=args.seed)
    return 0


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a resumable session checkpoint here after every episode",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the search once this much wall time has elapsed",
    )
    parser.add_argument("--save-plan", default=None, help="write the plan JSON here")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured execution trace (JSONL) of the search; "
        "render it afterwards with `repro trace PATH`",
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    """Search-schedule flags shared by ``transform`` and ``export``."""
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument(
        "--cold-start-episodes",
        type=int,
        default=None,
        help="episodes of real-feedback cold start (default: episodes // 4, min 1)",
    )
    parser.add_argument(
        "--retrain-every",
        type=int,
        default=2,
        help="fine-tune the φ/ψ components every N episodes (default: %(default)s)",
    )
    parser.add_argument(
        "--component-epochs",
        type=int,
        default=4,
        help="training epochs per component (re)fit (default: %(default)s)",
    )
    parser.add_argument(
        "--rf-estimators",
        type=int,
        default=8,
        help="trees in the downstream random forest (default: %(default)s)",
    )
    parser.add_argument("--cv", type=int, default=3)
    parser.add_argument(
        "--oracle-mode",
        choices=["serial", "async"],
        default="serial",
        help="'async' defers triggered downstream evaluations to worker "
        "processes and keeps stepping on predictor estimates; a pinned "
        "reconcile schedule keeps the trajectory deterministic "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--reconcile-every-k",
        type=int,
        default=4,
        help="async mode: land pending real scores every K global steps "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--oracle-workers",
        type=int,
        default=2,
        help="async mode: evaluation worker processes (0 = inline reference "
        "arm, -1 = all cores; default: %(default)s)",
    )
    parser.add_argument(
        "--oracle-timeout",
        type=float,
        default=None,
        help="async mode: seconds before a hung evaluation is retried and "
        "then degraded to its predictor estimate (default: no timeout)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("datasets", help="list registered datasets")
    p_data.add_argument("--task", choices=["classification", "regression", "detection"])
    p_data.set_defaults(func=_cmd_datasets)

    p_tr = sub.add_parser("transform", help="run FastFT on registry dataset(s)")
    p_tr.add_argument(
        "dataset",
        nargs="*",
        default=[],
        help="registry dataset name(s); several names run as one batch "
        "(omit with --resume)",
    )
    _add_search_flags(p_tr)
    p_tr.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="worker processes when batching several datasets "
        "(1 = serial, -1 = all cores; default: %(default)s)",
    )
    p_tr.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="continue from a session checkpoint instead of starting fresh; "
        "the dataset argument and all search flags are ignored — the "
        "checkpoint carries its own config (see also the `resume` command)",
    )
    _add_session_flags(p_tr)
    p_tr.set_defaults(func=_cmd_transform)

    p_sw = sub.add_parser(
        "sweep",
        help="run the paper's multi-seed protocol on one dataset",
    )
    p_sw.add_argument("dataset", help="registry dataset name")
    _add_search_flags(p_sw)
    p_sw.add_argument(
        "--seeds",
        default="0,1,2",
        help="comma-separated search seeds, one session per seed "
        "(default: %(default)s; --seed still controls dataset sampling)",
    )
    p_sw.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = serial, -1 = all cores; "
        "per-seed results are bit-identical either way; default: %(default)s)",
    )
    p_sw.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-seed wall-clock budget, enforced inside each worker",
    )
    p_sw.add_argument("--save-plan", default=None,
                      help="write the best seed's plan JSON here")
    p_sw.add_argument(
        "--backend",
        choices=["pool", "jobfile"],
        default="pool",
        help="'pool' runs seeds in-process; 'jobfile' runs the crash-safe "
        "file-backed fleet (bit-identical results, survives worker crashes; "
        "default: %(default)s)",
    )
    p_sw.add_argument(
        "--sweep-dir",
        default=None,
        metavar="DIR",
        help="jobfile backend: persistent sweep directory (re-running over "
        "it resumes unfinished seeds from their checkpoints; default: a "
        "temp dir discarded after the gather)",
    )
    p_sw.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help="jobfile backend: seconds without a heartbeat before a job's "
        "lease is reclaimed (default: %(default)s)",
    )
    p_sw.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="jobfile backend: failed attempts before a seed is marked "
        "permanently failed (default: %(default)s)",
    )
    p_sw.add_argument(
        "--allow-partial",
        action="store_true",
        help="jobfile backend: return a partial result naming failed seeds "
        "instead of erroring when seeds exhaust their retries",
    )
    p_sw.set_defaults(func=_cmd_sweep)

    p_jobs = sub.add_parser(
        "jobs",
        help="crash-safe file-backed sweep fleet (init, run, gather, ...)",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    p_ji = jobs_sub.add_parser(
        "init", help="materialize a resumable sweep directory for a dataset"
    )
    p_ji.add_argument("sweep_dir", help="directory to create the sweep in")
    p_ji.add_argument("dataset", help="registry dataset name")
    _add_search_flags(p_ji)
    p_ji.add_argument("--seeds", default="0,1,2",
                      help="comma-separated search seeds (default: %(default)s)")
    p_ji.add_argument("--lease-timeout", type=float, default=30.0,
                      help="seconds without a heartbeat before a lease is "
                      "reclaimed (default: %(default)s)")
    p_ji.add_argument("--max-retries", type=int, default=2,
                      help="failed attempts before a seed is marked permanently "
                      "failed (default: %(default)s)")
    p_ji.add_argument("--checkpoint-every", type=int, default=1,
                      help="checkpoint each job every N episodes (default: %(default)s)")
    p_ji.set_defaults(func=_cmd_jobs_init)

    p_jr = jobs_sub.add_parser(
        "run", help="supervise local workers until every job is done or failed"
    )
    p_jr.add_argument("sweep_dir", help="initialized sweep directory")
    p_jr.add_argument("--workers", type=int, default=1,
                      help="concurrent worker processes (-1 = all cores; "
                      "default: %(default)s)")
    p_jr.add_argument("--max-retries", type=int, default=None,
                      help="override the spec's retry budget")
    p_jr.add_argument("--reset-failed", action="store_true",
                      help="clear permanent-failure markers first, giving "
                      "failed seeds a fresh retry budget")
    p_jr.set_defaults(func=_cmd_jobs_run)

    p_jw = jobs_sub.add_parser(
        "worker",
        help="run exactly one seed (the scheduler array-task entry point); "
        "exits 0 done, 3 lease held elsewhere, 1 failure",
    )
    p_jw.add_argument("sweep_dir", help="initialized sweep directory")
    p_jw.add_argument("--seed", type=int, required=True, help="seed to run")
    p_jw.set_defaults(func=_cmd_jobs_worker)

    p_js = jobs_sub.add_parser("status", help="print per-seed job states")
    p_js.add_argument("sweep_dir", help="initialized sweep directory")
    p_js.set_defaults(func=_cmd_jobs_status)

    p_jg = jobs_sub.add_parser(
        "gather", help="assemble the SweepResult from completed jobs"
    )
    p_jg.add_argument("sweep_dir", help="initialized sweep directory")
    p_jg.add_argument("--allow-partial", action="store_true",
                      help="tolerate permanently failed seeds (partial result)")
    p_jg.add_argument("--save-plan", default=None,
                      help="write the best seed's plan JSON here")
    p_jg.set_defaults(func=_cmd_jobs_gather)

    p_jl = jobs_sub.add_parser(
        "launch", help="write a scheduler job-array script for the sweep"
    )
    p_jl.add_argument("sweep_dir", help="initialized sweep directory")
    p_jl.add_argument("--kind", choices=["slurm", "shell"], default="slurm",
                      help="script flavor (default: %(default)s)")
    p_jl.add_argument("--workers", type=int, default=4,
                      help="shell kind: concurrent workers (default: %(default)s)")
    p_jl.add_argument("--python", default="python",
                      help="python executable the script should invoke "
                      "(default: %(default)s)")
    p_jl.set_defaults(func=_cmd_jobs_launch)

    p_ex = sub.add_parser(
        "export",
        help="search a dataset, fit the downstream model, save a servable artifact",
    )
    p_ex.add_argument("dataset", help="registry dataset name")
    _add_search_flags(p_ex)
    p_ex.add_argument("--out", default=None, metavar="DIR",
                      help="write the artifact directory here")
    p_ex.add_argument("--registry", default=None, metavar="ROOT",
                      help="publish into this artifact registry instead of --out")
    p_ex.add_argument("--name", default=None,
                      help="artifact name within the registry")
    p_ex.add_argument("--tag", default=None,
                      help="promote the published version to this tag (e.g. prod)")
    p_ex.set_defaults(func=_cmd_export)

    p_srv = sub.add_parser("serve", help="serve a pipeline artifact over HTTP")
    p_srv.add_argument("--artifact", default=None, metavar="DIR",
                       help="artifact directory written by export/--out")
    p_srv.add_argument("--registry", default=None, metavar="ROOT",
                       help="load from this artifact registry instead of --artifact")
    p_srv.add_argument("--name", default=None, help="artifact name within the registry")
    p_srv.add_argument("--version", default=None, help="registry version (default: latest)")
    p_srv.add_argument("--tag", default=None, help="resolve the version via this tag")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8000,
                       help="listen port (0 = ephemeral; default: %(default)s)")
    p_srv.add_argument("--max-wait-ms", type=float, default=0.0,
                       help="longest a batch's first request waits for followers; "
                       "0 batches continuously: an idle server runs a request at "
                       "once and coalesces only requests that queue while a batch "
                       "runs (default: %(default)s)")
    p_srv.add_argument("--max-batch-rows", type=int, default=4096,
                       help="row cap per coalesced batch (default: %(default)s)")
    p_srv.add_argument("--max-requests", type=int, default=None,
                       help="shut down after serving this many requests")
    p_srv.add_argument("--max-queue", type=int, default=None,
                       help="bound the admission queue; overflow is shed with "
                       "HTTP 429 + Retry-After (default: unbounded)")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline; expired requests answer "
                       "HTTP 504 (clients override with X-Deadline-Ms)")
    p_srv.add_argument("--reload", action="store_true",
                       help="enable POST /admin/reload: re-resolve --tag (or latest) "
                       "in the registry and hot-swap with zero downtime")
    p_srv.add_argument("--shadow-tag", default=None, metavar="TAG",
                       help="mirror traffic onto this registry tag's artifact and "
                       "count output divergences (serves the primary)")
    p_srv.add_argument("--access-log", action="store_true",
                       help="log every HTTP request to stderr (off by default)")
    p_srv.add_argument("--url-file", default=None, metavar="PATH",
                       help="write the bound server URL here once listening")
    p_srv.set_defaults(func=_cmd_serve)

    p_trc = sub.add_parser(
        "trace",
        help="render recorded trace file(s) as a profiling report",
    )
    p_trc.add_argument(
        "trace_file",
        nargs="+",
        help="trace JSONL file(s) written by --trace; several files "
        "(e.g. sweep workers) report side-by-side with merged metrics",
    )
    p_trc.set_defaults(func=_cmd_trace)

    p_re = sub.add_parser("resume", help="continue a checkpointed search")
    p_re.add_argument("checkpoint_file", help="checkpoint written by --checkpoint")
    _add_session_flags(p_re)
    p_re.set_defaults(func=_cmd_resume)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("--profile", choices=["smoke", "default", "full"], default="smoke")
    p_exp.add_argument("--out", default="reports")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--only", nargs="*", default=None)
    p_exp.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
