"""Set-up probe: a fresh interpreter imports the program and brings the
workload's entry point to the moment before its first step, then prints
``ready <input seconds> <tail seconds>`` and exits.

- search workloads: build the session and start it (components built,
  base score measured);
- sweep_pool: build the orchestrator and run a sweep of two seeds on the
  workload's pool, up to the first worker's relayed ``on_search_start``
  (manager, pool and worker start-up, the worker's session start). A
  worker-side time budget then stops each job after one step.

The parent times process start to ``ready`` and subtracts the reported
input-generation seconds (the benchmark's own work) and tail seconds
(from the set-up point to the print).
"""

from __future__ import annotations

import argparse
import time

from repro.core.callbacks import Callback


class FirstStart(Callback):
    """Records when the first worker's session-start event arrives."""

    at: float | None = None

    def on_search_start(self, session) -> None:
        if FirstStart.at is None:
            FirstStart.at = time.perf_counter()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro import api

    if args.workload == "sweep_pool":
        import sweep_workload as workload
    else:
        import search_workloads as workload
    t0 = time.perf_counter()
    data = workload.load(args.workload)
    input_s = time.perf_counter() - t0
    if args.workload == "sweep_pool":
        orchestrator = api.SearchOrchestrator(
            workload.N_JOBS, callbacks_factory=lambda label: [FirstStart()], time_budget=1e-9
        )
        orchestrator.sweep(data.X, data.y, data.task, seeds=workload.seed_set(args.seed, 0)[:2],
                           **workload.CONFIG)
        ready_at = FirstStart.at
    else:
        api.session(data.X, data.y, data.task,
                    **workload.search_config(args.workload, args.seed)).start()
        ready_at = time.perf_counter()
    print(f"ready {input_s!r} {time.perf_counter() - ready_at!r}", flush=True)


if __name__ == "__main__":
    main()
