"""Domain scenario 5 — the multi-seed protocol, serial and parallel.

Paper-style results are never single-seed numbers: Table I reports each
method as mean ± std over repeated seeded runs. This script shows the
sweep workflow end to end:

1. *Sweep*: ``api.sweep`` runs one seeded search per seed and returns a
   ``SweepResult`` — per-seed results, mean/std, and the best seed picked
   deterministically (score, ties broken in seed order).
2. *Parallelism*: the same call with ``n_jobs>1`` fans seeds across worker
   processes. Results are bit-identical to the serial sweep — the script
   proves it by comparing plan JSON and scores seed by seed.
3. *Oracle cache*: each pooled seed runs on its own evaluation cache,
   seeded from the ``EvaluationCache`` you pass, and the entries it adds
   merge back into yours; a repeat sweep answers entirely from cache.
4. *Observability*: ``callbacks_factory`` attaches parent-side observers
   per seed; worker events arrive over a queue, so a ``HistoryCollector``
   works exactly as it does for an in-process session.

Run:  python examples/multi_seed_sweep.py
"""

from __future__ import annotations

import os
import time

from repro import api
from repro.core import FastFTConfig, HistoryCollector
from repro.data import load_dataset


def main() -> None:
    dataset = load_dataset("wine_quality_red", scale=0.15, seed=0)
    print(f"Dataset: {dataset.name} ({dataset.n_samples}x{dataset.n_features}, {dataset.task})")

    config = FastFTConfig(
        episodes=4,
        steps_per_episode=3,
        cold_start_episodes=1,
        retrain_every_episodes=2,
        component_epochs=3,
        cv_splits=3,
        rf_estimators=6,
    )
    seeds = [0, 1, 2, 3]

    # 1. The serial protocol: one seeded search per seed.
    start = time.perf_counter()
    serial = api.sweep(
        dataset.X, dataset.y, dataset.task,
        seeds=seeds, n_jobs=1, config=config,
        feature_names=dataset.feature_names,
    )
    serial_t = time.perf_counter() - start
    print(f"\nserial sweep ({serial_t:.1f}s):")
    print(serial.summary())

    # 2. The same sweep across a process pool. On a multi-core box this is
    #    the wall-clock win; on any box it is the same numbers.
    n_jobs = min(4, os.cpu_count() or 1)
    collectors: dict[str, HistoryCollector] = {}

    def factory(label: str) -> list:
        collectors[label] = HistoryCollector()  # 4. parent-side observer
        return [collectors[label]]

    cache = api.EvaluationCache()  # 3. receives every seed's new entries
    start = time.perf_counter()
    parallel = api.sweep(
        dataset.X, dataset.y, dataset.task,
        seeds=seeds, n_jobs=n_jobs, config=config,
        feature_names=dataset.feature_names,
        callbacks_factory=factory, cache=cache,
    )
    parallel_t = time.perf_counter() - start

    identical = all(
        parallel[s].plan.to_json() == serial[s].plan.to_json()
        and repr(parallel[s].best_score) == repr(serial[s].best_score)
        for s in seeds
    )
    print(f"\nparallel sweep ({parallel_t:.1f}s, {n_jobs} workers):")
    print(f"  bit-identical to serial: {identical}")
    print(f"  merged cache entries   : {len(cache)}")
    for label in sorted(collectors):
        c = collectors[label]
        print(f"  {label}: {len(c.records)} steps relayed, "
              f"{c.n_real_evaluations} real evaluations observed")

    # The best seed's plan, exactly as a single search would report it.
    best = parallel.best
    print(f"\nbest seed {parallel.best_seed}: "
          f"{best.base_score:.4f} -> {best.best_score:.4f}")
    for expr in best.expressions()[: dataset.n_features + 3]:
        print(f"  {expr}")

    # A repeat sweep seeded from the merged cache pays zero oracle calls.
    rerun = api.sweep(
        dataset.X, dataset.y, dataset.task,
        seeds=seeds, n_jobs=1, config=config,
        feature_names=dataset.feature_names, cache=cache,
    )
    print(f"\nrerun from cache: {rerun.n_downstream_calls} downstream calls "
          f"({cache.hits} hits / {cache.misses} misses)")


if __name__ == "__main__":
    main()
