"""The repository benchmark: one command, three workloads, end-to-end and
per-layer metrics, correctness checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_explore --seed 1 --seconds 32 --trace 0

Workloads (``BENCHMARK.json`` says why each exists, ``perfbench/spec.json``
what it runs and which layers it loads):

- ``search_explore`` async-oracle ``api.search``, time in the inner loop;
- ``sweep_pool``     ``api.sweep`` over 4 seeds on a 2-process pool;
- ``serve_mixed``    open-loop HTTP ``/predict`` traffic to an
  ``InferenceServer`` in its own process.

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` adds a traced repetition that times the
calls into each layer's public functions and reports the per-layer
metrics (and writes a ``repro.obs`` trace file under ``.perfbench/``).

The last line of standard output is the result::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

The line before it carries the run metadata (git sha, nproc, python and
numpy versions, the workload seed and the ``repro.obs.runmeta`` header)
and the workload's diagnostics. Inputs are generated from ``--seed``; all
files the benchmark writes stay under ``.perfbench/`` in the checkout.
The program is imported from ``src/`` of the checkout: without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Metric names, units and workloads come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    tmp = work / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # Temporary files of the program (multiprocessing manager sockets,
    # artifact directories) stay inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))

    import common

    if args.workload == "sweep_pool":
        import sweep_workload as module
    elif args.workload == "serve_mixed":
        import serve_workload as module
    else:
        import search_workloads as module
    trace = bool(args.trace)
    try:
        outcome = module.run(args.workload, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    if trace:
        # A layer the workload never loads reads 0.
        outcome.per_layer = {
            m["name"]: outcome.per_layer.get(m["name"], 0.0) for m in SPEC["per_layer"]
        }
    meta = common.run_metadata(args.workload, args.seed, trace)
    print(json.dumps({"meta": meta, "checks": outcome.checks, "notes": outcome.notes},
                     default=repr))
    print(json.dumps(outcome.report(trace, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
