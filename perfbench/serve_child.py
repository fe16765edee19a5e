"""Server process of the ``serve_mixed`` workload.

Loads a saved ``PipelineArtifact``, compiles its plan, binds an
``InferenceServer`` on an ephemeral port and starts it, then prints
``ready <port>``. It serves until its standard input closes, stops the
server and exits. With ``--trace PATH`` the calls into the serving layers
are timed and written to ``PATH`` (JSON totals) and ``PATH.jsonl`` (a
``repro.obs`` trace) on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro import api

from layers import LayerTrace


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    layer = LayerTrace() if args.trace else None
    with layer if layer is not None else contextlib.nullcontext():
        artifact = api.load_pipeline(args.artifact)
        artifact.compiled  # noqa: B018 - plan compile is part of set-up
        server = api.serve(artifact, port=0).start()
        t0 = time.perf_counter()
        print(f"ready {server.address[1]}", flush=True)
        try:
            sys.stdin.read()
        finally:
            server.stop()
        elapsed = time.perf_counter() - t0
    if layer is not None:
        with open(args.trace, "w") as fh:
            json.dump({name: dict(v) for name, v in layer.totals().items()}, fh)
        layer.write(args.trace + ".jsonl", "serve", t0, elapsed, {"workload": "serve_mixed"})


if __name__ == "__main__":
    main()
