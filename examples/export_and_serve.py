"""Domain scenario 5 — from search to serving: export, registry, inference.

A FastFT search is paid once; its product should serve traffic forever.
This script walks the full serving path:

1. *Search & export*: run a search, fit the downstream model on the
   transformed training data, and package both as a
   ``PipelineArtifact`` with a content-hashed provenance manifest.
2. *Registry*: publish two versions into an ``ArtifactRegistry``, promote
   one to the ``prod`` tag, and resolve through the tag.
3. *Compiled plans*: the artifact caches the CSE-deduplicated, vectorized
   program that ``TransformationPlan.apply`` compiles and runs, and the
   copy loaded back from the registry reproduces the search result's
   features byte for byte.
4. *Serving*: a micro-batching ``InferenceServer`` answers JSON
   ``/predict`` requests over a real socket.

Run:  python examples/export_and_serve.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request

import numpy as np

from repro import api
from repro.data import load_dataset


def main() -> None:
    ds = load_dataset("pima_indian", scale=0.3, seed=0)
    result = api.search(
        ds.X, ds.y, ds.task, episodes=4, steps_per_episode=3,
        cold_start_episodes=1, seed=0, feature_names=ds.feature_names,
    )
    print(f"search    : {result.base_score:.4f} -> {result.best_score:.4f}")

    with tempfile.TemporaryDirectory() as root:
        # -- export two versions, promote the second to prod ------------------
        artifact, v1 = api.export(
            result, ds.X, ds.y, registry=root, name="pima"
        )
        _, v2 = api.export(
            result, ds.X, ds.y, registry=root, name="pima", tag="prod"
        )
        print(f"published : {v1} and {v2}; tag prod -> {v2}")
        print(f"hash      : {artifact.manifest['content_hash'][:16]}…")

        # -- the loaded program reproduces the search result's features -------
        served = api.load_pipeline(registry=root, name="pima", tag="prod")
        compiled = served.compiled
        assert np.array_equal(served.transform(ds.X), result.plan.apply(ds.X))
        print(
            f"compiled  : {compiled.n_nodes} nodes -> "
            f"{len(compiled.instructions)} instructions "
            f"(CSE merged {compiled.n_merged})"
        )

        # -- serve over a real socket ----------------------------------------
        with api.serve(served, port=0) as server:
            rows = ds.X[:3].tolist()
            req = urllib.request.Request(
                server.url + "/predict",
                data=json.dumps({"rows": rows}).encode(),
                headers={"Content-Type": "application/json"},
            )
            body = json.loads(urllib.request.urlopen(req, timeout=10).read())
            print(f"served    : {server.url}/predict -> {body['predictions']}")
            health = json.loads(
                urllib.request.urlopen(server.url + "/healthz", timeout=10).read()
            )
            print(f"health    : {health['status']}, batcher {health['batcher']}")


if __name__ == "__main__":
    main()
