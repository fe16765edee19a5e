"""Serving front-end under open-loop load: saturation, shedding, hot swap.

Three phases against the threaded :class:`InferenceServer`, each on a
fresh server so its PR 8 histograms cover exactly that phase:

1. **Saturation probe.** A burst of concurrent ``/predict`` requests (every
   arrival at t=0 — open-loop in the limit) measures rows/sec at
   saturation; p50/p99 request latency come from the server's own
   ``serve_request_seconds`` histogram via ``GET /healthz`` — the
   benchmark does not re-instrument.
2. **Overload + load shedding.** A model with a fixed per-batch cost makes
   capacity machine-independent (50 batches/sec); traffic is offered
   open-loop at 3x that with a 16-deep admission queue. The server must
   shed the excess with 429 + ``Retry-After`` (counted in ``/metrics``)
   while the latency of *admitted* requests stays bounded by the queue,
   instead of growing with the backlog.
3. **Hot swap under fire.** Sustained open-loop traffic against a
   registry-backed server while a new version is published, promoted and
   ``POST /admin/reload``-ed mid-stream. Zero dropped requests, and every
   response's predictions must match its reported ``artifact_version`` —
   versions never mix inside one response.

The report is saved (with the run-metadata header) before any floor is
asserted, so CI uploads it even when an assertion fails.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time

import numpy as np
import pytest

from repro import api
from repro.core.sequence import FeatureNode, TransformationPlan
from repro.serve import ArtifactRegistry, InferenceServer, PipelineArtifact


def _wide_plan(n_inputs: int = 6, width: int = 12) -> TransformationPlan:
    """A compact wide plan: real vectorized compute, no search needed."""
    nodes: dict[int, FeatureNode] = {
        j: FeatureNode(j, None, (), j) for j in range(n_inputs)
    }
    fid = n_inputs
    live: list[int] = []

    def emit(op: str, children: tuple[int, ...]) -> int:
        nonlocal fid
        nodes[fid] = FeatureNode(fid, op, children)
        fid += 1
        return fid - 1

    binary_pool = ("divide", "add", "subtract", "multiply")
    unary_pool = ("square", "sqrt", "log", "tanh", "sigmoid")
    for w in range(width):
        stem = emit("add", (0, 1))
        stem = emit("log", (stem,))
        stem = emit("multiply", (stem, 2))
        head = emit(binary_pool[w % 4], (stem, 3 + w % (n_inputs - 3)))
        live.append(emit(unary_pool[w % 5], (head,)))
    return TransformationPlan(
        nodes=nodes,
        live_ids=live,
        n_input_columns=n_inputs,
        feature_names=[f"f{j + 1}" for j in range(n_inputs)],
    )


class ConstModel:
    """Predicts a constant — the value identifies the artifact version."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def predict(self, features) -> np.ndarray:
        return np.full(len(features), self.value)


class ThrottleModel:
    """Fixed per-batch cost: overload capacity independent of the machine."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def predict(self, features) -> np.ndarray:
        time.sleep(self.delay_s)
        return np.zeros(len(features))


# -- open-loop HTTP client ------------------------------------------------------


async def _request(host, port, method, path, body=b"", timeout=30.0):
    """One request on its own connection; returns (status, headers, body)."""

    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Connection: close\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
        head_blob, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head_blob.split(b" ", 2)[1])
        return status, head_blob.decode("latin-1"), payload

    try:
        return await asyncio.wait_for(go(), timeout=timeout)
    except Exception as exc:
        return None, type(exc).__name__, b""


async def _open_loop(host, port, path, body, rate_hz, count):
    """Fire ``count`` requests at fixed arrival times, completions ignored
    (open-loop: offered load does not slow down when the server does)."""
    interval = 0.0 if rate_hz is None else 1.0 / rate_hz

    async def fire(delay):
        await asyncio.sleep(delay)
        return await _request(host, port, "POST", path, body)

    tasks = [asyncio.create_task(fire(i * interval)) for i in range(count)]
    return await asyncio.gather(*tasks)


def _predict_payload(rng, n_rows, n_cols) -> bytes:
    rows = rng.normal(size=(n_rows, n_cols)).tolist()
    return json.dumps({"rows": rows}).encode()


def _metric_value(metrics_text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} ([0-9.e+-]+)$", metrics_text, re.M)
    return float(match.group(1)) if match else 0.0


# -- phases ---------------------------------------------------------------------


def _phase_saturation(plan, rng, profile) -> dict:
    n_requests = 24 if profile.name == "smoke" else 64
    rows_per_request = 2048
    artifact = PipelineArtifact(plan, "classification", model=ConstModel(0.0))
    body = _predict_payload(rng, rows_per_request, plan.n_input_columns)
    with InferenceServer(artifact, port=0, max_wait_ms=1.0) as server:
        host, port = server.address
        start = time.perf_counter()
        results = asyncio.run(
            _open_loop(host, port, "/predict", body, rate_hz=None, count=n_requests)
        )
        wall = time.perf_counter() - start
        health = json.loads(
            asyncio.run(_request(host, port, "GET", "/healthz"))[2]
        )
    batcher = health["batcher"]
    statuses = [status for status, _, _ in results]
    return {
        "requests": n_requests,
        "rows_per_request": rows_per_request,
        "ok": sum(1 for s in statuses if s == 200),
        "errors": sum(1 for s in statuses if s != 200),
        "wall_s": wall,
        "rows_per_sec": batcher["rows"] / wall,
        "p50_s": batcher["request_latency_p50"],
        "p99_s": batcher["request_latency_p99"],
        "batches": batcher["batches"],
        "batch_requests_p50": batcher["batch_requests_p50"],
    }


def _phase_overload(plan, rng, profile) -> dict:
    batch_delay_s = 0.02  # capacity: 50 batches/sec, one request per batch
    rows_per_request = 256
    max_queue = 16
    offered_hz = 150.0  # 3x capacity
    duration_s = 1.2 if profile.name == "smoke" else 3.0
    count = int(offered_hz * duration_s)
    artifact = PipelineArtifact(
        plan, "classification", model=ThrottleModel(batch_delay_s)
    )
    body = _predict_payload(rng, rows_per_request, plan.n_input_columns)
    server = InferenceServer(
        artifact,
        port=0,
        max_wait_ms=0.0,
        max_batch_rows=rows_per_request,  # one request per batch
        max_queue=max_queue,
    )
    with server:
        host, port = server.address
        results = asyncio.run(
            _open_loop(host, port, "/predict", body, rate_hz=offered_hz, count=count)
        )
        metrics = asyncio.run(_request(host, port, "GET", "/metrics"))[2].decode()
        health = json.loads(asyncio.run(_request(host, port, "GET", "/healthz"))[2])
    statuses = [status for status, _, _ in results]
    retry_after = None
    for status, head, _ in results:
        if status == 429:
            match = re.search(r"^Retry-After: (\d+)$", head, re.M)
            retry_after = int(match.group(1)) if match else None
            break
    return {
        "offered_hz": offered_hz,
        "capacity_hz": 1.0 / batch_delay_s,
        "count": count,
        "max_queue": max_queue,
        "ok": sum(1 for s in statuses if s == 200),
        "shed_429": sum(1 for s in statuses if s == 429),
        "errors": sum(1 for s in statuses if s not in (200, 429)),
        "retry_after": retry_after,
        "shed_metric": _metric_value(metrics, "serve_requests_shed_total"),
        "p99_s": health["batcher"]["request_latency_p99"],
    }


def _phase_hot_swap(plan, rng, profile, tmp_path) -> dict:
    offered_hz = 80.0
    duration_s = 1.2 if profile.name == "smoke" else 3.0
    count = int(offered_hz * duration_s)
    rows_per_request = 64
    registry = ArtifactRegistry(tmp_path / "registry")
    registry.publish(
        PipelineArtifact(plan, "classification", model=ConstModel(0.0)),
        "bench", tag="prod",
    )
    body = _predict_payload(rng, rows_per_request, plan.n_input_columns)
    server = api.serve_from_registry(
        registry, "bench", tag="prod", reload=True, port=0, max_wait_ms=1.0
    )
    swap_info: dict = {}

    async def drive(host, port):
        async def swap():
            await asyncio.sleep(duration_s * 0.4)
            loop = asyncio.get_running_loop()

            def publish():
                registry.publish(
                    PipelineArtifact(plan, "classification", model=ConstModel(1.0)),
                    "bench", tag="prod",
                )

            await loop.run_in_executor(None, publish)
            status, _, payload = await _request(
                host, port, "POST", "/admin/reload", b"{}"
            )
            swap_info["status"] = status
            swap_info["response"] = json.loads(payload) if status == 200 else None

        results, _ = await asyncio.gather(
            _open_loop(host, port, "/predict", body, rate_hz=offered_hz, count=count),
            swap(),
        )
        return results

    with server:
        host, port = server.address
        results = asyncio.run(drive(host, port))

    ok = mixed = mislabeled = 0
    errors: list = []
    versions_seen: set = set()
    expected = {0.0: "v0001", 1.0: "v0002"}
    for status, head, payload in results:
        if status != 200:
            errors.append((status, head))
            continue
        ok += 1
        out = json.loads(payload)
        values = set(out["predictions"])
        if len(values) != 1:
            mixed += 1
            continue
        version = out["artifact_version"]
        versions_seen.add(version)
        if expected[values.pop()] != version:
            mislabeled += 1
    return {
        "offered_hz": offered_hz,
        "count": count,
        "ok": ok,
        "errors": errors[:3],
        "n_errors": len(errors),
        "mixed": mixed,
        "mislabeled": mislabeled,
        "versions_seen": sorted(versions_seen),
        "swap": swap_info,
    }


@pytest.mark.serial
def test_serve_load(profile, save_report, tmp_path):
    plan = _wide_plan()
    rng = np.random.default_rng(7)

    sat = _phase_saturation(plan, rng, profile)
    over = _phase_overload(plan, rng, profile)
    swap = _phase_hot_swap(plan, rng, profile, tmp_path)

    lines = [
        "Serve load — open-loop traffic against the threaded HTTP front end",
        f"plan: {plan.n_features} live features over {plan.n_input_columns} inputs; "
        f"profile: {profile.name}",
        "latency quantiles read from the server's serve_request_seconds histogram",
        "",
        "[saturation] burst of concurrent /predict requests",
        f"  requests   : {sat['requests']} x {sat['rows_per_request']} rows "
        f"({sat['ok']} ok, {sat['errors']} errors) in {sat['wall_s']:.3f}s",
        f"  rows/sec   : {sat['rows_per_sec']:,.0f} at saturation "
        f"({sat['batches']} batches, p50 {sat['batch_requests_p50']:.0f} req/batch)",
        f"  latency    : p50 {sat['p50_s'] * 1e3:.1f} ms   p99 {sat['p99_s'] * 1e3:.1f} ms",
        "",
        "[overload] 3x capacity offered open-loop, bounded queue sheds",
        f"  offered    : {over['offered_hz']:.0f} req/s vs capacity "
        f"{over['capacity_hz']:.0f} req/s (fixed 20 ms/batch model), "
        f"max_queue={over['max_queue']}",
        f"  outcome    : {over['ok']} served, {over['shed_429']} shed with 429 "
        f"(Retry-After: {over['retry_after']}), {over['errors']} errors",
        f"  shed metric: serve_requests_shed_total={over['shed_metric']:.0f}",
        f"  latency    : admitted p99 {over['p99_s']:.3f}s "
        f"(bounded by the queue, not the backlog)",
        "",
        "[hot swap] publish+promote+reload mid-traffic (registry tag 'prod')",
        f"  requests   : {swap['count']} offered at {swap['offered_hz']:.0f} req/s -> "
        f"{swap['ok']} ok, {swap['n_errors']} dropped",
        f"  swap       : /admin/reload -> {swap['swap'].get('response')}",
        f"  versions   : {swap['versions_seen']} "
        f"(mixed-version responses: {swap['mixed']}, mislabeled: {swap['mislabeled']})",
    ]
    save_report("serve_load", "\n".join(lines))

    # Saturation: every burst request answered, histograms populated.
    assert sat["errors"] == 0
    assert sat["rows_per_sec"] > 0
    assert 0 < sat["p50_s"] <= sat["p99_s"]

    # Overload: the shed path engaged (client 429s match the server
    # counter) and admitted-request latency stayed queue-bounded instead
    # of growing with the backlog.
    assert over["shed_429"] > 0
    assert over["shed_metric"] == over["shed_429"]
    assert over["errors"] == 0
    assert over["retry_after"] is not None and over["retry_after"] >= 1
    assert over["p99_s"] < 2.5, f"latency collapsed under overload: {over['p99_s']:.2f}s"

    # Hot swap: zero dropped requests, versions never mixed or mislabeled,
    # and both versions actually served traffic.
    assert swap["n_errors"] == 0, f"dropped requests during swap: {swap['errors']}"
    assert swap["swap"].get("status") == 200
    assert swap["swap"]["response"]["swapped"] is True
    assert swap["mixed"] == 0 and swap["mislabeled"] == 0
    assert swap["versions_seen"] == ["v0001", "v0002"]
