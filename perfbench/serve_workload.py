"""Serving workload: open-loop HTTP ``/predict`` traffic against an
``InferenceServer`` running in its own process.

The served ``PipelineArtifact`` has a shared-stem plan (every output
feature reuses one derived stem, which the plan compiler deduplicates)
and a 50-tree random forest fitted on the transformed training rows. No search
or oracle code runs.

The load generator is one thread with two keep-alive connections. It
sends on a seeded Poisson schedule whatever the server does (requests
queue on a connection when both are busy), and times each request from
when it was due. About 90% of requests carry one row and 10% carry 256.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.sequence import FeatureNode, TransformationPlan
from repro.data.registry import load_dataset
from repro.ml.evaluation import default_model_for_task
from repro.ml.metrics import f1_score
from repro.serve.artifact import PipelineArtifact

from common import (
    CHILD_TIMEOUT_S,
    ROOT,
    WORK,
    Outcome,
    ProbedUnits,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    sampled_probe,
)
from search_workloads import DATA_SEED

DATASET, SCALE, N_TRAIN = "cardiovascular", 0.4, 1500  # 2000 x 12, binary
BASE_RATE = 20.0  # requests/s of the latency phases
# A 50-tree forest (depth 8, as the paper's): with the 10-tree oracle
# forest a one-row request takes about 7 ms, most of it thread and
# process wake-ups, and its latency moved by 30% with the host's CPU
# steal. Model work makes up most of a request's time here.
N_TREES = 50
# Latency phases per run, each on a fresh server and followed by the
# sampled probe; latency_p50_rel averages the middle phases' p50s over
# their probes, so one phase disturbed by the host moves it little.
LATENCY_PHASES = 7
P99_SAMPLES = 1000  # p99 is reported over at least this many requests
LADDER = (50.0, 100.0, 200.0, 300.0, 400.0, 600.0)  # requests/s, fixed
RUNG_S = 2.5
LATENCY_LIMIT_MS = 100.0  # p99 limit of a ladder rung
LARGE_ROWS, LARGE_SHARE = 256, 0.10
N_CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0
# A run whose generator p99 lateness, over all its latency phases,
# exceeds this is invalid.
LATE_LIMIT_MS = 20.0
CHECK_EVERY = 10  # compare every tenth response with an in-process predict


# -- the served artifact ----------------------------------------------------------


def shared_stem_plan(n_inputs: int, width: int = 16) -> TransformationPlan:
    """``width`` output features, each a different operation applied to one
    shared stem ``log(x0 * x1)`` and an input column."""
    nodes = {j: FeatureNode(j, None, (), j) for j in range(n_inputs)}

    def add(op: str, *children: int) -> int:
        fid = len(nodes)
        nodes[fid] = FeatureNode(fid, op, children)
        return fid

    stem = add("log", add("multiply", 0, 1))
    binary = ("add", "subtract", "multiply", "divide")
    unary = ("tanh", "sigmoid", "square", "sqrt")
    live = [
        add(unary[w % 4], add(binary[w % 4], stem, 2 + w % (n_inputs - 2)))
        for w in range(width)
    ]
    return TransformationPlan(nodes, live + list(range(n_inputs)), n_inputs,
                              [f"f{j + 1}" for j in range(n_inputs)])


def build_artifact(path: Path):
    """The deployed pipeline is the same on every run; the workload seed
    drives the traffic (arrival times, request sizes, rows)."""
    data = load_dataset(DATASET, scale=SCALE, seed=DATA_SEED)
    plan = shared_stem_plan(data.n_features)
    model = default_model_for_task("classification", n_estimators=N_TREES, seed=0)
    model.fit(plan.apply(data.X[:N_TRAIN]), data.y[:N_TRAIN])
    PipelineArtifact(plan, "classification", model=model).save(path)
    return PipelineArtifact.load(path), data.X[N_TRAIN:], data.y[N_TRAIN:]


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """One fresh server child; ``setup_s`` is process start to listening."""

    def __init__(self, artifact_dir: Path, trace_path: Path | None = None) -> None:
        cmd = [sys.executable, "perfbench/serve_child.py", "--artifact", str(artifact_dir)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=str(ROOT), text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.address = ("127.0.0.1", int(line.split()[1]))

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- the open-loop client ----------------------------------------------------------


def make_schedule(rng, rate: float, count: int, n_pool: int):
    """Seeded Poisson arrivals: due offsets and the row indices of each."""
    dues = np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()
    sizes = np.where(rng.random(count) < LARGE_SHARE, LARGE_ROWS, 1)
    rows = [rng.choice(n_pool, size=size, replace=False) for size in sizes]
    return dues, rows


def encode(X: np.ndarray, rows) -> bytes:
    body = json.dumps({"rows": X[rows].tolist()}).encode()
    head = (f"POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    return head + body


class _Connection:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.waiting: deque[int] = deque()

    def responses(self):
        """Yield complete ``(status, body)`` responses from the input buffer."""
        while True:
            end = self.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(self.inbuf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(self.inbuf) < end + 4 + length:
                return
            body = bytes(self.inbuf[end + 4:end + 4 + length])
            del self.inbuf[:end + 4 + length]
            yield int(head[0].split()[1]), body


def open_loop(address, requests: list[bytes], dues: list[float]) -> dict:
    """Send each request at its due offset, whatever the server does.

    Returns per request: due and send times, completion time (None when
    it failed or timed out), status and response body.
    """
    n = len(requests)
    sent, done = [None] * n, [None] * n
    status, bodies = [None] * n, [None] * n
    conns = [_Connection(address) for _ in range(N_CONNECTIONS)]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    t0 = time.perf_counter() + 0.05
    nxt = finished = 0
    deadline = t0 + (dues[-1] if dues else 0.0) + REQUEST_TIMEOUT_S
    try:
        while finished < n and time.perf_counter() < deadline:
            now = time.perf_counter()
            while nxt < n and t0 + dues[nxt] <= now:
                c = min(conns, key=lambda conn: len(conn.waiting))
                c.out += requests[nxt]
                c.waiting.append(nxt)
                sent[nxt] = now
                nxt += 1
            for c in conns:
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if c.out else 0)
                sel.modify(c.sock, events, c)
            wait = t0 + dues[nxt] - now if nxt < n else 0.05
            for key, mask in sel.select(max(0.0, min(wait, 0.05))):
                c = key.data
                if mask & selectors.EVENT_WRITE and c.out:
                    c.out = c.out[c.sock.send(c.out):]
                if mask & selectors.EVENT_READ:
                    chunk = c.sock.recv(1 << 20)
                    if not chunk:
                        raise ConnectionError("server closed a keep-alive connection")
                    c.inbuf += chunk
                    at = time.perf_counter()
                    for code, body in c.responses():
                        i = c.waiting.popleft()
                        done[i], status[i], bodies[i] = at, code, body
                        finished += 1
    finally:
        sel.close()
        for c in conns:
            c.sock.close()
    return {"t0": t0, "dues": dues, "sent": sent, "done": done, "status": status,
            "bodies": bodies}


def fetch(address, path: str) -> bytes:
    with socket.create_connection(address, timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        raw = b""
        while chunk := sock.recv(1 << 20):
            raw += chunk
    return raw.partition(b"\r\n\r\n")[2]


def histogram_quantile(metrics_text: str, name: str, q: float) -> float:
    """Quantile of a histogram from the server's ``/metrics`` exposition,
    interpolated linearly inside its bucket."""
    buckets = []
    for line in metrics_text.splitlines():
        if line.startswith(name + "_bucket{"):
            le = line.split('le="')[1].split('"')[0]
            buckets.append((float("inf") if le == "+Inf" else float(le), float(line.split()[-1])))
    total = buckets[-1][1] if buckets else 0.0
    if not total:
        return 0.0
    rank, lo, below = q * total, 0.0, 0.0
    for hi, cumulative in buckets:
        if cumulative >= rank:
            if hi == float("inf"):
                return lo
            return lo + (hi - lo) * (rank - below) / max(cumulative - below, 1.0)
        lo, below = hi, cumulative
    return lo


# -- the workload ------------------------------------------------------------------


def phase(artifact_dir, X, rng, rate, count, trace_path=None):
    """One fresh server, one open-loop schedule of ``count`` requests.

    Returns the client record (with the requests' rows), the server's
    ``/metrics`` text and ``/healthz`` payload, and its set-up time.
    """
    dues, rows = make_schedule(rng, rate, count, len(X))
    requests = [encode(X, r) for r in rows]
    with ServerProcess(artifact_dir, trace_path) as server:
        record = open_loop(server.address, requests, dues)
        metrics = fetch(server.address, "/metrics").decode()
        health = json.loads(fetch(server.address, "/healthz"))
    record["rows"] = rows
    return record, (metrics, health), server.setup_s


def latencies(record) -> list[float]:
    """Milliseconds from due time to response, of the requests that succeeded."""
    t0 = record["t0"]
    return [1e3 * (done - (t0 + due))
            for done, due, status in zip(record["done"], record["dues"], record["status"])
            if status == 200]


def summarize(record) -> dict:
    t0 = record["t0"]
    latency = latencies(record)
    late = [1e3 * (s - (t0 + d)) for s, d in zip(record["sent"], record["dues"]) if s is not None]
    quarter = max(1, len(latency) // 4)
    return {
        "sent": len(record["dues"]),
        "succeeded": len(latency),
        "failed": len(record["dues"]) - len(latency),
        "latency_ms": latency,
        "p50_ms": percentile(latency, 50),
        "p99_ms": percentile(latency, 99),
        "late_ms": late,
        "late_p99_ms": percentile(late, 99),
        # A backlog that grows shows as later requests waiting longer.
        "backlog_grows": bool(latency)
        and median(latency[-quarter:]) > 2 * median(latency[:quarter]) + 5.0,
    }


def check_responses(out: Outcome, record, artifact, X, y) -> float:
    """Sampled responses equal an in-process ``artifact.predict`` on the same
    rows; returns the served predictions' weighted F1 against the labels."""
    truth, served = [], []
    for i, body in enumerate(record["bodies"]):
        if record["status"][i] != 200:
            continue
        payload = json.loads(body)
        predictions = np.asarray(payload["predictions"])
        if i % CHECK_EVERY == 0:
            expected = artifact.predict(X[record["rows"][i]])
            out.check("served_equals_in_process", np.array_equal(predictions, expected))
        truth.append(y[record["rows"][i]])
        served.append(predictions)
    return f1_score(np.concatenate(truth), np.concatenate(served))


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    artifact_dir = WORK / "tmp" / "artifact"
    artifact, X, y = build_artifact(artifact_dir)
    rng = np.random.default_rng(seed)
    setups = []

    # Latency at the base rate, in phases on fresh servers. The traced run
    # sends at least 1000 requests in all, so that p99 has ten samples
    # beyond it.
    budget = P99_SAMPLES / BASE_RATE if trace else seconds - 1.5 * LATENCY_PHASES
    count = max(60, int(BASE_RATE * budget / LATENCY_PHASES))
    phases, scores = [], []
    probed = ProbedUnits(sampled_probe)
    for _ in range(LATENCY_PHASES):
        record, (metrics, health), setup = phase(artifact_dir, X, rng, BASE_RATE, count)
        setups.append(setup)
        phases.append(summarize(record))
        probed.add(phases[-1]["p50_ms"] / 1e3)
        scores.append(check_responses(out, record, artifact, X, y))
        out.attempted += phases[-1]["sent"]
        out.failed += phases[-1]["failed"]
    # Latencies and lateness of every phase together, for p99.
    pooled = [ms for p in phases for ms in p.pop("latency_ms")]
    late_p99 = percentile([ms for p in phases for ms in p.pop("late_ms")], 99)
    out.check("client_on_time", late_p99 <= LATE_LIMIT_MS)
    out.notes = {"phases": phases, "probe_s": probed.probes}

    per_layer = {}
    if trace:
        trace_path = WORK / f"trace-{name}-{seed}.json"
        # One more phase at the same rate, on a traced server.
        traced_record, _, _ = phase(artifact_dir, X, np.random.default_rng(seed), BASE_RATE,
                                    count, trace_path)
        traced = summarize(traced_record)
        out.attempted += traced["sent"]
        out.failed += traced["failed"]
        check_responses(out, traced_record, artifact, X, y)
        layers = json.loads(trace_path.read_text())

        def busy(layer: str) -> float:
            return layers.get(layer, {}).get("busy_s", 0.0)

        # The highest fixed rate whose p99 stays within the limit without
        # a growing backlog; the ladder stops at the first rung that fails.
        max_rate, rungs = 0.0, []
        for rate in LADDER:
            rung_record, _, _ = phase(artifact_dir, X, rng, rate, int(rate * RUNG_S))
            rung = summarize(rung_record)
            del rung["latency_ms"], rung["late_ms"]
            rungs.append(dict(rung, rate=rate))
            out.attempted += rung["sent"]
            out.failed += rung["failed"]
            if rung["failed"] or rung["backlog_grows"] or rung["p99_ms"] > LATENCY_LIMIT_MS:
                break
            max_rate = rate
        out.notes["ladder"] = rungs
        per_layer = {
            "latency_p50_ms": median(p["p50_ms"] for p in phases),
            "probe_ms": 1e3 * median(probed.probes),
            "latency_p99_ms": percentile(pooled, 99),
            "max_rate_rps": max_rate,
            "error_rate": out.failed / out.attempted,
            "server.request_ms_p99": 1e3 * health["batcher"]["request_latency_p99"],
            "server.batch_ms_p99": 1e3 * histogram_quantile(
                metrics, "serve_batch_execute_seconds", 0.99),
            "server.batch_rows_p50": health["batcher"]["batch_rows_p50"],
            "compile.apply.busy_s": busy("compile.apply"),
            "artifact.predict.busy_s": busy("artifact.transform") + busy("forest.predict"),
            "forest.predict.busy_s": busy("forest.predict"),
            "evaluation.calls": layers.get("evaluation", {}).get("calls", 0),
            "client.late_ms_p99": late_p99,
            "trace.overhead_ratio": traced["p50_ms"] / phases[-1]["p50_ms"],
        }
        out.notes["trace_file"] = str(trace_path) + ".jsonl"

    out.end_to_end = {
        "setup_s": median(setups),
        "latency_p50_rel": probed.relative(),
        "best_score": median(scores),
        "peak_rss_mb": peak_rss_mb(include_self=False),
    }
    out.per_layer = per_layer
    return out
