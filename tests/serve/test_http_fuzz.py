"""Fuzz the HTTP edge: raw byte streams against one running server.

Each example opens one connection and sends a stream built from valid
requests, truncated requests, framing cases the server must reject and
random bytes, pipelined and split at arbitrary points across sends. The
stream ends with the client half-closing or resetting the connection.
The server must answer or close every connection within a bound, raise
nothing into ``socketserver``'s ``handle_error``, count every response a
client received in ``serve_http_responses_total`` and then answer a
normal ``/predict``.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import traceback
import urllib.request
from collections import Counter

import pytest

pytest.importorskip("hypothesis", reason="the fuzzer needs the hypothesis dev dependency")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.serve import InferenceServer  # noqa: E402
from repro.serve import server as server_module  # noqa: E402

BOUND_S = 5.0  # every connection is answered or closed within this
ROWS = json.dumps({"rows": [[0.1, -0.2, 0.3, 1.5]]}).encode()


def _request(method: str, target: str, body: bytes = b"", *headers: str) -> bytes:
    head = [f"{method} {target} HTTP/1.1", "Host: fuzz", *headers]
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


VALID = [
    _request("GET", "/healthz"),
    _request("GET", "/metrics?scrape=1"),
    _request("POST", "/predict", ROWS),
    _request("POST", "/transform", ROWS),
    _request("POST", "/predict", b"not json"),
    _request("POST", "/predict", b"[" * 100_000),  # nested past the recursion limit
    _request("POST", "/admin/reload", b"{}"),
    _request("GET", "/nope"),
    _request("PUT", "/predict", ROWS),
]
FRAMING = [
    _request("POST", "/predict", ROWS, "Transfer-Encoding: chunked"),
    _request("POST", "/predict", ROWS, "Content-Length: 3"),  # conflicts with the real one
    _request("POST", "/predict", b"", f"Content-Length: +{len(ROWS)}") + ROWS,
    _request("POST", "/predict", b"", "Content-Length: " + "_".join(str(len(ROWS)))) + ROWS,
    _request("POST", "/predict", b"", "Content-Length: -1"),
    _request("POST", "/predict", b"", "Content-Length: 99999999999"),
    _request("POST", "/predict", b"", "Content-Length: " + "9" * 5000),
    _request("GET", "/healthz", b"", "X-Long: " + "a" * 70_000),
    _request("GET", "/healthz", b"", *(f"X-{i}: y" for i in range(101))),
    b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/2.0\r\n\r\n",
]
CASES = VALID + FRAMING
PIECES = st.one_of(
    st.sampled_from(VALID),
    st.sampled_from(CASES).flatmap(
        lambda r: st.integers(1, len(r) - 1).map(lambda n: r[:n])
    ),
    st.sampled_from(FRAMING),
    st.binary(max_size=48),
)


@pytest.fixture(scope="module")
def fuzz_server(artifact):
    errors: list[str] = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_module, "_IDLE_TIMEOUT_SECONDS", 1.0)
        server = InferenceServer(artifact, port=0)
        server.handle_error = lambda request, address: errors.append(traceback.format_exc())
        with server:
            yield server, errors


def _counted(server) -> Counter:
    return Counter(
        {
            (m.labels["path"], m.labels["status"]): m.value
            for m in server.service.metrics
            if m.name == "serve_http_responses"
        }
    )


def _read_to_close(conn: socket.socket) -> tuple[bytes, bool]:
    """Everything the server sent, and whether it ended in a clean close
    (not a reset for bytes it left unread)."""
    chunks = []
    while True:
        try:
            data = conn.recv(1 << 16)  # raises TimeoutError past the bound
        except ConnectionResetError:
            return b"".join(chunks), False
        if not data:
            return b"".join(chunks), True
        chunks.append(data)


def _responses(raw: bytes) -> list[tuple[int, bytes]]:
    """Final responses in ``raw`` as ``(status, body)``; 1xx are skipped."""
    out = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        assert len(rest) >= length, "truncated response body"
        body, raw = rest[:length], rest[length:]
        if status >= 200:
            out.append((status, body))
    return out


def _ok_path(body: bytes) -> str:
    """The path a 200 response came from, told by its body."""
    if not body.startswith(b"{"):
        return "/metrics"
    keys = json.loads(body)
    return next(p for k, p in (("predictions", "/predict"), ("features", "/transform"),
                               ("uptime_seconds", "/healthz")) if k in keys)


def _each_case_alone(test):
    """Also run every fixed case once on its own, half-closed."""
    for case in CASES:
        test = example(pieces=[case], cuts=[], reset=False)(test)
    return test


def _wait_until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pieces=st.lists(PIECES, min_size=1, max_size=5),
    cuts=st.lists(st.integers(0, 1 << 20), max_size=4),
    reset=st.booleans(),
)
@_each_case_alone
def test_any_byte_stream_is_answered_or_closed_and_counted(fuzz_server, pieces, cuts, reset):
    server, errors = fuzz_server
    stream = b"".join(pieces)
    edges = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    before = _counted(server)
    received, exact = b"", not reset
    with socket.create_connection(server.address, timeout=BOUND_S) as conn:
        try:
            for start, stop in zip(edges, edges[1:]):
                conn.sendall(stream[start:stop])
        except OSError:
            exact = False  # the server answered an error and closed first
        if reset:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        else:
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                exact = False
            received, clean = _read_to_close(conn)
            exact = exact and clean
    assert _wait_until(lambda: not server._connections, BOUND_S), "connection left open"
    assert errors == [], errors[0]

    counted = _counted(server) - before
    labels = (*server_module._KNOWN_PATHS, "other")
    assert all(path in labels for path, _ in counted), counted
    responses = _responses(received)
    by_status = Counter()
    for (_, status), n in counted.items():
        if status != "disconnect":
            by_status[int(status)] += n
    got = Counter(status for status, _ in responses)
    ok = Counter(_ok_path(body) for status, body in responses if status == 200)
    if exact:  # the client read everything the server wrote
        assert by_status == got
        assert all(counted[(path, "200")] == n for path, n in ok.items())
    else:
        assert all(by_status[status] >= n for status, n in got.items())
        assert all(counted[(path, "200")] >= n for path, n in ok.items())

    request = urllib.request.Request(server.url + "/predict", data=ROWS)
    with urllib.request.urlopen(request, timeout=BOUND_S) as resp:
        assert len(json.loads(resp.read())["predictions"]) == 1
