"""Production front-end behaviors: admission control, deadlines, hot swap,
shadow routing — and the MicroBatcher robustness regressions (worker
death, query-string miscount, client disconnect)."""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import types
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.serve import server as server_module
from repro.serve import (
    ArtifactRegistry,
    DeadlineExceededError,
    InferenceServer,
    PipelineArtifact,
    PipelineService,
    QueueFullError,
)


class ConstModel:
    """Predicts a constant — prediction value identifies the artifact."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def predict(self, features) -> np.ndarray:
        return np.full(len(features), self.value)


class GateModel:
    """predict() blocks until the gate opens — deterministic slow batches."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def predict(self, features) -> np.ndarray:
        self.gate.wait(timeout=30.0)
        return np.zeros(len(features))


def _variant(artifact: PipelineArtifact, model) -> PipelineArtifact:
    """Same plan/task as the fixture artifact, different model."""
    return PipelineArtifact(artifact.plan, artifact.task, model=model)


def _post(url: str, payload: dict, headers: dict | None = None) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(req, timeout=15) as resp:
        return json.loads(resp.read())


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=15) as resp:
        return resp.read().decode()


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWorkerDeathRegression:
    """The pre-rebuild batcher hung every waiter when the worker died."""

    # The deliberately-killed worker thread dies with a traceback — that
    # is the scenario under test, not an accident.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_unblocks_waiter_and_fails_fast(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(artifact, max_wait_ms=0.0)
        batcher = service.batcher

        def boom(batch, art, version):
            raise ZeroDivisionError("batch runner killed")

        batcher._run_batch = boom
        outcome: dict = {}

        def call():
            try:
                outcome["result"] = service.transform(X[:2])
            except Exception as exc:
                outcome["error"] = exc

        waiter = threading.Thread(target=call, daemon=True)
        waiter.start()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "submit hung after the worker died"
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "died" in str(outcome["error"])
        batcher._worker.join(timeout=5.0)
        assert not batcher._worker.is_alive()
        # Subsequent submits fail fast instead of queueing into the void.
        with pytest.raises(RuntimeError, match="died"):
            service.transform(X[:2])
        service.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_raising_metrics_hook_does_not_strand_the_waiter(
        self, artifact, serve_problem
    ):
        # The original bug trigger: a histogram observe() raising inside
        # the worker loop stranded every client on an event never set.
        X, _ = serve_problem
        service = PipelineService(artifact, max_wait_ms=0.0)

        def observe_boom(value):
            raise ZeroDivisionError("observe blew up")

        service.batcher._batch_latency.observe = observe_boom
        outcome: dict = {}

        def call():
            try:
                outcome["result"] = service.transform(X[:2])
            except Exception as exc:
                outcome["error"] = exc

        waiter = threading.Thread(target=call, daemon=True)
        waiter.start()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "waiter stranded by a raising metrics hook"
        # The batch itself succeeded; the answer must still be delivered.
        assert outcome.get("result") is not None
        assert outcome["result"].shape[0] == 2
        service.close()

    def test_close_fails_still_queued_pendings(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        service = PipelineService(
            _variant(artifact, gate_model), max_wait_ms=0.0, max_batch_rows=1
        )
        batcher = service.batcher
        first: dict = {}

        def call_first():
            try:
                first["result"] = service.predict(X[:1])
            except Exception as exc:
                first["error"] = exc

        t_first = threading.Thread(target=call_first, daemon=True)
        t_first.start()
        assert _wait_until(lambda: batcher.n_batches >= 1)  # claimed, gated
        queued = service.submit_nowait("predict", X[:1])

        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        time.sleep(0.2)  # close() is now joining the busy worker
        gate_model.gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        # The in-flight batch finished; the queued request was failed, not
        # silently processed or left waiting forever.
        t_first.join(timeout=10.0)
        assert "result" in first
        with pytest.raises(RuntimeError, match="stopped"):
            batcher.wait_for(queued)


class TestContinuousBatching:
    def test_requests_queued_behind_a_running_batch_run_as_one(
        self, artifact, serve_problem
    ):
        """At the default ``max_wait_ms`` an idle worker runs a request at
        once; every request that queued while that batch ran departs
        together as the next batch."""
        X, _ = serve_problem
        n_queued = 6
        gate_model = GateModel()
        service = PipelineService(_variant(artifact, gate_model))
        batcher = service.batcher
        try:
            first = service.submit_nowait("predict", X[:1])
            assert _wait_until(lambda: batcher.n_batches >= 1)  # claimed, gated
            queued = [
                service.submit_nowait("predict", X[i : i + 1]) for i in range(n_queued)
            ]
            gate_model.gate.set()
            for pending in (first, *queued):
                assert batcher.wait_for(pending)["predictions"].tolist() == [0.0]
            stats = batcher.stats()
            assert stats["batches"] == 2
            assert stats["max_batch_requests"] == n_queued
        finally:
            gate_model.gate.set()
            service.close()


class TestAdmissionControl:
    def test_bounded_queue_sheds_with_retry_after(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        service = PipelineService(
            _variant(artifact, gate_model),
            max_wait_ms=0.0,
            max_batch_rows=1,
            max_queue=1,
        )
        batcher = service.batcher
        threads = []
        try:
            t = threading.Thread(target=lambda: service.predict(X[:1]), daemon=True)
            t.start()
            threads.append(t)
            assert _wait_until(lambda: batcher.n_batches >= 1)  # worker busy
            queued = service.submit_nowait("predict", X[:1])  # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                service.submit_nowait("predict", X[:1])
            assert excinfo.value.retry_after >= 1
            assert int(batcher._shed.value) == 1
            assert service.metrics.get("serve_queue_depth").value == 1
            stats = batcher.stats()
            assert stats["shed"] == 1 and stats["queue_depth"] == 1
        finally:
            gate_model.gate.set()
            for t in threads:
                t.join(timeout=10.0)
            batcher.wait_for(queued)
            service.close()

    def test_http_429_with_retry_after_header(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        server = InferenceServer(
            _variant(artifact, gate_model),
            port=0,
            max_wait_ms=0.0,
            max_batch_rows=1,
            max_queue=1,
        )
        rows = {"rows": X[:1].tolist()}
        results: list = []

        def post_ok():
            results.append(_post(server.url + "/predict", rows))

        with server:
            batcher = server.service.batcher
            t1 = threading.Thread(target=post_ok, daemon=True)
            t1.start()
            assert _wait_until(lambda: batcher.n_batches >= 1)
            t2 = threading.Thread(target=post_ok, daemon=True)
            t2.start()
            assert _wait_until(lambda: len(batcher._queue) >= 1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.url + "/predict", rows)
            err = excinfo.value
            assert err.code == 429
            assert int(err.headers["Retry-After"]) >= 1
            assert "queue full" in json.loads(err.read())["error"]
            metrics = _get(server.url + "/metrics")
            assert "serve_requests_shed_total 1" in metrics
            assert 'serve_http_responses_total{path="/predict",status="429"} 1' in metrics
            gate_model.gate.set()
            t1.join(timeout=10.0)
            t2.join(timeout=10.0)
        assert len(results) == 2  # the admitted requests were both answered


class TestDeadlines:
    def test_default_deadline_expires_in_process(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        service = PipelineService(
            _variant(artifact, gate_model),
            max_wait_ms=0.0,
            max_batch_rows=1,
            deadline_ms=150.0,
        )
        batcher = service.batcher

        def gated_call():
            # The gated request outlives its own default deadline too.
            with pytest.raises(DeadlineExceededError):
                service.predict(X[:1])

        t = threading.Thread(target=gated_call, daemon=True)
        try:
            t.start()
            assert _wait_until(lambda: batcher.n_batches >= 1)  # worker gated
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                service.predict(X[:1])
            assert time.monotonic() - t0 < 5.0
            assert int(batcher._deadline_expired.value) >= 1
        finally:
            gate_model.gate.set()
            t.join(timeout=10.0)
            service.close()

    def test_wait_returns_at_the_deadline_not_the_next_poll(
        self, artifact, serve_problem, monkeypatch
    ):
        """The waiter only checked its deadline between liveness polls, so
        it could answer up to a poll interval late."""
        X, _ = serve_problem
        monkeypatch.setattr(server_module, "_WAIT_POLL_SECONDS", 30.0)
        gate_model = GateModel()
        service = PipelineService(_variant(artifact, gate_model), max_batch_rows=1)
        batcher = service.batcher
        try:
            first = service.submit_nowait("predict", X[:1])
            assert _wait_until(lambda: batcher.n_batches >= 1)  # worker gated
            queued = service.submit_nowait("predict", X[:1], deadline=time.monotonic() + 0.1)
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                batcher.wait_for(queued)
            assert time.monotonic() - t0 < 5.0
        finally:
            gate_model.gate.set()
            batcher.wait_for(first)
            service.close()

    def test_http_deadline_header_answers_504(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        server = InferenceServer(
            _variant(artifact, gate_model), port=0, max_wait_ms=0.0, max_batch_rows=1
        )
        rows = {"rows": X[:1].tolist()}
        with server:
            batcher = server.service.batcher
            t = threading.Thread(
                target=lambda: _post(server.url + "/predict", rows), daemon=True
            )
            t.start()
            assert _wait_until(lambda: batcher.n_batches >= 1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.url + "/predict", rows, headers={"X-Deadline-Ms": "150"})
            assert excinfo.value.code == 504
            assert "deadline" in json.loads(excinfo.value.read())["error"]
            metrics = _get(server.url + "/metrics")
            assert "serve_deadline_expired_total" in metrics
            gate_model.gate.set()
            t.join(timeout=10.0)

    def test_invalid_deadline_header_is_400(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server.url + "/predict",
                    {"rows": X[:1].tolist()},
                    headers={"X-Deadline-Ms": "soon"},
                )
            assert excinfo.value.code == 400


class TestHotSwap:
    def test_swap_under_concurrent_load_never_mixes_versions(
        self, artifact, serve_problem
    ):
        X, _ = serve_problem
        art0 = _variant(artifact, ConstModel(0.0))
        art1 = _variant(artifact, ConstModel(1.0))
        service = PipelineService(art0, max_wait_ms=0.5, version="v0001")
        expected = {0.0: "v0001", 1.0: "v0002"}
        stop = threading.Event()
        errors: list = []
        seen: set = set()

        def hammer():
            while not stop.is_set():
                try:
                    pending = service.submit_nowait("predict", X[:3])
                    result = service.batcher.wait_for(pending)
                except Exception as exc:  # any error fails the test
                    errors.append(exc)
                    return
                values = set(np.asarray(result["predictions"]).tolist())
                if len(values) != 1:
                    errors.append(AssertionError(f"mixed predictions: {values}"))
                    return
                value = values.pop()
                if expected[value] != pending.served_by:
                    errors.append(
                        AssertionError(
                            f"prediction {value} labeled {pending.served_by}"
                        )
                    )
                    return
                seen.add(pending.served_by)

        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        assert service.reload(art1, version="v0002") == "v0001"
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        service.close()
        assert not errors, errors[0]
        assert seen == {"v0001", "v0002"}  # both versions actually served
        reloads = service.metrics.get("serve_reloads")
        assert reloads is not None and reloads.value == 1

    def test_reload_rejects_incompatible_input_width(self, artifact):
        service = PipelineService(artifact, max_wait_ms=0.0)
        try:
            narrower = types.SimpleNamespace(
                plan=types.SimpleNamespace(n_input_columns=999)
            )
            with pytest.raises(ValueError, match="cannot hot-swap"):
                service.reload(narrower)
        finally:
            service.close()

    def test_admin_reload_over_http(self, artifact, serve_problem, tmp_path):
        X, _ = serve_problem
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.publish(_variant(artifact, ConstModel(0.0)), "model", tag="prod")
        server = api.serve_from_registry(
            registry, "model", tag="prod", reload=True, port=0, max_wait_ms=0.0
        )
        rows = {"rows": X[:2].tolist()}
        with server:
            out = _post(server.url + "/predict", rows)
            assert out["artifact_version"] == "v0001"
            assert out["predictions"] == [0.0, 0.0]
            # Nothing promoted yet: reload is a counted no-op.
            out = _post(server.url + "/admin/reload", {})
            assert out == {"swapped": False, "version": "v0001", "previous": "v0001"}
            registry.publish(_variant(artifact, ConstModel(1.0)), "model", tag="prod")
            out = _post(server.url + "/admin/reload", {})
            assert out == {"swapped": True, "version": "v0002", "previous": "v0001"}
            out = _post(server.url + "/predict", rows)
            assert out["artifact_version"] == "v0002"
            assert out["predictions"] == [1.0, 1.0]
            health = json.loads(_get(server.url + "/healthz"))
            assert health["version"] == "v0002"

    def test_admin_reload_without_source_is_400(self, artifact):
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.url + "/admin/reload", {})
            assert excinfo.value.code == 400
            assert "not configured" in json.loads(excinfo.value.read())["error"]


class TestShadowRouting:
    def test_divergent_challenger_counts_per_request(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(
            _variant(artifact, ConstModel(0.0)),
            max_wait_ms=0.0,
            shadow_artifact=_variant(artifact, ConstModel(1.0)),
            shadow_version="challenger",
        )
        try:
            for i in range(3):
                service.predict(X[i : i + 2])
            service.transform(X[:2])  # identical plans: transform agrees
            assert service.shadow.flush(timeout=10.0)
            stats = service.shadow.stats()
            assert stats["requests"] == 4
            assert stats["divergences"] == 3  # every predict, no transform
            metric = service.metrics.get(
                "serve_shadow_divergence", {"kind": "predict"}
            )
            assert metric is not None and metric.value == 3
            assert "shadow" in service.healthz()
        finally:
            service.close()

    def test_identical_challenger_never_diverges(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(
            artifact, max_wait_ms=0.0, shadow_artifact=artifact
        )
        try:
            service.predict(X[:4])
            service.transform(X[:4])
            assert service.shadow.flush(timeout=10.0)
            stats = service.shadow.stats()
            assert stats["requests"] == 2 and stats["divergences"] == 0
        finally:
            service.close()

    def test_shadow_tag_over_http(self, artifact, serve_problem, tmp_path):
        X, _ = serve_problem
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.publish(_variant(artifact, ConstModel(0.0)), "model", tag="prod")
        registry.publish(_variant(artifact, ConstModel(1.0)), "model", tag="next")
        server = api.serve_from_registry(
            registry, "model", tag="prod", shadow_tag="next", port=0, max_wait_ms=0.0
        )
        with server:
            out = _post(server.url + "/predict", {"rows": X[:2].tolist()})
            assert out["predictions"] == [0.0, 0.0]  # stable tag answers
            assert server.service.shadow.flush(timeout=10.0)
            metrics = _get(server.url + "/metrics")
            assert 'serve_shadow_divergence_total{kind="predict"} 1' in metrics
            health = json.loads(_get(server.url + "/healthz"))
            assert health["shadow"]["version"] == "v0002"


class TestQueryStringRegression:
    """The pre-rebuild handler matched the raw target against known paths,
    so `/healthz?probe=1` 404'd and was miscounted as "other"."""

    def test_query_string_routes_and_counts_correctly(self, artifact):
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            health = json.loads(_get(server.url + "/healthz?probe=1"))
            assert health["status"] == "ok"
            _get(server.url + "/metrics?x=1")
            metrics = _get(server.url + "/metrics")
            assert 'serve_http_responses_total{path="/healthz",status="200"} 1' in metrics
            assert 'serve_http_responses_total{path="/metrics",status="200"}' in metrics
            assert 'path="other"' not in metrics


class TestClientDisconnectRegression:
    """A client hanging up mid-response used to raise an unhandled
    BrokenPipe/ConnectionReset in the handler; now it is counted."""

    def test_disconnect_counted_and_server_survives(self, artifact, serve_problem):
        X, _ = serve_problem
        gate_model = GateModel()
        server = InferenceServer(
            _variant(artifact, gate_model), port=0, max_wait_ms=0.0
        )
        with server:
            batcher = server.service.batcher
            payload = json.dumps({"rows": X[:1].tolist()}).encode()
            conn = socket.create_connection(server.address, timeout=10)
            conn.sendall(
                b"POST /predict HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            assert _wait_until(lambda: batcher.n_batches >= 1)  # request claimed
            # RST-close while the server is still computing the response.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.close()
            gate_model.gate.set()

            def disconnect_counted():
                metrics = _get(server.url + "/metrics")
                return "serve_client_disconnects_total 1" in metrics

            assert _wait_until(disconnect_counted, timeout=10.0)
            metrics = _get(server.url + "/metrics")
            assert (
                'serve_http_responses_total{path="/predict",status="disconnect"} 1'
                in metrics
            )
            # The server keeps serving normal traffic afterwards.
            out = _post(server.url + "/predict", {"rows": X[:1].tolist()})
            assert out["predictions"] == [0.0]


def _raw_exchange(address, request: bytes) -> bytes:
    """Send raw bytes, return everything the server sends until it closes."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(request)
        received = []
        while True:
            data = conn.recv(65536)
            if not data:
                return b"".join(received)
            received.append(data)


class TestBodyFramingRegression:
    """The request reader only knew Content-Length. A chunked body was read
    as an empty one (400), then its chunk-size line as the next request
    line (400 again); a repeated Content-Length used its last value."""

    @staticmethod
    def _head(*headers: bytes) -> bytes:
        return b"\r\n".join(
            [b"POST /predict HTTP/1.1", b"Host: test", b"Content-Type: application/json",
             *headers, b"", b""]
        )

    def test_chunked_body_is_answered_501_once(self, artifact, serve_problem):
        X, _ = serve_problem
        payload = json.dumps({"rows": X[:1].tolist()}).encode()
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(payload), payload)
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            reply = _raw_exchange(
                server.address, self._head(b"Transfer-Encoding: chunked") + body
            )
            assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
            assert reply.count(b"HTTP/1.1 ") == 1  # then the connection closed
            assert _post(server.url + "/predict", {"rows": X[:1].tolist()})["predictions"]

    def test_conflicting_content_lengths_are_answered_400(self, artifact, serve_problem):
        X, _ = serve_problem
        payload = json.dumps({"rows": X[:1].tolist()}).encode()
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            reply = _raw_exchange(
                server.address,
                self._head(
                    b"Content-Length: 5",
                    b"Content-Length: %d" % len(payload),
                    b"Connection: close",
                )
                + payload,
            )
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"conflicting Content-Length" in reply
            assert reply.count(b"HTTP/1.1 ") == 1

    def test_repeated_equal_content_length_is_accepted(self, artifact, serve_problem):
        X, _ = serve_problem
        payload = json.dumps({"rows": X[:1].tolist()}).encode()
        length = b"Content-Length: %d" % len(payload)
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            reply = _raw_exchange(
                server.address, self._head(length, length, b"Connection: close") + payload
            )
            assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
            assert reply.count(b"HTTP/1.1 ") == 1

    # int() also parses "+123" and "1_2_3"; both were read as 123-byte
    # bodies and answered 200.
    @pytest.mark.parametrize(
        "spell", [lambda n: f"+{n}", lambda n: "_".join(str(n))], ids=["plus", "underscores"]
    )
    def test_non_digit_content_length_is_answered_400(self, artifact, serve_problem, spell):
        X, _ = serve_problem
        payload = json.dumps({"rows": X[:1].tolist()}).encode()
        length = b"Content-Length: " + spell(len(payload)).encode()
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            reply = _raw_exchange(server.address, self._head(length) + payload)
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"invalid Content-Length" in reply
            assert reply.count(b"HTTP/1.1 ") == 1


class TestIdleTimeout:
    """A connection that sent half a request line held its reader forever."""

    def test_stalled_request_is_closed_and_server_keeps_serving(
        self, artifact, serve_problem, monkeypatch
    ):
        X, _ = serve_problem
        monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_SECONDS", 0.2)
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            with socket.create_connection(server.address, timeout=10) as conn:
                conn.sendall(b"POST /pred")
                t0 = time.monotonic()
                assert conn.recv(1024) == b""  # closed, no response
                assert time.monotonic() - t0 < 5.0
            assert _post(server.url + "/predict", {"rows": X[:1].tolist()})["predictions"]


class TestConnectionCap:
    def test_connection_over_the_cap_is_answered_503(
        self, artifact, serve_problem, monkeypatch
    ):
        X, _ = serve_problem
        monkeypatch.setattr(server_module, "_MAX_CONNECTIONS", 2)
        with InferenceServer(artifact, port=0, max_wait_ms=0.0) as server:
            held = [socket.create_connection(server.address, timeout=10) for _ in range(2)]
            try:
                reply = _raw_exchange(server.address, b"")
                assert reply.startswith(b"HTTP/1.1 503 Service Unavailable\r\n")
                assert b"connection limit" in reply
            finally:
                for conn in held:
                    conn.close()
            # Closed connections free their slots.
            assert _wait_until(lambda: not server._connections)
            assert _post(server.url + "/predict", {"rows": X[:1].tolist()})["predictions"]
            metrics = _get(server.url + "/metrics")
            assert 'serve_http_responses_total{path="other",status="503"} 1' in metrics
