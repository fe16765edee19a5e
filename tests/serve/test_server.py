"""Tests for the inference server: sockets, micro-batching, error paths."""

from __future__ import annotations

import inspect
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.__main__ import build_parser
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.tree import _NodeTable
from repro.serve import (
    ArtifactRegistry,
    InferenceServer,
    MicroBatcher,
    PipelineArtifact,
    PipelineService,
)


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


class TestEndToEnd:
    def test_search_publish_serve_predict(self, artifact, serve_problem, tmp_path):
        """The acceptance path: search → artifact → registry round trip →
        real-socket /predict with correct scores."""
        X, _ = serve_problem
        registry = ArtifactRegistry(tmp_path / "reg")
        registry.publish(artifact, "e2e", tag="prod")
        served = registry.get("e2e", tag="prod")
        expected = artifact.predict(X[:7])
        with InferenceServer(served, port=0, max_wait_ms=0.5) as server:
            body = _post(server.url + "/predict", {"rows": X[:7].tolist()})
            assert body["predictions"] == expected.tolist()
            assert np.asarray(body["proba"]).shape == (7, 2)

    def test_transform_endpoint_matches_plan(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            body = _post(server.url + "/transform", {"rows": X[:5].tolist()})
            np.testing.assert_allclose(
                np.asarray(body["features"]), artifact.transform(X[:5]), rtol=0, atol=0
            )

    def test_healthz(self, artifact):
        with InferenceServer(artifact, port=0) as server:
            body = _get(server.url + "/healthz")
            assert body["status"] == "ok"
            assert body["artifact"]["task"] == "classification"
            assert "content_hash" in body["artifact"]
            assert body["batcher"]["requests"] == 0

    def test_error_paths(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            cases = [
                (server.url + "/predict", b"not json"),
                (server.url + "/predict", json.dumps({"wrong": 1}).encode()),
                (server.url + "/predict", json.dumps({"rows": [[1.0, 2.0]]}).encode()),
                (server.url + "/predict", json.dumps({"rows": [[1, 2, 3, None]]}).encode()),
                # An integer no float can hold was answered 500.
                (server.url + "/predict", json.dumps({"rows": [[10**400, 2, 3, 4]]}).encode()),
            ]
            for url, data in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        urllib.request.Request(url, data=data), timeout=10
                    )
                assert err.value.code == 400
                assert "error" in json.loads(err.value.read())
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
            assert err.value.code == 404
            # The server keeps serving after every error.
            ok = _post(server.url + "/predict", {"rows": X[:1].tolist()})
            assert len(ok["predictions"]) == 1

    def test_max_requests_shutdown(self, artifact):
        import time

        server = InferenceServer(artifact, port=0, max_requests=2).start()
        _get(server.url + "/healthz")
        _get(server.url + "/healthz")
        assert server.wait(timeout=10)
        assert server.requests_served == 2
        # The shutdown also cleans up the socket and batcher without an
        # explicit stop(): the serving thread runs _cleanup on exit.
        for _ in range(100):
            if server.service.batcher._stopped:
                break
            time.sleep(0.05)
        assert server.service.batcher._stopped
        server.stop()  # idempotent

    def test_broken_model_returns_500_and_keeps_serving(self, artifact, serve_problem):
        from repro.serve import PipelineArtifact

        X, _ = serve_problem
        # ValueError and RuntimeError raised by the model were answered
        # 400, as if the client had sent bad input.
        for error in (KeyError, ValueError, RuntimeError):

            class _BrokenModel:
                def predict(self, X, error=error):
                    raise error("boom")

            broken = PipelineArtifact(artifact.plan, "classification", model=_BrokenModel())
            with InferenceServer(broken, port=0, max_wait_ms=0.5) as server:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(server.url + "/predict", {"rows": X[:1].tolist()})
                assert err.value.code == 500
                assert error.__name__ in json.loads(err.value.read())["error"]
                # The connection was answered, not dropped, and the server lives.
                body = _post(server.url + "/transform", {"rows": X[:1].tolist()})
                assert len(body["features"]) == 1

    def test_stopped_batcher_returns_503(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0) as server:
            server.service.batcher.close()
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "/predict", {"rows": X[:1].tolist()})
            assert err.value.code == 503
            assert "stopped" in json.loads(err.value.read())["error"]

    def test_predict_without_model_is_400_before_queueing(self, artifact, serve_problem):
        X, _ = serve_problem
        bare = PipelineArtifact(artifact.plan, "classification")
        with InferenceServer(bare, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "/predict", {"rows": X[:1].tolist()})
            assert err.value.code == 400
            assert "no downstream model" in json.loads(err.value.read())["error"]
            assert server.service.batcher.stats()["requests"] == 0

    def test_failed_bind_leaks_no_threads(self, artifact):
        with InferenceServer(artifact, port=0) as server:
            before = set(threading.enumerate())
            with pytest.raises(OSError):
                InferenceServer(artifact, port=server.address[1], shadow_artifact=artifact)
            assert set(threading.enumerate()) - before == set()


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, artifact, serve_problem):
        """N threads posting single rows at once must share vectorized
        applies — fewer batches than requests — with per-row results
        identical to direct computation."""
        X, _ = serve_problem
        n_threads = 12
        service = PipelineService(artifact, max_wait_ms=150.0)
        try:
            expected = artifact.predict(X[:n_threads])
            barrier = threading.Barrier(n_threads)
            results: list = [None] * n_threads
            errors: list = []

            def worker(i: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    results[i] = service.predict(X[i : i + 1])["predictions"][0]
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert [r for r in results] == expected.tolist()
            stats = service.batcher.stats()
            assert stats["requests"] == n_threads
            # The barrier + 150ms window guarantees coalescing: strictly
            # fewer vectorized applies than requests, and at least one
            # multi-request batch.
            assert stats["batches"] < n_threads
            assert stats["max_batch_requests"] > 1
        finally:
            service.close()

    def test_batch_row_cap_respected(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(artifact, max_wait_ms=0.0, max_batch_rows=2)
        try:
            out = service.predict(X[:6])
            assert len(out["predictions"]) == 6
        finally:
            service.close()

    def test_in_process_transform(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(artifact)
        try:
            np.testing.assert_array_equal(
                service.transform(X[:4]), artifact.transform(X[:4]), strict=True
            )
        finally:
            service.close()

    def test_shape_validation_before_batching(self, artifact):
        service = PipelineService(artifact)
        try:
            with pytest.raises(ValueError, match="rows must be"):
                service.predict([[1.0, 2.0]])
            with pytest.raises(ValueError, match="finite"):
                service.predict([[np.nan, 1.0, 2.0, 3.0]])
            # Bad requests never reached the batcher.
            assert service.batcher.stats()["requests"] == 0
        finally:
            service.close()

    def test_submit_after_close_raises(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(artifact)
        service.close()
        with pytest.raises(RuntimeError, match="stopped"):
            service.predict(X[:1])

    def test_max_wait_defaults_to_zero(self):
        """Continuous batching is the default on every surface."""
        for cls in (MicroBatcher, PipelineService, InferenceServer):
            assert inspect.signature(cls).parameters["max_wait_ms"].default == 0.0
        assert build_parser().parse_args(["serve", "--artifact", "art"]).max_wait_ms == 0.0


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestOneDescentPerBatch:
    def test_forest_predict_batch_descends_once(self, artifact, serve_problem, monkeypatch):
        """A forest's labels come from the batch's one ``predict_proba``
        descent, byte-equal to calling ``predict`` and ``predict_proba``."""
        X, _ = serve_problem
        model = artifact.model
        assert type(model) is RandomForestClassifier
        rows = X[:7]
        features = artifact.transform(rows)
        want_labels, want_proba = model.predict(features), model.predict_proba(features)
        descents: list[int] = []
        descend = _NodeTable.descend

        def counting_descend(table, X):
            descents.append(len(X))
            return descend(table, X)

        monkeypatch.setattr(_NodeTable, "descend", counting_descend)
        service = PipelineService(artifact)
        try:
            out = service.predict(rows)
        finally:
            service.close()
        assert descents == [len(rows)]
        _assert_same_bytes(out["predictions"], want_labels)
        _assert_same_bytes(out["proba"], want_proba)

    def test_logistic_regression_labels_come_from_its_predict(
        self, artifact, serve_problem
    ):
        """Models that label from a decision function keep both calls."""
        X, y = serve_problem
        model = LogisticRegression().fit(artifact.transform(X), y)
        served = PipelineArtifact(artifact.plan, artifact.task, model=model)
        features = artifact.transform(X[:9])
        service = PipelineService(served)
        try:
            out = service.predict(X[:9])
        finally:
            service.close()
        _assert_same_bytes(out["predictions"], model.predict(features))
        _assert_same_bytes(out["proba"], model.predict_proba(features))
