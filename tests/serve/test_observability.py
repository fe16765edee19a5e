"""Serving observability: /metrics, latency quantiles, access log."""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve import InferenceServer, PipelineService


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _get_raw(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode(), dict(resp.headers)


class TestMetricsEndpoint:
    def test_content_type_and_format(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            _post(server.url + "/predict", {"rows": X[:3].tolist()})
            body, headers = _get_raw(server.url + "/metrics")
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            assert "# TYPE serve_request_seconds histogram" in body
            assert 'serve_requests_total{kind="predict"} 1' in body
            assert 'serve_request_seconds_bucket{le="+Inf"}' in body
            assert "serve_batch_rows_sum 3" in body

    def test_counters_monotonic_across_scrapes(self, artifact, serve_problem):
        X, _ = serve_problem
        name = 'serve_http_responses_total{path="/predict",status="200"}'

        def scrape(server) -> dict[str, float]:
            body, _ = _get_raw(server.url + "/metrics")
            out = {}
            for line in body.splitlines():
                if line.startswith("#"):
                    continue
                key, _, value = line.rpartition(" ")
                out[key] = float(value)
            return out

        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            _post(server.url + "/predict", {"rows": X[:1].tolist()})
            first = scrape(server)
            _post(server.url + "/predict", {"rows": X[:1].tolist()})
            second = scrape(server)
            assert second[name] == first[name] + 1
            # Every counter and histogram series is monotone non-decreasing.
            for key, value in first.items():
                if "_total" in key or "_bucket" in key or "_count" in key:
                    assert second[key] >= value, key

    def test_error_requests_counted(self, artifact):
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    urllib.request.Request(server.url + "/predict", data=b"not json"),
                    timeout=10,
                )
            body, _ = _get_raw(server.url + "/metrics")
            assert 'serve_http_responses_total{path="/predict",status="400"} 1' in body
            # Unknown paths are clamped to "other" so metric cardinality
            # stays bounded under path scans.
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/scan-me", timeout=10)
            body, _ = _get_raw(server.url + "/metrics")
            assert 'serve_http_responses_total{path="other",status="404"} 1' in body


class TestLatencyQuantiles:
    def test_healthz_reports_quantiles(self, artifact, serve_problem):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            for i in range(4):
                _post(server.url + "/predict", {"rows": X[i : i + 2].tolist()})
            body, _ = _get_raw(server.url + "/healthz")
            batcher = json.loads(body)["batcher"]
            for key in (
                "request_latency_p50",
                "request_latency_p99",
                "queue_wait_p50",
                "queue_wait_p99",
                "batch_requests_p50",
                "batch_requests_p99",
                "batch_rows_p50",
                "batch_rows_p99",
            ):
                assert key in batcher, key
            assert 0 < batcher["request_latency_p50"] <= batcher["request_latency_p99"]
            assert 0 < batcher["queue_wait_p50"] <= batcher["queue_wait_p99"]
            assert batcher["batch_rows_p50"] >= 1
            # One queue-wait observation per served request.
            queue_wait = server.service.metrics.get("serve_queue_wait_seconds")
            assert queue_wait.count == batcher["requests"] == 4

    def test_stats_quantiles_in_process(self, artifact, serve_problem):
        X, _ = serve_problem
        service = PipelineService(artifact, max_wait_ms=0.0)
        try:
            for _ in range(3):
                service.predict(X[:2])
            stats = service.batcher.stats()
            assert stats["requests"] == 3
            assert stats["request_latency_p99"] >= stats["request_latency_p50"] > 0
            assert stats["batch_rows_p50"] == 2
        finally:
            service.close()


class TestAccessLog:
    def test_opt_in_stream_receives_lines(self, artifact, serve_problem):
        X, _ = serve_problem
        log = io.StringIO()
        with InferenceServer(
            artifact, port=0, max_wait_ms=0.5, access_log=log
        ) as server:
            _post(server.url + "/predict", {"rows": X[:1].tolist()})
            _get_raw(server.url + "/healthz")
        lines = [line for line in log.getvalue().splitlines() if line]
        assert any('"POST /predict' in line for line in lines)
        assert any('"GET /healthz' in line for line in lines)

    def test_default_is_silent(self, artifact, serve_problem, capsys):
        X, _ = serve_problem
        with InferenceServer(artifact, port=0, max_wait_ms=0.5) as server:
            _post(server.url + "/predict", {"rows": X[:1].tolist()})
        captured = capsys.readouterr()
        assert "POST /predict" not in captured.err
        assert "POST /predict" not in captured.out
