"""repro.jobs.spec: sweep dirs, leases, result frames, retry bookkeeping.

Pure file-protocol tests — no searches run here."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.config import FastFTConfig
from repro.jobs.chaos import flip_byte, truncate_tail
from repro.jobs.launcher import render_launcher, write_launcher
from repro.jobs.spec import JobDir, SweepSpec, init_sweep, load_data, load_spec


@pytest.fixture
def sweep(tmp_path):
    d = str(tmp_path / "sweep")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 3))
    y = (X[:, 0] > 0).astype(int)
    spec = SweepSpec(task="classification", seeds=[0, 7], lease_timeout=5.0)
    init_sweep(d, X, y, spec)
    return d, X, y, spec


class TestSpec:
    def test_round_trip_and_exact_data(self, sweep):
        d, X, y, spec = sweep
        loaded = load_spec(d)
        assert loaded == spec
        X2, y2 = load_data(d)
        assert X2.tobytes() == X.tobytes() and y2.tobytes() == y.tobytes()

    def test_config_tuples_survive_json(self, tmp_path):
        cfg = FastFTConfig(predictor_head_dims=(8, 4))
        spec = SweepSpec(task="classification", seeds=[0], config=cfg)
        restored = SweepSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable()))
        )
        assert restored.config == cfg

    @pytest.mark.parametrize(
        "old",
        [
            dict(inner_loop="arena", oracle_engine="presort", cv_jobs=1),
            dict(inner_loop="naive", oracle_engine="naive", cv_jobs=2),
            dict(cv_jobs=-1),
        ],
    )
    def test_spec_with_removed_switches_loads(self, sweep, old):
        """Sweep specs written by builds that still had these config
        switches load, minus the switches."""
        d, _, _, spec = sweep
        path = os.path.join(d, "spec.json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["config"].update(old)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert load_spec(d) == spec

    def test_spec_with_unknown_config_key_fails(self, sweep):
        """A spec whose config carries a field this build does not know
        (one written by a newer build) fails to load, naming the field."""
        d, _, _, _ = sweep
        path = os.path.join(d, "spec.json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["config"]["future_knob"] = 3
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="future_knob"):
            load_spec(d)

    def test_uninitialized_dir_is_not_a_sweep(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not an initialized sweep"):
            load_spec(str(tmp_path))

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(task="classification", seeds=[])
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(task="classification", seeds=[1, 1])
        with pytest.raises(ValueError, match="lease_timeout"):
            SweepSpec(task="classification", seeds=[0], lease_timeout=0)


class TestLeases:
    def test_claim_is_exclusive_until_released(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        assert job.claim("alice")
        assert not job.claim("bob")
        assert job.state() == "leased"
        assert not job.release("bob")  # only the owner can release
        assert job.release("alice")
        assert job.state() == "pending"
        assert job.claim("bob")

    def test_renew_refuses_after_reclaim(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        assert job.claim("alice")
        assert job.renew("alice")
        assert job.reclaim_if_stale(-1.0)  # any age counts as stale
        # The zombie's heartbeat must not resurrect the lease.
        assert not job.renew("alice")
        assert job.read_lease() is None

    def test_stale_detection_uses_renewed_at(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        job.claim("alice")
        now = time.time()
        assert not job.reclaim_if_stale(10.0, now=now)
        assert job.reclaim_if_stale(10.0, now=now + 11.0)

    def test_unparseable_lease_falls_back_to_mtime(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        with open(job.lease_path, "w") as fh:
            fh.write("{torn")
        lease = job.read_lease()
        assert lease["owner"] is None
        assert job.lease_age() is not None
        assert job.reclaim_if_stale(-1.0)


class TestResults:
    def test_publish_load_round_trip(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        job.publish_result({"answer": 42})
        result, reason = job.load_result()
        assert result == {"answer": 42} and reason is None
        assert job.state() == "done"

    def test_flipped_byte_is_detected(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        job.publish_result({"answer": 42})
        flip_byte(job.result_path, -5)
        result, reason = job.load_result()
        assert result is None and "digest mismatch" in reason

    def test_truncated_frame_is_detected(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        job.publish_result({"answer": 42})
        truncate_tail(job.result_path, os.path.getsize(job.result_path) - 10)
        result, reason = job.load_result()
        assert result is None and "bad frame header" in reason

    def test_result_for_wrong_seed_is_rejected(self, sweep):
        d, *_ = sweep
        JobDir(d, 0).publish_result("zero")
        os.replace(JobDir(d, 0).result_path, JobDir(d, 7).result_path)
        result, reason = JobDir(d, 7).load_result()
        assert result is None and "seed mismatch" in reason


class TestRetryBookkeeping:
    def test_attempt_counting_and_permanent_failure(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        assert job.load_attempts()["count"] == 0
        assert job.record_attempt_failure("boom", next_retry_at=0.0) == 1
        assert job.record_attempt_failure("boom again", next_retry_at=0.0) == 2
        assert job.state() == "pending"  # still retryable
        job.mark_failed("boom again", attempts=2)
        assert job.state() == "failed"
        assert job.load_failed()["last_error"] == "boom again"
        job.reset_failure_state()
        assert job.state() == "pending"
        assert job.load_attempts()["count"] == 0

    def test_valid_result_heals_a_failure_marker(self, sweep):
        d, *_ = sweep
        job = JobDir(d, 0)
        job.mark_failed("transient", attempts=3)
        job.publish_result("late but valid")
        assert job.state() == "done"


class TestLauncher:
    def test_scripts_name_every_seed(self, sweep):
        d, *_ = sweep
        for kind in ("slurm", "shell"):
            text = render_launcher(d, kind)
            assert "--seed" in text and "0 7" in text
        path = write_launcher(d, "slurm")
        assert os.access(path, os.X_OK)
        with open(path) as fh:
            assert "#SBATCH --array=0-1" in fh.read()

    def test_unknown_kind_rejected(self, sweep):
        d, *_ = sweep
        with pytest.raises(ValueError, match="unknown launcher kind"):
            render_launcher(d, "pbs")
