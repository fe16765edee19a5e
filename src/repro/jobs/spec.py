"""Sweep specs and per-job directories — the on-disk truth of a job fleet.

A :mod:`repro.jobs` sweep is a directory, not a process. Everything a
worker needs lives under it, and everything a worker produces returns to
it, so any process — the supervisor, a worker, a scheduler array task, a
human with ``ls`` — can die at any instruction and a restart converges::

    sweep_dir/
      spec.json           # commit point: the sweep exists once this does
      data.npz            # X / y, exact-byte numpy round trip
      jobs/seed=<s>/
        lease.json        # who is running this job, heartbeat-renewed
        checkpoint.pkl    # SearchSession checkpoint (atomic, resumable)
        result.pkl        # digest-framed final FastFTResult (atomic)
        attempts.json     # supervisor bookkeeping: retries, backoff
        failed.json       # permanent-failure marker after max_retries
      cache/<owner>.log   # durable oracle cache segments (repro.jobs.cache)

Invariants:

- every durable file is published with tmp + ``os.replace`` + fsync
  (:mod:`repro.core.fsio`), so readers see *absent* or *complete*, never torn;
- job dirs are idempotent: re-running a job that already has a valid
  result is a no-op, and re-running a crashed job resumes from its last
  checkpoint (bit-identical continuation — the PR 1 contract);
- results carry a sha256 digest frame, so external corruption is detected
  at load and the job is retried instead of poisoning the gather;
- leases are advisory but crash-safe: claimed with ``O_CREAT | O_EXCL``,
  renewed atomically, reclaimed by the supervisor once the heartbeat goes
  stale. Two workers briefly owning one job (reclaim racing a frozen but
  live worker) is *benign by construction*: both run the same
  deterministic search, checkpoints and results are atomic and
  content-identical, and cache segments are per-owner.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import FastFTConfig
from repro.core.fsio import atomic_write_bytes, atomic_write_text

__all__ = [
    "SweepSpec",
    "JobDir",
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "SPEC_FILE",
    "DATA_FILE",
    "make_owner_id",
    "init_sweep",
    "load_spec",
    "load_data",
    "job_dirs",
]

SPEC_FORMAT = "fastft-sweep"
SPEC_VERSION = 1
SPEC_FILE = "spec.json"
DATA_FILE = "data.npz"
CACHE_DIRNAME = "cache"
JOBS_DIRNAME = "jobs"

RESULT_FORMAT = "fastft-job-result"
RESULT_VERSION = 1
# 8-byte magic + 32-byte sha256 of the payload, then the payload itself.
RESULT_MAGIC = b"FFTJOBR\x01"


def make_owner_id() -> str:
    """A lease owner id unique across hosts, processes and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class SweepSpec:
    """The serializable description of one multi-seed sweep.

    ``config`` is the *base* config; each job runs ``replace(config,
    seed=<job seed>)``, exactly like the in-process pool backend, which is
    what makes the two backends bit-identical.
    """

    task: str
    seeds: list[int]
    config: FastFTConfig = field(default_factory=FastFTConfig)
    feature_names: list[str] | None = None
    name: str = "sweep"
    lease_timeout: float = 30.0
    max_retries: int = 2
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        self.seeds = [int(s) for s in self.seeds]
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be unique, got {self.seeds}")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def to_jsonable(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "name": self.name,
            "task": self.task,
            "seeds": list(self.seeds),
            "feature_names": self.feature_names,
            "lease_timeout": self.lease_timeout,
            "max_retries": self.max_retries,
            "checkpoint_every": self.checkpoint_every,
            "config": self.config.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "SweepSpec":
        if payload.get("format") != SPEC_FORMAT:
            raise ValueError("not a FastFT sweep spec")
        if payload.get("version") != SPEC_VERSION:
            raise ValueError(
                f"unsupported sweep-spec version {payload.get('version')!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        return cls(
            task=payload["task"],
            seeds=[int(s) for s in payload["seeds"]],
            config=FastFTConfig.from_jsonable(payload["config"]),
            feature_names=payload.get("feature_names"),
            name=payload.get("name", "sweep"),
            lease_timeout=float(payload.get("lease_timeout", 30.0)),
            max_retries=int(payload.get("max_retries", 2)),
            checkpoint_every=int(payload.get("checkpoint_every", 1)),
        )


def init_sweep(sweep_dir: str, X: np.ndarray, y: np.ndarray, spec: SweepSpec) -> None:
    """Materialize a sweep directory; ``spec.json`` is the commit point.

    Writing order matters for crash safety: data first, the spec last and
    atomically — a directory without a readable ``spec.json`` is simply
    not a sweep yet, whatever else a crashed initializer left behind.
    """
    sweep_dir = os.fspath(sweep_dir)
    os.makedirs(sweep_dir, exist_ok=True)
    os.makedirs(os.path.join(sweep_dir, JOBS_DIRNAME), exist_ok=True)
    os.makedirs(os.path.join(sweep_dir, CACHE_DIRNAME), exist_ok=True)
    for seed in spec.seeds:
        os.makedirs(JobDir(sweep_dir, seed).path, exist_ok=True)

    data = io.BytesIO()
    np.savez(data, X=np.asarray(X), y=np.asarray(y))
    atomic_write_bytes(os.path.join(sweep_dir, DATA_FILE), data.getvalue())
    atomic_write_text(
        os.path.join(sweep_dir, SPEC_FILE),
        json.dumps(spec.to_jsonable(), indent=2) + "\n",
    )


def load_spec(sweep_dir: str) -> SweepSpec:
    path = os.path.join(os.fspath(sweep_dir), SPEC_FILE)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"{sweep_dir!r} is not an initialized sweep directory (no {SPEC_FILE})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not a readable sweep spec: {exc}") from exc
    return SweepSpec.from_jsonable(payload)


def load_data(sweep_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The exact arrays the sweep was initialized with (byte-for-byte)."""
    with np.load(os.path.join(os.fspath(sweep_dir), DATA_FILE)) as data:
        return data["X"], data["y"]


def cache_dir(sweep_dir: str) -> str:
    return os.path.join(os.fspath(sweep_dir), CACHE_DIRNAME)


def job_dirs(sweep_dir: str, spec: SweepSpec) -> "list[JobDir]":
    return [JobDir(sweep_dir, seed) for seed in spec.seeds]


class JobDir:
    """One seed's idempotent working directory: lease, checkpoint, result."""

    def __init__(self, sweep_dir: str, seed: int) -> None:
        self.sweep_dir = os.fspath(sweep_dir)
        self.seed = int(seed)
        self.path = os.path.join(self.sweep_dir, JOBS_DIRNAME, f"seed={self.seed}")
        self.lease_path = os.path.join(self.path, "lease.json")
        self.checkpoint_path = os.path.join(self.path, "checkpoint.pkl")
        self.result_path = os.path.join(self.path, "result.pkl")
        self.attempts_path = os.path.join(self.path, "attempts.json")
        self.failed_path = os.path.join(self.path, "failed.json")

    # -- leases -----------------------------------------------------------------

    def claim(self, owner: str) -> bool:
        """Try to take the lease; ``O_CREAT | O_EXCL`` makes it exclusive."""
        os.makedirs(self.path, exist_ok=True)
        try:
            fd = os.open(self.lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            now = time.time()
            payload = json.dumps(
                {"owner": owner, "acquired_at": now, "renewed_at": now,
                 "pid": os.getpid(), "host": socket.gethostname()}
            ).encode("utf-8")
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def read_lease(self) -> dict | None:
        """The lease payload, or ``None`` when unleased.

        A lease file that exists but cannot be parsed (a claimer died
        between create and write) is reported with its file mtime standing
        in for ``renewed_at``, so staleness still measures from the last
        observable activity.
        """
        try:
            with open(self.lease_path, encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        try:
            lease = json.loads(raw)
            if not isinstance(lease, dict) or "renewed_at" not in lease:
                raise ValueError
        except ValueError:
            try:
                mtime = os.stat(self.lease_path).st_mtime
            except OSError:
                return None
            lease = {"owner": None, "acquired_at": mtime, "renewed_at": mtime}
        return lease

    def renew(self, owner: str) -> bool:
        """Heartbeat: refresh ``renewed_at`` if we still own the lease.

        Returns ``False`` (without writing) when the lease is gone or owned
        by someone else — the signal for a heartbeat thread to stop rather
        than resurrect a reclaimed lease.
        """
        lease = self.read_lease()
        if lease is None or lease.get("owner") != owner:
            return False
        lease["renewed_at"] = time.time()
        atomic_write_text(self.lease_path, json.dumps(lease), fsync=False)
        return True

    def release(self, owner: str) -> bool:
        """Drop the lease if ``owner`` still holds it."""
        lease = self.read_lease()
        if lease is None or lease.get("owner") != owner:
            return False
        try:
            os.unlink(self.lease_path)
        except FileNotFoundError:
            return False
        return True

    def lease_age(self, now: float | None = None) -> float | None:
        """Seconds since the last heartbeat, or ``None`` when unleased."""
        lease = self.read_lease()
        if lease is None:
            return None
        return (now if now is not None else time.time()) - float(lease["renewed_at"])

    def reclaim_if_stale(self, timeout: float, now: float | None = None) -> bool:
        """Supervisor-side: drop a lease whose heartbeat went stale."""
        age = self.lease_age(now)
        if age is None or age <= timeout:
            return False
        try:
            os.unlink(self.lease_path)
        except FileNotFoundError:
            return False
        return True

    # -- results ----------------------------------------------------------------

    def publish_result(self, result: Any) -> None:
        """Atomically publish the job's final result with a digest frame.

        The frame (magic + sha256 + payload) is what lets a later reader
        distinguish *external* corruption from a valid file — atomic
        publication already rules out torn writes.
        """
        payload = pickle.dumps(
            {"format": RESULT_FORMAT, "version": RESULT_VERSION,
             "seed": self.seed, "result": result}
        )
        digest = hashlib.sha256(payload).digest()
        atomic_write_bytes(self.result_path, RESULT_MAGIC + digest + payload)

    def load_result(self) -> tuple[Any | None, str | None]:
        """Returns ``(result, None)`` or ``(None, reason)``.

        ``reason`` is ``None`` only on success; "missing" means the job
        never completed, anything else describes damage (digest mismatch,
        bad frame) that the supervisor should treat as a failed attempt.
        """
        try:
            with open(self.result_path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None, "missing"
        if len(blob) < len(RESULT_MAGIC) + 32 or not blob.startswith(RESULT_MAGIC):
            return None, "corrupt result: bad frame header"
        digest = blob[len(RESULT_MAGIC):len(RESULT_MAGIC) + 32]
        payload = blob[len(RESULT_MAGIC) + 32:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "corrupt result: sha256 digest mismatch"
        try:
            frame = pickle.loads(payload)
        except Exception as exc:
            return None, f"corrupt result: unreadable payload ({type(exc).__name__})"
        if (
            not isinstance(frame, dict)
            or frame.get("format") != RESULT_FORMAT
            or frame.get("seed") != self.seed
        ):
            return None, "corrupt result: frame/seed mismatch"
        return frame["result"], None

    def discard_result(self) -> None:
        try:
            os.unlink(self.result_path)
        except FileNotFoundError:
            pass

    # -- retry bookkeeping -------------------------------------------------------

    def load_attempts(self) -> dict:
        try:
            with open(self.attempts_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if isinstance(payload, dict):
                return payload
        except (OSError, json.JSONDecodeError):
            pass
        return {"count": 0, "last_error": None, "next_retry_at": 0.0}

    def record_attempt_failure(self, error: str, next_retry_at: float) -> int:
        """Count one failed attempt; returns the new attempt count."""
        attempts = self.load_attempts()
        attempts["count"] = int(attempts.get("count", 0)) + 1
        attempts["last_error"] = error
        attempts["next_retry_at"] = next_retry_at
        atomic_write_text(self.attempts_path, json.dumps(attempts), fsync=False)
        return attempts["count"]

    def mark_failed(self, error: str, attempts: int) -> None:
        atomic_write_text(
            self.failed_path,
            json.dumps({"seed": self.seed, "attempts": attempts, "last_error": error}),
        )

    def load_failed(self) -> dict | None:
        try:
            with open(self.failed_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return payload if isinstance(payload, dict) else {"last_error": "unknown"}
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return {"last_error": "unreadable failure marker"}

    def reset_failure_state(self) -> None:
        """Clear the failure marker and retry counters (manual retry)."""
        for path in (self.failed_path, self.attempts_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    # -- state ------------------------------------------------------------------

    def state(self, lease_timeout: float | None = None) -> str:
        """``done`` | ``failed`` | ``leased`` | ``stale`` | ``pending``.

        A valid result wins over everything (a job that completed after
        its failure marker was written has healed itself); ``stale`` is
        only distinguished from ``leased`` when ``lease_timeout`` is given.
        """
        result, _reason = self.load_result()
        if result is not None:
            return "done"
        if self.load_failed() is not None:
            return "failed"
        age = self.lease_age()
        if age is not None:
            if lease_timeout is not None and age > lease_timeout:
                return "stale"
            return "leased"
        return "pending"
