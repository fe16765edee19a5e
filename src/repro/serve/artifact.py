"""Pipeline artifacts: the reusable product of a finished search.

FastFT's economics only work if the expensive search is paid once and the
discovered ``T*(F) → F*`` record is reused many times (the traceability
property the paper makes central). A :class:`PipelineArtifact` is that
record made operational: the transformation plan (compiled on first use),
a downstream model fitted on the transformed training data, the human-
readable feature expressions, and a provenance manifest — search config,
seed, dataset fingerprint, repro version and a content hash — with
versioned save/load so artifacts written today remain loadable (or fail
loudly) tomorrow.

Layout on disk (one directory per artifact)::

    artifact/
      manifest.json   # provenance + content hash, indent=2
      plan.json       # TransformationPlan.to_json(indent=2)
      model.pkl       # pickled fitted downstream model (optional)
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.sequence import CompiledPlan, TransformationPlan, compile_plan
from repro.ml.evaluation import TASKS

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "PipelineArtifact",
    "dataset_fingerprint",
]

ARTIFACT_FORMAT = "fastft-pipeline"
ARTIFACT_VERSION = 1

_MANIFEST = "manifest.json"
_PLAN = "plan.json"
_MODEL = "model.pkl"


def dataset_fingerprint(X: np.ndarray, y: np.ndarray) -> str:
    """Content hash of a training set — ties an artifact to its data."""
    h = hashlib.sha256()
    for arr in (np.ascontiguousarray(X), np.ascontiguousarray(y)):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _content_hash(plan_text: str, model_blob: bytes | None, core: dict) -> str:
    """Hash over everything that defines the artifact's behaviour."""
    h = hashlib.sha256()
    h.update(plan_text.encode())
    h.update(model_blob or b"")
    h.update(json.dumps(core, sort_keys=True).encode())
    return h.hexdigest()


class PipelineArtifact:
    """A compiled transformation pipeline plus its provenance.

    Build one from a finished search with
    :meth:`repro.core.result.FastFTResult.to_artifact` (or directly from a
    plan); persist with :meth:`save`/:meth:`load`; serve with
    :mod:`repro.serve.server`.
    """

    def __init__(
        self,
        plan: TransformationPlan,
        task: str,
        model=None,
        manifest: dict | None = None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"Unknown task {task!r}; expected one of {TASKS}")
        plan.validate()
        self.plan = plan
        self.task = task
        self.model = model
        self.manifest = dict(manifest or {})
        self.manifest.setdefault("format", ARTIFACT_FORMAT)
        self.manifest.setdefault("version", ARTIFACT_VERSION)
        self.manifest.setdefault("repro_version", __version__)
        self.manifest.setdefault("task", task)
        self.manifest.setdefault("n_input_columns", plan.n_input_columns)
        self.manifest.setdefault("n_features", plan.n_features)
        self._compiled: CompiledPlan | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result,
        X: np.ndarray,
        y: np.ndarray,
        model=None,
        extra_manifest: dict | None = None,
    ) -> "PipelineArtifact":
        """Bundle a :class:`FastFTResult` with a model fitted on ``T*(X)``.

        ``model`` defaults to the search's own downstream oracle template
        (same forest size, depth and seed), fitted here on
        the transformed training data so the artifact predicts with the
        exact model family the search optimized for.
        """
        from repro.ml.evaluation import default_model_for_task

        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        cfg = result.config
        if model is None:
            model = default_model_for_task(
                result.task,
                n_estimators=cfg.rf_estimators,
                max_depth=cfg.rf_max_depth,
                seed=cfg.seed,
            )
        model.fit(result.plan.apply(X), y)
        manifest = {
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": cfg.seed,
            "base_score": result.base_score,
            "best_score": result.best_score,
            "dataset_fingerprint": dataset_fingerprint(X, y),
            "n_training_samples": int(X.shape[0]),
            "config": {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()
            },
            "expressions": result.plan.expressions(),
        }
        manifest.update(extra_manifest or {})
        return cls(result.plan, result.task, model=model, manifest=manifest)

    # -- execution -------------------------------------------------------------

    @property
    def compiled(self) -> CompiledPlan:
        """The compiled program (built on first access, then cached)."""
        if self._compiled is None:
            self._compiled = compile_plan(self.plan)
        return self._compiled

    def transform(self, X: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Run the cached compiled program: ``plan.apply`` without the compile."""
        return self.compiled.apply(X, chunk_size=chunk_size)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("Artifact carries no downstream model; use transform()")
        return self.model.predict(self.transform(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("Artifact carries no downstream model; use transform()")
        if not hasattr(self.model, "predict_proba"):
            raise AttributeError("Downstream model does not expose predict_proba")
        return self.model.predict_proba(self.transform(X))

    def expressions(self) -> list[str]:
        return self.plan.expressions()

    # -- persistence -----------------------------------------------------------

    # Derived-at-save keys, excluded from the hashed portion so that a
    # load-then-resave round trip reproduces the same content hash.
    _DERIVED_KEYS = ("content_hash", "has_model")

    def _core_manifest(self) -> dict:
        """Manifest minus the derived keys (the hashed portion)."""
        return {k: v for k, v in self.manifest.items() if k not in self._DERIVED_KEYS}

    def save(self, path: str | Path) -> Path:
        """Write the artifact directory; returns its path."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        plan_text = self.plan.to_json(indent=2) + "\n"
        model_blob = pickle.dumps(self.model) if self.model is not None else None
        core = self._core_manifest()
        manifest = dict(core)
        manifest["content_hash"] = _content_hash(plan_text, model_blob, core)
        manifest["has_model"] = model_blob is not None
        (path / _PLAN).write_text(plan_text)
        if model_blob is not None:
            (path / _MODEL).write_bytes(model_blob)
        (path / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.manifest = manifest
        return path

    @classmethod
    def load(cls, path: str | Path, verify: bool = True) -> "PipelineArtifact":
        """Load an artifact directory, verifying format and content hash."""
        path = Path(path)
        manifest_path = path / _MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(f"No artifact manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ValueError(f"{path} is not a {ARTIFACT_FORMAT} artifact")
        if int(manifest.get("version", -1)) > ARTIFACT_VERSION:
            raise ValueError(
                f"Artifact version {manifest['version']} is newer than this "
                f"repro ({ARTIFACT_VERSION}); upgrade to load it"
            )
        plan_text = (path / _PLAN).read_text()
        model_blob = (path / _MODEL).read_bytes() if (path / _MODEL).is_file() else None
        if verify:
            core = {k: v for k, v in manifest.items() if k not in cls._DERIVED_KEYS}
            expected = manifest.get("content_hash")
            actual = _content_hash(plan_text, model_blob, core)
            if expected != actual:
                raise ValueError(
                    f"Artifact at {path} failed content-hash verification "
                    f"(expected {expected}, got {actual})"
                )
        plan = TransformationPlan.from_json(plan_text)
        model = pickle.loads(model_blob) if model_blob is not None else None
        return cls(plan, manifest["task"], model=model, manifest=manifest)

    @property
    def short_hash(self) -> str | None:
        """First 12 hex chars of the content hash (None before save).

        The serving layer uses this as the default artifact version label
        when the artifact was not resolved through a registry version.
        """
        content_hash = self.manifest.get("content_hash")
        return content_hash[:12] if content_hash else None

    def summary(self) -> dict:
        """Compact description for logs and the server's /healthz."""
        return {
            "task": self.task,
            "n_input_columns": self.plan.n_input_columns,
            "n_features": self.plan.n_features,
            "has_model": self.model is not None,
            "content_hash": self.manifest.get("content_hash"),
            "repro_version": self.manifest.get("repro_version"),
            "best_score": self.manifest.get("best_score"),
        }
