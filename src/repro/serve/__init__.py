"""The serving layer: from finished search to production inference.

A FastFT search is expensive; its product — the transformation plan plus a
fitted downstream model — should be cheap to reuse. This package makes the
``T*(F) → F*`` record operational:

- :mod:`repro.serve.compile`  — the plan compiler, re-exported from
  :mod:`repro.core.sequence`: a :class:`TransformationPlan` DAG flattened
  into the vectorized, CSE-deduplicated program ``plan.apply`` runs, with
  chunked execution.
- :mod:`repro.serve.artifact` — :class:`PipelineArtifact`: compiled plan +
  fitted model + provenance manifest, with versioned save/load and
  content-hash verification.
- :mod:`repro.serve.registry` — :class:`ArtifactRegistry`: disk-backed
  versioned publish/get/list/latest with tag promotion.
- :mod:`repro.serve.server`   — :class:`InferenceServer`: a micro-batching
  JSON-over-HTTP server on the standard library's threaded HTTP server
  (``/transform``, ``/predict``, ``/healthz``) with an in-process
  :class:`PipelineService` client for socket-free use.

Quickstart::

    result = api.search(X, y, task="classification", episodes=12)
    artifact = result.to_artifact(X, y)

    registry = ArtifactRegistry("registry/")
    version = registry.publish(artifact, "churn", tag="prod")

    with InferenceServer(registry.get("churn", tag="prod"), port=0) as srv:
        ...  # POST rows to f"{srv.url}/predict"
"""

from repro.serve.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    PipelineArtifact,
    dataset_fingerprint,
)
from repro.serve.compile import CompiledPlan, Instruction, compile_plan
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import (
    DeadlineExceededError,
    InferenceServer,
    InvalidRequestError,
    MicroBatcher,
    PipelineService,
    QueueFullError,
    ServiceUnavailableError,
    ShadowRouter,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "PipelineArtifact",
    "dataset_fingerprint",
    "CompiledPlan",
    "Instruction",
    "compile_plan",
    "ArtifactRegistry",
    "DeadlineExceededError",
    "InferenceServer",
    "InvalidRequestError",
    "MicroBatcher",
    "PipelineService",
    "QueueFullError",
    "ServiceUnavailableError",
    "ShadowRouter",
]
