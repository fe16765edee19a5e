"""Tests for PipelineArtifact persistence and the ArtifactRegistry."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro._version import __version__
from repro.serve import ARTIFACT_FORMAT, ArtifactRegistry, PipelineArtifact
from repro.serve.artifact import _content_hash
from tests.reference.plan import apply as reference_apply


def _race(*targets) -> list[Exception]:
    """Run each target on its own thread, started together, with a tiny
    switch interval so their steps interleave; returns what they raised."""
    barrier = threading.Barrier(len(targets))
    errors: list[Exception] = []

    def run(target):
        try:
            barrier.wait()
            target()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


class TestArtifact:
    def test_manifest_provenance(self, artifact, search_result):
        m = artifact.manifest
        assert m["format"] == ARTIFACT_FORMAT
        assert m["repro_version"] == __version__
        assert m["task"] == "classification"
        assert m["seed"] == search_result.config.seed
        assert m["best_score"] == search_result.best_score
        assert len(m["dataset_fingerprint"]) == 64
        assert m["expressions"] == search_result.plan.expressions()

    def test_transform_matches_interpreter(self, artifact, search_result, serve_problem):
        X, _ = serve_problem
        np.testing.assert_array_equal(
            artifact.transform(X), reference_apply(search_result.plan, X), strict=True
        )

    def test_predict_uses_fitted_model(self, artifact, serve_problem):
        X, y = serve_problem
        preds = artifact.predict(X)
        assert preds.shape == y.shape
        # Fitted on this training data: far better than chance.
        assert (preds == y).mean() > 0.6
        proba = artifact.predict_proba(X)
        assert proba.shape == (len(y), 2)

    def test_save_load_round_trip(self, artifact, serve_problem, tmp_path):
        X, _ = serve_problem
        artifact.save(tmp_path / "art")
        loaded = PipelineArtifact.load(tmp_path / "art")
        np.testing.assert_array_equal(loaded.transform(X), artifact.transform(X), strict=True)
        np.testing.assert_array_equal(loaded.predict(X), artifact.predict(X), strict=True)
        assert loaded.manifest == artifact.manifest
        assert loaded.expressions() == artifact.expressions()

    def test_saved_plan_diffs_cleanly(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "art")
        text = (path / "plan.json").read_text()
        assert text.endswith("\n")
        assert text.startswith("{\n")  # indent=2 formatting

    def test_resave_is_hash_stable(self, artifact, tmp_path):
        artifact.save(tmp_path / "a")
        first = PipelineArtifact.load(tmp_path / "a")
        first.save(tmp_path / "b")
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["content_hash"] == b["content_hash"]

    def test_predict_between_saves_keeps_the_hash(self, artifact, serve_problem, tmp_path):
        # Predicting caches the forest's node table, which pickling drops.
        X, _ = serve_problem
        artifact.save(tmp_path / "a")
        loaded = PipelineArtifact.load(tmp_path / "a")
        loaded.predict(X)
        loaded.predict_proba(X[:1])
        loaded.save(tmp_path / "b")
        assert (tmp_path / "a" / "model.pkl").read_bytes() == (
            tmp_path / "b" / "model.pkl"
        ).read_bytes()
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["content_hash"] == b["content_hash"]

    def test_tampered_plan_fails_verification(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "art")
        plan_file = path / "plan.json"
        plan_file.write_text(plan_file.read_text() + " ")  # any byte change
        with pytest.raises(ValueError, match="content-hash"):
            PipelineArtifact.load(path)
        # verify=False loads anyway (forensics escape hatch).
        assert PipelineArtifact.load(path, verify=False) is not None

    def test_malformed_plan_with_valid_hash_refused(self, artifact, tmp_path):
        """A float ``source_col`` under a recomputed content hash fails at
        load time, not with an ``IndexError`` on every request after it."""
        path = artifact.save(tmp_path / "art")
        plan = json.loads((path / "plan.json").read_text())
        source = next(node for node in plan["nodes"] if node["op"] is None)
        source["source_col"] = float(source["source_col"])
        plan_text = json.dumps(plan, indent=2) + "\n"
        (path / "plan.json").write_text(plan_text)
        manifest = json.loads((path / "manifest.json").read_text())
        core = {k: v for k, v in manifest.items() if k not in PipelineArtifact._DERIVED_KEYS}
        model_blob = (path / "model.pkl").read_bytes()
        manifest["content_hash"] = _content_hash(plan_text, model_blob, core)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"node {source['fid']} source_col: .* got \d\.0"):
            PipelineArtifact.load(path)

    def test_tampered_manifest_fails_verification(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "art")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["best_score"] = 0.999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="content-hash"):
            PipelineArtifact.load(path)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PipelineArtifact.load(tmp_path / "nope")

    def test_newer_version_refused(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "art")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="newer"):
            PipelineArtifact.load(path, verify=False)

    def test_model_free_artifact(self, search_result, serve_problem):
        X, _ = serve_problem
        bare = PipelineArtifact(search_result.plan, "classification")
        assert bare.transform(X).shape[1] == search_result.plan.n_features
        with pytest.raises(RuntimeError, match="no downstream model"):
            bare.predict(X)

    def test_bad_task_rejected(self, search_result):
        with pytest.raises(ValueError, match="task"):
            PipelineArtifact(search_result.plan, "clustering")


class TestRegistry:
    def test_publish_get_round_trip(self, artifact, serve_problem, tmp_path):
        X, _ = serve_problem
        reg = ArtifactRegistry(tmp_path / "reg")
        assert reg.publish(artifact, "demo") == "v0001"
        loaded = reg.get("demo")
        np.testing.assert_array_equal(loaded.predict(X), artifact.predict(X), strict=True)

    def test_versions_are_monotonic(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        assert reg.publish(artifact, "demo") == "v0001"
        assert reg.publish(artifact, "demo") == "v0002"
        assert reg.versions("demo") == ["v0001", "v0002"]
        assert reg.latest("demo") == "v0002"

    def test_get_by_version_forms(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "demo")
        reg.publish(artifact, "demo")
        for version in (1, "1", "v0001"):
            got = reg.get("demo", version=version)
            assert got.manifest["content_hash"] == artifact.manifest["content_hash"]

    def test_tag_promotion(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "demo", tag="prod")
        reg.publish(artifact, "demo")
        assert reg.tags("demo") == {"prod": "v0001"}
        # latest moved on, prod did not.
        assert reg.latest("demo") == "v0002"
        assert reg.get("demo", tag="prod").manifest == reg.get("demo", version=1).manifest
        reg.promote("demo", 2, "prod")
        assert reg.tags("demo") == {"prod": "v0002"}

    def test_list_inventory(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "a", tag="prod")
        reg.publish(artifact, "b")
        inventory = reg.list()
        assert set(inventory) == {"a", "b"}
        assert inventory["a"]["tags"] == {"prod": "v0001"}
        assert inventory["b"]["latest"] == "v0001"

    def test_unknown_lookups_raise(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        with pytest.raises(KeyError, match="No artifact"):
            reg.latest("ghost")
        reg.publish(artifact, "demo")
        with pytest.raises(KeyError, match="No version"):
            reg.get("demo", version=7)
        with pytest.raises(KeyError, match="No tag"):
            reg.get("demo", tag="prod")
        with pytest.raises(KeyError, match="unpublished"):
            reg.promote("demo", 9, "prod")

    def test_invalid_names_rejected(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(ValueError, match="Invalid artifact name"):
                reg.publish(artifact, bad)

    def test_bad_tag_leaves_no_orphan_version(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        with pytest.raises(ValueError, match="Invalid tag"):
            reg.publish(artifact, "demo", tag="bad tag!")
        assert reg.versions("demo") == []

    def test_version_and_tag_mutually_exclusive(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "demo", tag="prod")
        with pytest.raises(ValueError, match="not both"):
            reg.get("demo", version=1, tag="prod")

    def test_no_partial_version_on_failed_publish(self, artifact, tmp_path, monkeypatch):
        reg = ArtifactRegistry(tmp_path / "reg")

        def boom(path):
            raise OSError("disk full")

        monkeypatch.setattr(type(artifact), "save", lambda self, p: boom(p))
        with pytest.raises(OSError):
            reg.publish(artifact, "demo")
        assert reg.versions("demo") == []
        assert not any((tmp_path / "reg" / "demo").glob(".tmp-*"))

    def test_concurrent_promotions_never_tear_tags(self, artifact, tmp_path):
        # Two promoters of one tag race a reader re-resolving it, as a
        # server's reload does. Each promotion must publish a whole
        # tags.json: no writer may lose its staged file and no reader
        # may parse a torn one.
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "m", tag="prod")
        reg.publish(artifact, "m")
        barrier = threading.Barrier(3)
        writers_done = threading.Event()
        errors: list[Exception] = []

        def promote(version):
            try:
                barrier.wait()
                for _ in range(200):
                    reg.promote("m", version, "prod")
            except Exception as exc:
                errors.append(exc)

        def resolve():
            try:
                barrier.wait()
                while not writers_done.is_set():
                    assert reg.resolve_version("m", tag="prod") in ("v0001", "v0002")
            except Exception as exc:
                errors.append(exc)

        writers = [threading.Thread(target=promote, args=(v,)) for v in (1, 2)]
        reader = threading.Thread(target=resolve)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in (*writers, reader):
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            writers_done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*writers, reader))
        assert errors == []
        tags = json.loads((tmp_path / "reg" / "m" / "tags.json").read_text())
        assert tags["prod"] in ("v0001", "v0002")
        assert sorted(p.name for p in (tmp_path / "reg" / "m").iterdir()) == [
            "tags.json", "v0001", "v0002"
        ]

    def test_concurrent_publishes_claim_distinct_versions(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        published: list[str] = []

        def publish():
            for _ in range(25):
                published.append(reg.publish(artifact, "m"))

        assert _race(publish, publish) == []
        expected = [f"v{n:04d}" for n in range(1, 51)]
        assert sorted(published) == reg.versions("m") == expected
        for version in published:
            loaded = reg.get("m", version=version)
            assert loaded.manifest["content_hash"] == artifact.manifest["content_hash"]
        assert not any((tmp_path / "reg" / "m").glob(".tmp-*"))

    def test_concurrent_promotions_keep_every_tag(self, artifact, tmp_path):
        reg = ArtifactRegistry(tmp_path / "reg")
        reg.publish(artifact, "m")

        def promote(prefix):
            for i in range(200):
                reg.promote("m", 1, f"{prefix}{i}")

        assert _race(lambda: promote("a"), lambda: promote("b")) == []
        tags = reg.tags("m")
        assert len(tags) == 400
        assert set(tags.values()) == {"v0001"}
