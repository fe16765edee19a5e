"""Disk-backed artifact registry: versioned publish/get with tag promotion.

The registry is the hand-off point between search (which produces
:class:`~repro.serve.artifact.PipelineArtifact` directories) and serving
(which loads them by name). Layout::

    registry-root/
      <name>/
        v0001/ ...      # one PipelineArtifact directory per version
        v0002/ ...
        tags.json       # {"prod": "v0001", ...}

Versions are immutable and monotonically numbered; each publish writes to
its own temporary directory and renames it into place, so a crashed publish
never leaves a half-written version visible, and the rename claims the
number: a concurrent publisher that finds its number taken takes the next.
Tags are mutable pointers (``promote``) — the usual "serve whatever *prod*
points at" workflow. ``tags.json`` is published with
:func:`~repro.core.fsio.atomic_write_text`, so a reader sees the previous
or the new mapping, never a torn file, and each promotion's
read-modify-write holds an ``flock`` on the name's directory, so
concurrent promotions never lose each other's tags. The kernel drops that
lock when its holder exits, crashed or not.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

from repro.core.fsio import atomic_write_text
from repro.serve.artifact import PipelineArtifact

__all__ = ["ArtifactRegistry"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{4,})$")
_TAGS = "tags.json"


def _version_string(number: int) -> str:
    return f"v{number:04d}"


class ArtifactRegistry:
    """Filesystem registry of published pipeline artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"Invalid artifact name {name!r}: use letters, digits, '.', '_', '-'"
            )
        return name

    def _entry_dir(self, name: str) -> Path:
        return self.root / self._check_name(name)

    def _tags_path(self, name: str) -> Path:
        return self._entry_dir(name) / _TAGS

    def _read_tags(self, name: str) -> dict[str, str]:
        path = self._tags_path(name)
        return json.loads(path.read_text()) if path.is_file() else {}

    @staticmethod
    def _normalize_version(version: int | str) -> str:
        if isinstance(version, int):
            return _version_string(version)
        if _VERSION_RE.match(version):
            return version
        if version.isdigit():
            return _version_string(int(version))
        raise ValueError(f"Invalid version {version!r}: expected an int or 'vNNNN'")

    # -- queries ---------------------------------------------------------------

    def names(self) -> list[str]:
        """Published artifact names, sorted."""
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and _NAME_RE.match(p.name) and self.versions(p.name)
        )

    def versions(self, name: str) -> list[str]:
        """All versions of ``name``, oldest first ([] when unpublished)."""
        entry = self._entry_dir(name)
        if not entry.is_dir():
            return []
        found = [p.name for p in entry.iterdir() if p.is_dir() and _VERSION_RE.match(p.name)]
        return sorted(found)

    def latest(self, name: str) -> str:
        """Highest published version of ``name``."""
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"No artifact named {name!r} in {self.root}")
        return versions[-1]

    def tags(self, name: str) -> dict[str, str]:
        """Current tag → version mapping for ``name``."""
        return dict(self._read_tags(name))

    def list(self) -> dict[str, dict]:
        """Registry inventory: name → {versions, tags, latest}."""
        return {
            name: {
                "versions": self.versions(name),
                "tags": self._read_tags(name),
                "latest": self.latest(name),
            }
            for name in self.names()
        }

    def resolve_version(
        self,
        name: str,
        version: int | str | None = None,
        tag: str | None = None,
    ) -> str:
        """Resolve (version|tag|latest) to a concrete published ``vNNNN``.

        This is the serving layer's reload hook: re-resolving a tag after
        a ``promote`` yields the new version string without loading the
        artifact, so a no-op reload stays cheap.
        """
        if version is not None and tag is not None:
            raise ValueError("Pass version or tag, not both")
        if tag is not None:
            tags = self._read_tags(name)
            if tag not in tags:
                raise KeyError(
                    f"No tag {tag!r} on {name!r}; have {sorted(tags) or 'none'}"
                )
            return tags[tag]
        if version is None:
            return self.latest(name)
        resolved = self._normalize_version(version)
        if resolved not in self.versions(name):
            raise KeyError(
                f"No version {resolved} of {name!r}; have {self.versions(name)}"
            )
        return resolved

    # -- publish / get / promote ----------------------------------------------

    def publish(
        self, artifact: PipelineArtifact, name: str, tag: str | None = None
    ) -> str:
        """Save ``artifact`` as the next version of ``name``; returns it.

        The artifact directory is written under a dot-prefixed temporary
        name and renamed into place, so concurrent readers never observe a
        partial version. ``tag`` optionally promotes the new version
        immediately.
        """
        if tag is not None and not _NAME_RE.match(tag):
            # Validate before writing anything: a bad tag must not leave an
            # orphan published version behind.
            raise ValueError(f"Invalid tag {tag!r}")
        entry = self._entry_dir(name)
        entry.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=entry, prefix=".tmp-"))
        try:
            # mkdtemp makes it owner-only; published versions get the
            # mode their name's directory was created with.
            tmp.chmod(entry.stat().st_mode & 0o777)
            artifact.save(tmp)
            existing = self.versions(name)
            number = int(_VERSION_RE.match(existing[-1]).group(1)) + 1 if existing else 1
            while True:
                version = _version_string(number)
                try:
                    tmp.rename(entry / version)
                    break
                except OSError as exc:  # a concurrent publish took the number
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                    number += 1
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if tag is not None:
            self.promote(name, version, tag)
        return version

    def get(
        self,
        name: str,
        version: int | str | None = None,
        tag: str | None = None,
        verify: bool = True,
    ) -> PipelineArtifact:
        """Load an artifact by explicit version, by tag, or latest."""
        resolved = self.resolve_version(name, version=version, tag=tag)
        path = self._entry_dir(name) / resolved
        if not path.is_dir():
            raise KeyError(
                f"No version {resolved} of {name!r}; have {self.versions(name)}"
            )
        return PipelineArtifact.load(path, verify=verify)

    def promote(self, name: str, version: int | str, tag: str) -> None:
        """Point ``tag`` at ``version`` (e.g. promote v0003 to 'prod')."""
        if not _NAME_RE.match(tag):
            raise ValueError(f"Invalid tag {tag!r}")
        resolved = self._normalize_version(version)
        if resolved not in self.versions(name):
            raise KeyError(
                f"Cannot tag unpublished version {resolved} of {name!r}; "
                f"have {self.versions(name)}"
            )
        import fcntl  # POSIX; imported here so the registry loads without it

        # Each open of the directory locks on its own, so threads exclude
        # each other too; closing the descriptor, or exiting, unlocks it.
        fd = os.open(self._entry_dir(name), os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            tags = self._read_tags(name)
            tags[tag] = resolved
            text = json.dumps(tags, indent=2, sort_keys=True) + "\n"
            atomic_write_text(self._tags_path(name), text)
        finally:
            os.close(fd)
