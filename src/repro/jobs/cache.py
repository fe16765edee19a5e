"""Durable append-only oracle cache for fleet workers on a shared filesystem.

The in-process backends memoize downstream CV scores in RAM
(:class:`repro.ml.cache.EvaluationCache`, one per pooled job), which dies
with its process. Fleet workers instead append every freshly computed
score to a per-owner segment file under ``<sweep_dir>/cache/``, using the
*same* content-signature keys, so a score any worker ever paid for
survives every crash and seeds every restart. Scores are exact, so sharing changes how
many real CV runs a sweep costs — never its trajectory.

Crash-safety of the log itself:

- **records are line-framed and checksummed** — ``<sha1-key> <score.hex()>
  <crc32>\\n``; ``float.hex()`` round-trips bit-exactly, and the CRC covers
  key and score together;
- **appends are flush+fsync'd**, so a record either made it to the device
  whole or is a *tail*;
- **torn tails never poison earlier entries**: a loader stops at the first
  record that fails framing or CRC, and repairs (truncates) the damage —
  but only in its *own* segment, because truncating a file another live
  worker is appending to would corrupt *their* tail;
- **one segment per owner**: concurrent appenders never interleave within
  a file, which is the property NFS and friends cannot otherwise promise.

The cache subclasses :class:`EvaluationCache`, so
:meth:`~repro.ml.cache.EvaluationCache.wrap` /
:class:`~repro.ml.cache.CachedEvaluator` work unchanged, and it seeds from
/ folds back into local caches through the inherited
``merge_entries`` / ``snapshot_entries`` API. Pickling (e.g. inside a
session checkpoint) strips durability down to a plain in-memory cache —
each worker process re-attaches its own fresh segment on resume.
"""

from __future__ import annotations

import os
import warnings
import zlib

from repro.ml.cache import EvaluationCache

__all__ = [
    "DurableOracleCache",
    "encode_record",
    "load_segment",
    "load_durable_entries",
]

SEGMENT_SUFFIX = ".log"
_KEY_LEN = 40  # sha1 hexdigest


def encode_record(key: str, score: float) -> bytes:
    """One checksummed cache record: ``<key> <score.hex()> <crc32>\\n``."""
    body = f"{key} {float(score).hex()}"
    crc = zlib.crc32(body.encode("ascii"))
    return f"{body} {crc:08x}\n".encode("ascii")


def _parse_record(line: bytes) -> tuple[str, float] | None:
    """Decode one record line; ``None`` if framing or checksum fails."""
    try:
        text = line.decode("ascii")
        key, score_hex, crc_hex = text.split(" ")
    except (UnicodeDecodeError, ValueError):
        return None
    if len(key) != _KEY_LEN or len(crc_hex) != 8:
        return None
    body = f"{key} {score_hex}"
    try:
        if zlib.crc32(body.encode("ascii")) != int(crc_hex, 16):
            return None
        return key, float.fromhex(score_hex)
    except ValueError:
        return None


def load_segment(path: str, *, repair: bool = False) -> dict[str, float]:
    """Read one segment, stopping at the first damaged record.

    Damage — a torn tail from a crashed appender, or injected corruption —
    invalidates the damaged record *and everything after it* (a corrupt
    region makes later framing untrustworthy), but never the records
    before it. With ``repair=True`` the file is truncated back to the last
    valid record; only ever do that to a segment you own.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    entries: dict[str, float] = {}
    valid_end = 0
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: record never finished
        parsed = _parse_record(data[offset:newline])
        if parsed is None:
            break
        entries[parsed[0]] = parsed[1]
        offset = newline + 1
        valid_end = offset
    if repair and valid_end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            fh.flush()
            os.fsync(fh.fileno())
        warnings.warn(
            f"durable oracle cache segment {path!r} had a damaged tail; "
            f"truncated {len(data) - valid_end} byte(s), {len(entries)} "
            "earlier record(s) intact",
            RuntimeWarning,
            stacklevel=2,
        )
    return entries


def load_durable_entries(cache_dir: str) -> dict[str, float]:
    """Merge every segment under ``cache_dir`` (read-only, repair nothing).

    Segments are read in sorted name order; keys are content signatures of
    a deterministic evaluator, so duplicate keys across segments always
    carry the same score and merge order is immaterial.
    """
    entries: dict[str, float] = {}
    try:
        names = sorted(os.listdir(cache_dir))
    except FileNotFoundError:
        return entries
    for name in names:
        if name.endswith(SEGMENT_SUFFIX):
            entries.update(load_segment(os.path.join(cache_dir, name)))
    return entries


class DurableOracleCache(EvaluationCache):
    """An :class:`EvaluationCache` whose misses are durably appended.

    Parameters
    ----------
    cache_dir:
        Shared segment directory (``<sweep_dir>/cache``). Created if
        missing. All existing segments seed the in-memory store at open.
    owner:
        Segment identity for appends. ``None`` opens the cache read-only
        (loads and serves entries, never appends). Only the owner's own
        segment is tail-repaired at open.
    fsync:
        fsync every append (default). An append costs a fraction of the
        ~100ms+ CV evaluation it memoizes, so durability is cheap here.
    """

    def __init__(
        self,
        cache_dir: str,
        owner: str | None = None,
        max_entries: int = 1_000_000,
        *,
        fsync: bool = True,
    ) -> None:
        super().__init__(max_entries=max_entries)
        self._dir = os.fspath(cache_dir)
        self._owner = owner
        self._fsync = fsync
        self._fh = None
        os.makedirs(self._dir, exist_ok=True)
        own = self.segment_path
        for name in sorted(os.listdir(self._dir)):
            if not name.endswith(SEGMENT_SUFFIX):
                continue
            path = os.path.join(self._dir, name)
            self._entries.update(load_segment(path, repair=(path == own)))

    @property
    def segment_path(self) -> str | None:
        if self._owner is None:
            return None
        return os.path.join(self._dir, f"{self._owner}{SEGMENT_SUFFIX}")

    def put(self, key: str, score: float) -> None:
        score = float(score)
        known = self._entries.get(key)
        super().put(key, score)
        # Append only genuinely new knowledge: redundant puts of an
        # existing (key, score) — retries, racing result() calls — would
        # otherwise grow the log without adding information.
        if known == score or self._owner is None or self._dir is None:
            return
        if self._fh is None:
            self._fh = open(self.segment_path, "ab")
        self._fh.write(encode_record(key, score))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def refresh(self) -> int:
        """Fold in records other workers appended since open; returns new count."""
        if self._dir is None:
            return 0
        before = len(self._entries)
        for key, score in load_durable_entries(self._dir).items():
            if key not in self._entries:
                self._entries[key] = score
        return len(self._entries) - before

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __getstate__(self) -> dict:
        # Checkpoints must stay portable across processes and hosts: the
        # pickled form degrades to a plain in-memory EvaluationCache (the
        # entries travel; the open segment handle and the owner identity —
        # which is per-process — do not). Workers re-attach a fresh
        # DurableOracleCache after resume.
        state = dict(self.__dict__)
        state["_fh"] = None
        state["_dir"] = None
        state["_owner"] = None
        return state
