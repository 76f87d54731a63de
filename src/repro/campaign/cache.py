"""Content-addressed on-disk store of computed schedules.

The cache maps a job digest (see :func:`repro.campaign.jobs.job_digest`)
to the job's full execution document: the deterministic measurement
record plus the serialized FTBAR schedule.  Because the key is a content
hash of the problem and configuration, the cache is shared *across*
campaigns — any campaign that expands to an already-solved problem reads
the schedule back instead of recomputing it.

Entries are sharded two-hex-characters deep (``ab/abcdef....json``) so
directories stay small on large corpora, and written atomically
(temp file + ``os.replace``) so a killed campaign never leaves a torn
entry behind.

A cached document is **never trusted on faith**:

* every entry is wrapped in a checksum envelope — ``{"checksum":
  sha256(canonical payload), "payload": document}`` — verified on every
  read (entries from before the envelope are still accepted);
* an entry that fails the checksum, carries the wrong digest, or does
  not parse is moved to ``<cache>/quarantine/`` for forensics, reported
  through :meth:`ScheduleCache.pop_corruptions` (the campaign layer
  turns those into structured ``cache_corrupt`` store events) and the
  job is recomputed;
* ``ENOSPC`` on a write flips the cache **read-only** instead of
  failing jobs: a full disk costs cache misses, never results.  The
  flip warns once per instance with
  :class:`~repro.exceptions.CacheDegradedWarning`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import warnings
from contextlib import suppress
from pathlib import Path

from repro import obs
from repro.core.retry import retry_io
from repro.exceptions import CacheDegradedWarning, SerializationError
from repro.faultinject import failpoint


def _checksum(payload: dict) -> str:
    """SHA-256 over the canonical serialization of one cached document."""
    return _digest_text(json.dumps(payload, sort_keys=True))


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _envelope(payload: dict) -> str:
    """``json.dumps({"checksum": ..., "payload": payload}, sort_keys=True)``
    with the payload encoded once.

    Nested values encode exactly as they would at the top level, and
    ``"checksum"`` sorts before ``"payload"``, so splicing the payload
    text between the two keys reproduces the one-call bytes; the
    checksum is a hex string, which needs no escaping.
    """
    text = json.dumps(payload, sort_keys=True)
    return f'{{"checksum": "{_digest_text(text)}", "payload": {text}}}'


class ScheduleCache:
    """A content-addressed directory of executed-job documents."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / "quarantine"
        self._degraded = False
        self._corruptions: list[dict] = []

    @property
    def degraded(self) -> bool:
        """True once ``ENOSPC`` flipped this cache read-only."""
        return self._degraded

    def pop_corruptions(self) -> list[dict]:
        """Drain the corrupt entries found since the last drain.

        Each entry: ``{"digest", "reason", "quarantined_to"}``.  The
        campaign layer appends these as ``cache_corrupt`` store events
        so a quarantined entry leaves an audit trail, not just a miss.
        """
        drained, self._corruptions = self._corruptions, []
        return drained

    def path_for(self, digest: str) -> Path:
        """Where the entry of one digest lives (sharded by prefix)."""
        if len(digest) < 3:
            raise SerializationError(f"invalid cache digest {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    def get(self, digest: str) -> dict | None:
        """Read one verified entry, or ``None`` when absent or corrupt.

        A corrupt entry (failed checksum, wrong digest, unparseable
        bytes) is quarantined — never trusted, never silently served —
        and the caller recomputes the job.
        """
        path = self.path_for(digest)
        if not path.exists():
            return None
        try:
            failpoint("cache.get.read", key=digest)
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(digest, path, "unreadable entry")
            return None
        payload, reason = self._verify(digest, document)
        if payload is None:
            self._quarantine(digest, path, reason)
            return None
        return payload

    def _verify(self, digest: str, document) -> tuple[dict | None, str]:
        """Validate one raw cache document -> (payload, failure reason)."""
        if not isinstance(document, dict):
            return None, "entry is not a JSON object"
        if "checksum" in document and "payload" in document:
            payload = document["payload"]
            if not isinstance(payload, dict):
                return None, "payload is not a JSON object"
            if _checksum(payload) != document["checksum"]:
                return None, "checksum mismatch"
            if payload.get("digest") != digest:
                return None, "digest mismatch"
            return payload, ""
        # Legacy entry from before the checksum envelope: the digest
        # self-identification is the only integrity check available.
        if document.get("digest") != digest:
            return None, "digest mismatch"
        return document, ""

    def _quarantine(self, digest: str, path: Path, reason: str) -> None:
        quarantined: str | None = None
        with suppress(OSError):
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"{path.name}.{os.getpid()}"
            os.replace(path, target)
            quarantined = str(target)
        self._corruptions.append(
            {"digest": digest, "reason": reason, "quarantined_to": quarantined}
        )
        obs.event("warn.cache_corrupt", digest=digest[:12], reason=reason)
        obs.metrics.inc("cache.corrupt_entries")

    def put(self, digest: str, document: dict) -> Path | None:
        """Atomically write one checksummed entry; last writer wins.

        Returns the entry path, or ``None`` when the write was skipped
        (cache degraded read-only) or failed — a cache write is always
        best-effort: the job's result is already safe in the store.
        """
        if self._degraded:
            return None
        path = self.path_for(digest)
        body = _envelope(document)
        temporary = path.parent / f".{path.name}.{os.getpid()}.tmp"

        def attempt() -> None:
            fault = failpoint("cache.put.write", key=digest)
            text = body
            if fault is not None:
                text = fault.apply_text(text)
            temporary.write_text(text)
            if fault is not None and fault.kind == "torn_write":
                raise fault.error()
            failpoint("cache.put.replace", key=digest)
            os.replace(temporary, path)

        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # ENOSPC is an answer, not a transient: don't retry it.
            retry_io(
                attempt,
                attempts=3,
                base_s=0.005,
                cap_s=0.05,
                should_retry=lambda e: getattr(e, "errno", None)
                != errno.ENOSPC,
            )
        except OSError as error:
            with suppress(OSError):
                temporary.unlink()
            if getattr(error, "errno", None) == errno.ENOSPC:
                self._degrade(error)
            else:
                obs.event(
                    "warn.cache_put_failed",
                    digest=digest[:12],
                    error=str(error),
                )
                obs.metrics.inc("cache.put_failures")
            return None
        return path

    def _degrade(self, error: OSError) -> None:
        self._degraded = True
        warnings.warn(
            CacheDegradedWarning(
                f"schedule cache {self.root} is out of space ({error}); "
                "continuing read-only — existing entries keep serving, "
                "new results are computed but not cached"
            ),
            stacklevel=3,
        )
        obs.event("warn.cache_degraded", root=str(self.root), error=str(error))
        obs.metrics.gauge("cache.degraded", 1)
