"""Append-only JSONL result store making campaigns resumable.

Every completed job appends exactly one line; a line is written with a
single ``write()`` call and flushed (``fsync``) before the runner moves
on, so a killed campaign loses at most the line being written when the
signal landed.  ``load()`` tolerates that torn tail by skipping the
final line when it is not valid JSON.

Corruption never stops an iteration: a corrupt *interior* line (bit
rot, a torn write that later appends glued over, an injected fault)
is skipped and counted — each one surfaces as a structured
``warn.store_corrupt_line`` trace event, a ``store.corrupt_lines``
counter, and an entry in :attr:`ResultStore.corrupt_lines` that
``repro campaign status`` reports.  A skipped line only ever costs a
recompute: the job's digest goes unrecorded, so resume logic simply
runs it again.

Appends are self-healing: each durable write runs under the shared
transient-I/O retry policy (:func:`repro.core.retry.retry_io`), and
every attempt re-repairs the torn tail first — so a fault injected
mid-append (:mod:`repro.faultinject`) costs one backoff, not a record.

Each line separates the *deterministic* measurement record (identical
across runs, worker counts and machines) from the volatile envelope
(wall-clock timing, cache provenance, completion timestamp) so stores
from different runs of the same campaign can be compared byte-for-byte
modulo the envelope.

Besides result lines the store carries *worker event* lines
(``{"event": kind, ...}``) — structured operational facts such as a
directory worker reclaiming an expired lease.  Events are part of the
run's history, not of any job's measurement, so every record accessor
(:meth:`ResultStore.load`, :meth:`~ResultStore.digests`,
:meth:`~ResultStore.diffable_lines`) skips them; they are read back
through :meth:`ResultStore.events` and harvested into a sidecar by
``repro campaign merge``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.core.retry import retry_io
from repro.faultinject import failpoint

#: Envelope keys that legitimately differ between two runs of the same
#: campaign (used by tests and ``diffable_lines``).
VOLATILE_KEYS = ("elapsed_s", "finished_at", "source", "obs")


class ResultStore:
    """An append-only JSONL file of per-job results, keyed by digest."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Corrupt interior lines found by the most recent full scan:
        #: ``[{"line": 1-based number, "chars": length}, ...]``.
        self.corrupt_lines: list[dict] = []

    def exists(self) -> bool:
        """True when the store file is present on disk."""
        return self.path.exists()

    def _drop_torn_tail(self) -> None:
        """Truncate a trailing half-written line left by a hard kill.

        Without this, appending to a file whose last write was torn
        would glue the new line onto the fragment, losing both — the
        fragment carries no recoverable result, so cutting it back to
        the last complete line is safe.
        """
        try:
            with open(self.path, "r+b") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) == b"\n":
                    return
                handle.seek(0)
                content = handle.read()
                handle.truncate(content.rfind(b"\n") + 1)
        except OSError:  # no store file yet
            return

    def append(
        self,
        digest: str,
        record: dict,
        *,
        elapsed_s: float = 0.0,
        source: str = "computed",
        telemetry: dict | None = None,
    ) -> None:
        """Durably append one result line (repairing any torn tail).

        ``telemetry`` is the job's summary (``timing.obs`` of an
        execution document); directory workers ship it to the runner
        this way.  Like the rest of the envelope it never reaches a
        merged store.
        """
        line = {
            "digest": digest,
            "record": record,
            "elapsed_s": elapsed_s,
            "source": source,
            "finished_at": time.time(),
        }
        if telemetry is not None:
            line["obs"] = telemetry
        self._append_line(json.dumps(line, sort_keys=True), key=digest)

    def append_event(self, kind: str, **fields) -> None:
        """Durably append one worker-event line (e.g. a lease reclaim).

        Events record *how* a campaign ran (lease reclaims, exhausted
        retries), never *what* it measured — they carry wall-clock data
        and worker identities, so every record accessor skips them and
        ``campaign merge`` routes them to an events sidecar instead of
        the canonical merged store.
        """
        line = json.dumps(
            {"event": kind, **fields, "recorded_at": time.time()},
            sort_keys=True,
        )
        self._append_line(line, key=kind)

    def _append_line(self, line: str, key: str | None = None) -> None:
        def attempt() -> None:
            # Re-repairing on *every* attempt is what makes retries
            # heal a torn write instead of gluing onto the fragment.
            self._drop_torn_tail()
            payload = line + "\n"
            fault = failpoint("store.append.write", key=key)
            if fault is not None:
                payload = fault.apply_text(payload)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                if fault is not None and fault.kind == "torn_write":
                    raise fault.error()
                failpoint("store.append.fsync", key=key)
                os.fsync(handle.fileno())

        retry_io(attempt, attempts=3, base_s=0.005, cap_s=0.05)

    def lines(self) -> Iterator[dict]:
        """Iterate the recorded lines; corruption is skipped, never fatal.

        A torn *final* line is the expected residue of a killed run and
        is dropped silently (the next append repairs it).  A corrupt
        *interior* line is counted into :attr:`corrupt_lines` and
        reported as a ``warn.store_corrupt_line`` event — the digest it
        carried simply stays unrecorded, so resume recomputes it.
        """
        if not self.path.exists():
            return
        self.corrupt_lines = []
        # errors="replace": external corruption can break UTF-8 itself;
        # a mangled decode then fails JSON parsing below like any other
        # corrupt line instead of killing the whole iteration.
        raw = self.path.read_text(
            encoding="utf-8", errors="replace"
        ).splitlines()
        for number, text in enumerate(raw):
            if not text.strip():
                continue
            try:
                line = json.loads(text)
                if not isinstance(line, dict):
                    raise ValueError("line is not a JSON object")
            except (json.JSONDecodeError, ValueError):
                if number == len(raw) - 1:
                    return  # torn tail of a killed run
                self.corrupt_lines.append(
                    {"line": number + 1, "chars": len(text)}
                )
                obs.event(
                    "warn.store_corrupt_line",
                    store=str(self.path),
                    line=number + 1,
                )
                obs.metrics.inc("store.corrupt_lines")
                continue
            yield line

    def records(self) -> Iterator[dict]:
        """Iterate the result lines only (worker-event lines skipped)."""
        for line in self.lines():
            if "digest" in line:
                yield line

    def events(self) -> Iterator[dict]:
        """Iterate the worker-event lines only (result lines skipped)."""
        for line in self.lines():
            if "event" in line and "digest" not in line:
                yield line

    def load(self) -> dict[str, dict]:
        """Map digest -> deterministic record (last occurrence wins)."""
        return {line["digest"]: line["record"] for line in self.records()}

    def digests(self) -> set[str]:
        """The set of digests already recorded (the resume skip-list)."""
        return {line["digest"] for line in self.records()}

    def diffable_lines(self) -> list[dict]:
        """The recorded lines with the volatile envelope stripped.

        Two runs of the same campaign (uninterrupted vs killed+resumed,
        computed vs cache-served) agree on this view exactly.  Event
        lines are omitted whole: which worker reclaimed which lease is
        legitimately different between two runs.
        """
        stripped = []
        for line in self.records():
            stripped.append(
                {k: v for k, v in line.items() if k not in VOLATILE_KEYS}
            )
        return stripped
