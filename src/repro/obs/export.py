"""Trace exporters: where finished spans, events and snapshots land.

An exporter receives one JSON-compatible dict per telemetry line and is
the only component that touches the outside world.  Two implementations
cover every use in the repo:

* :class:`JsonlExporter` — the durable form: one JSON object per line,
  appended to a file.  Writes are serialized under a lock (spans can
  finish on any thread) and buffered through
  the regular file buffer; ``close()`` flushes.  The format is
  append-only and schema-versioned (:mod:`repro.obs.schema`), so a
  consumer can stream a live file and tolerate a torn tail exactly like
  the campaign result store does.

* :class:`ListExporter` — the in-memory form used by campaign workers
  (spans travel back to the parent inside the job document instead of
  fighting over one file descriptor from many processes) and by tests.

Exporters never inspect line content; determinism is the producer's
contract (wall-clock data stays inside the trace, which is volatile by
nature — the scheduler outputs it describes are not).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.exceptions import SerializationError


class ListExporter:
    """Collect telemetry lines in memory (workers, tests, benches)."""

    def __init__(self) -> None:
        self.lines: list[dict] = []
        self._lock = threading.Lock()

    def export(self, line: dict) -> None:
        """Append one telemetry line."""
        with self._lock:
            self.lines.append(line)

    def close(self) -> None:
        """Nothing to release; kept for exporter-interface symmetry."""


class JsonlExporter:
    """Append telemetry lines to a JSONL file, one object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def export(self, line: dict) -> None:
        """Serialize and append one telemetry line (thread-safe)."""
        text = json.dumps(line, sort_keys=True, default=_jsonable)
        with self._lock:
            handle = self._handle
            if handle is None:
                return  # closed mid-run (interpreter teardown); drop
            handle.write(text + "\n")

    def close(self) -> None:
        """Flush and close the file; further exports are dropped."""
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            handle.close()


def _jsonable(value):
    """Last-resort JSON coercion for attribute values (repr, not crash)."""
    return repr(value)


#: JSON types of the trace fields the renderers read (bool is not a
#: number here, though Python's ``isinstance`` would say so).
_FIELD_TYPES = {
    "type": (str,), "name": (str,), "id": (int,), "parent": (int,),
    "t0": (int, float), "t1": (int, float), "t": (int, float),
    "dur": (int, float), "started": (int, float),
    "startup_cpu_s": (int, float), "modules_loaded": (int,),
    "attrs": (dict,), "agg": (dict,), "snapshot": (dict,),
}


def _check_line(line, where: str) -> None:
    """Reject a line the renderers would crash on, as one error line."""
    if not isinstance(line, dict):
        raise SerializationError(f"invalid trace {where}: not a JSON object")
    for key, types in _FIELD_TYPES.items():
        value = line.get(key)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, types)
        ):
            raise SerializationError(
                f"invalid trace {where}: field {key!r} has the wrong type"
            )
    agg = line.get("agg")
    if agg is not None and not isinstance(agg.get("count"), int):
        raise SerializationError(
            f"invalid trace {where}: field 'agg' has no integer count"
        )


def read_trace(path: str | Path) -> list[dict]:
    """Load a trace JSONL file, skipping a torn final line.

    Mirrors the campaign store's tolerance: a process killed mid-write
    leaves at most one half line at the tail, which carries nothing
    recoverable.  Any other undecodable line, a line that is not a JSON
    object, or a field of the wrong type raises a one-line
    :class:`~repro.exceptions.SerializationError`.
    """
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    lines: list[dict] = []
    for number, text in enumerate(raw):
        if not text.strip():
            continue
        where = f"{path} line {number + 1}"
        try:
            line = json.loads(text)
        except json.JSONDecodeError as error:
            if number == len(raw) - 1:
                break  # torn tail of a killed run
            raise SerializationError(
                f"invalid JSON in {where}: {error}"
            ) from error
        _check_line(line, where)
        lines.append(line)
    return lines
