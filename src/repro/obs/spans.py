"""Hierarchical timing spans over monotonic clocks.

A *span* measures one named section of work; spans nest through a
per-thread context stack, so a span opened while another is active
records it as its parent and the exporter receives a tree.  Time is
``time.perf_counter()`` — monotonic, high-resolution, never wall clock —
so traces survive NTP steps and the values are meaningful as durations
only (the trace's ``meta`` line anchors them to one wall-clock instant
for human consumption).

Design constraints, in order:

1. **The disabled path must be free.**  When tracing is off the module
   hands out one shared :data:`NOOP_SPAN` whose enter/exit do nothing —
   instrumented call sites additionally cache ``obs.tracer()`` in a
   local and skip span construction entirely, so a disabled run pays
   one attribute read per instrumented region (pinned < 2 % on
   ``bench --smoke`` by ``benchmarks/bench_obs_overhead.py``).

2. **Determinism-safety.**  Spans observe; they never feed back.  No
   scheduler, simulator or campaign decision may read span state, and
   nothing here mutates shared state beyond the exporter sink — with
   tracing on or off, schedules, counters, observer streams and content
   hashes are bit-identical (pinned by ``tests/test_obs.py``).

3. **Thread-safety.**  The context stack is thread-local (threads do
   not share parents); span ids come
   from one lock-free counter (`itertools.count`, atomic under the
   GIL); exporters serialize their own writes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

#: Name and version of the trace line format (:mod:`repro.obs.schema`).
SCHEMA_NAME = "repro-trace"
SCHEMA_VERSION = 1


class NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NoopSpan":
        """Ignore attributes (API parity with :class:`Span`)."""
        return self


#: Singleton no-op span: ``obs.span(...)`` returns this exact object
#: whenever tracing is disabled, so the disabled path allocates nothing.
NOOP_SPAN = NoopSpan()


class Span:
    """One live timing span; use as a context manager.

    ``set(**attrs)`` attaches attributes at any point before exit (for
    values only known at the end, e.g. run counters).  The span line is
    exported on exit; a span abandoned without exit exports nothing.
    """

    __slots__ = ("_tracer", "name", "id", "parent", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.id = next(tracer._ids)
        self.parent: int | None = None
        self.attrs = attrs
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self._t0 = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        t1 = tracer._clock()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (generator teardown); drop to ours
            while stack:
                if stack.pop() is self:
                    break
        line = {
            "type": "span",
            "v": SCHEMA_VERSION,
            "name": self.name,
            "id": self.id,
            "t0": self._t0,
            "t1": t1,
            "dur": t1 - self._t0,
        }
        if self.parent is not None:
            line["parent"] = self.parent
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self.attrs:
            line["attrs"] = self.attrs
        tracer._exporter.export(line)
        return False


class Tracer:
    """Factory and sink-routing for spans, events and snapshots.

    One tracer serves one telemetry stream (a trace file, or a
    campaign worker's in-memory line list).  All methods are
    thread-safe; the per-thread span stacks keep nesting correct when
    spans are opened from worker threads.  ``meta`` becomes the meta
    line's ``attrs``; ``header`` adds top-level meta-line fields (the
    start-up cost :func:`repro.obs.enable` records).
    """

    def __init__(
        self, exporter, *, meta: dict | None = None, header: dict | None = None
    ) -> None:
        self._exporter = exporter
        self._clock = time.perf_counter
        self._ids = itertools.count(1)
        self._local = threading.local()
        line = {
            "type": "meta",
            "v": SCHEMA_VERSION,
            "schema": SCHEMA_NAME,
            "clock": "perf_counter",
            "pid": os.getpid(),
            "started_wall": time.time(),
            "started": self._clock(),
            **(header or {}),
        }
        if meta:
            line["attrs"] = dict(meta)
        exporter.export(line)

    # ------------------------------------------------------------------
    # producer API
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A new span (enter it with ``with``)."""
        return Span(self, name, attrs)

    def current_id(self) -> int | None:
        """Id of the innermost active span on this thread (or None)."""
        stack = self._stack()
        return stack[-1].id if stack else None

    def event(self, name: str, **attrs) -> None:
        """Record one point-in-time event under the current span."""
        line = {
            "type": "event",
            "v": SCHEMA_VERSION,
            "name": name,
            "t": self._clock(),
        }
        parent = self.current_id()
        if parent is not None:
            line["span"] = parent
        if attrs:
            line["attrs"] = attrs
        self._exporter.export(line)

    def aggregate(
        self,
        name: str,
        total_s: float,
        count: int,
        parent: int | None = None,
        *,
        disjoint: bool = False,
        **attrs,
    ) -> None:
        """Record an *aggregate* span: summed duration over ``count`` hits.

        Used for phases timed in a loop (the kernel's sweep and place
        phases inside ``ftbar.run``) and for phases summarized
        elsewhere (a campaign worker's per-phase job totals); the
        renderer folds aggregates into the per-phase table but excludes
        them from tree coverage, since their time is already inside
        their parent span.  ``disjoint=True`` (written as
        ``agg.disjoint``) says the aggregate's time is a part of its
        parent's that no sibling also counts, so the phase table
        subtracts it from the parent's self time; re-emitted job
        summaries nest among themselves and leave it unset.
        """
        if parent is None:
            parent = self.current_id()
        agg: dict = {"count": count}
        if disjoint:
            agg["disjoint"] = True
        line = {
            "type": "span",
            "v": SCHEMA_VERSION,
            "name": name,
            "id": next(self._ids),
            "dur": total_s,
            "agg": agg,
        }
        if parent is not None:
            line["parent"] = parent
        if attrs:
            line["attrs"] = attrs
        self._exporter.export(line)

    def snapshot(self, snapshot: dict) -> None:
        """Record a metrics snapshot line (typically once, at shutdown)."""
        self._exporter.export(
            {
                "type": "metrics",
                "v": SCHEMA_VERSION,
                "t": self._clock(),
                "snapshot": snapshot,
            }
        )

    def close(self) -> None:
        """Close the underlying exporter (flushes file buffers)."""
        self._exporter.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack
