"""Unified telemetry for the FTBAR reproduction: spans, metrics, traces.

One layer instruments every subsystem — the compiled kernel's phases,
the batch scenario engine, campaign job lifecycles, the CLI commands
— and exports three things through one pipeline:

* hierarchical timing **spans** (:mod:`repro.obs.spans`) on monotonic
  clocks, nested per thread;
* a **metrics registry** (:mod:`repro.obs.metrics`) of counters /
  gauges / histograms plus pull-collectors absorbing the pre-existing
  per-subsystem counters (``FTBARStats``, the compile-cache memos, the
  batch engine's :class:`~repro.simulation.batch.BatchStats`) behind
  one ``snapshot()``;
* a schema-versioned JSONL **trace** (:mod:`repro.obs.export`,
  :mod:`repro.obs.schema`) that also records point-in-time events.

Off by default, on by request
-----------------------------
Tracing is **disabled** unless the process opts in — through the
``--trace [PATH]`` CLI flag or the ``REPRO_TRACE`` environment variable
(``1`` → ``repro-trace.jsonl`` in the working directory, any other
value → that path; ``0``/empty → off).  While disabled, ``tracer()``
returns ``None`` and ``span()`` returns the shared no-op span, so
instrumented hot paths cost one attribute read (the bound is pinned by
``benchmarks/bench_obs_overhead.py`` and CI's ``obs-smoke`` job at
< 2 % of a ``bench --smoke`` schedule run).

Determinism contract
--------------------
Telemetry observes and never feeds back: with tracing on, schedules,
evaluation counters, observer streams and content hashes are
bit-identical to an untraced run (pinned by ``tests/test_obs.py``).
All wall-clock data lives inside the trace stream and the volatile
``timing`` sections of job documents — never in deterministic records.

See ``docs/observability.md`` for the span taxonomy, metric names and
the trace schema.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro._lazy import lazy_exports
from repro.obs.metrics import MetricsRegistry, registry as metrics
from repro.obs.spans import (
    NOOP_SPAN,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    NoopSpan,
    Span,
    Tracer,
)

# The trace file writer/reader and the schema validator load on first
# use: an untraced command never runs a line of either.
__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("JsonlExporter", "ListExporter", "read_trace"),
    "schema": ("TRACE_LINE_SCHEMA", "validate_line", "validate_trace"),
})

__all__ = [
    "JsonlExporter",
    "ListExporter",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NoopSpan",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Span",
    "TRACE_LINE_SCHEMA",
    "Tracer",
    "aggregate_spans",
    "configure_from_env",
    "default_trace_path",
    "disable",
    "enable",
    "enabled",
    "event",
    "metrics",
    "read_trace",
    "scoped",
    "span",
    "tracer",
    "validate_line",
    "validate_trace",
    "worker_reset",
]

#: Default trace file when tracing is requested without a path.
_DEFAULT_TRACE = "repro-trace.jsonl"

#: The process-wide tracer; ``None`` = disabled (the fast path).
_TRACER: Tracer | None = None


def default_trace_path() -> Path:
    """Where ``REPRO_TRACE=1`` / bare ``--trace`` write their trace."""
    return Path(_DEFAULT_TRACE)


def enabled() -> bool:
    """True when a process-wide tracer is active."""
    return _TRACER is not None


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` while tracing is disabled.

    Hot paths call this once per run and branch on ``None`` — that is
    the documented no-op fast path.
    """
    return _TRACER


def enable(target=None, *, meta: dict | None = None) -> Tracer:
    """Switch process-wide tracing on and return the tracer.

    ``target`` is a path (``str`` / ``Path``), an exporter object, or
    ``None`` for :func:`default_trace_path`.  Re-enabling while a
    tracer is active closes the previous one first (last call wins) —
    each enable starts a fresh stream with its own ``meta`` line.

    The meta line records the process's start-up cost so far: the CPU
    seconds spent since the interpreter started (``startup_cpu_s`` —
    interpreter start-up plus every import made before tracing) and
    the number of modules loaded (``modules_loaded``).
    """
    global _TRACER
    startup = {
        "startup_cpu_s": time.process_time(),
        "modules_loaded": len(sys.modules),
    }
    if _TRACER is not None:
        disable()
    if target is None:
        target = default_trace_path()
    if isinstance(target, (str, Path)):
        from repro.obs.export import JsonlExporter

        target = JsonlExporter(target)
    _TRACER = Tracer(target, meta=meta, header=startup)
    return _TRACER


def disable(*, snapshot: bool = True) -> None:
    """Switch tracing off, flushing a final metrics snapshot line."""
    global _TRACER
    active, _TRACER = _TRACER, None
    if active is not None:
        if snapshot:
            active.snapshot(metrics.snapshot())
        active.close()


def configure_from_env(environ=os.environ) -> Tracer | None:
    """Honor ``REPRO_TRACE`` (CLI entry points call this once).

    ``unset``/empty/``0``/``false``/``off`` → disabled; ``1``/``true``/
    ``on``/``yes`` → the default path; anything else → that path.
    """
    value = environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "off"):
        return None
    if value.lower() in ("1", "true", "on", "yes"):
        return enable()
    return enable(value)


@contextmanager
def scoped(active: Tracer):
    """Temporarily install ``active`` as the process tracer.

    Campaign workers run each job under a private tracer bound to an
    in-memory exporter, so instrumented code below them (the scheduler,
    the batch engine) lands in the job's stream; the previous tracer —
    usually ``None`` — is restored on exit, untouched.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = active
    try:
        yield active
    finally:
        _TRACER = previous


def worker_reset() -> None:
    """Drop tracer state inherited across ``fork`` (pool initializer).

    A forked worker shares the parent's trace file descriptor; writing
    (or closing) it from the child would corrupt the parent's stream,
    so the child simply forgets the tracer and starts its metrics from
    zero.  The parent's objects are untouched.
    """
    global _TRACER
    _TRACER = None
    metrics.reset()


def span(name: str, **attrs):
    """A span under the active tracer, or the no-op span when off.

    Convenience for cool paths; hot paths should cache
    :func:`tracer` in a local instead (one lookup per run, not per
    call).
    """
    active = _TRACER
    if active is None:
        return NOOP_SPAN
    return active.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record an event when tracing is on (silently dropped when off)."""
    active = _TRACER
    if active is not None:
        active.event(name, **attrs)


def aggregate_spans(lines) -> list[dict]:
    """Fold trace lines into per-name totals (deterministic order).

    Returns ``[{"name", "total_s", "count"}, ...]`` sorted by name —
    the compact per-phase view campaign workers ship back inside job
    documents and ``BENCH_runtime.json``'s ``phase_breakdown`` records.
    Aggregate spans contribute their summed duration and count.
    """
    totals: dict[str, list[float]] = {}
    for line in lines:
        if line.get("type") != "span":
            continue
        entry = totals.setdefault(line["name"], [0.0, 0])
        entry[0] += line["dur"]
        entry[1] += line.get("agg", {}).get("count", 1)
    return [
        {"name": name, "total_s": entry[0], "count": entry[1]}
        for name, entry in sorted(totals.items())
    ]
