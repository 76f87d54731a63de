"""The metrics registry: counters, gauges, histograms, collectors.

One process-wide :class:`MetricsRegistry` (``repro.obs.metrics``'s
``registry`` singleton, re-exported as ``repro.obs.metrics_registry``)
absorbs the repo's scattered per-subsystem counters behind a single
``snapshot()`` API:

* **counters** — monotone totals (``ftbar.steps``,
  ``obs.events.<event name>``);
* **gauges** — last-written values (``campaign.jobs.pending``);
* **histograms** — ``count/sum/min/max`` summaries of observations
  (``ftbar.run_s``) — enough for throughput and latency reporting
  without bucket-boundary bikeshedding;
* **collectors** — pull-style sources snapshotted on demand.  The
  compile-cache memos (:func:`repro.core.compile.compile_cache_stats`)
  and the live batch-simulation engines register collectors, so their
  counters keep exactly one source of truth and the registry adds zero
  work to their hot paths.

Labels: every instrument takes optional keyword labels; a labelled
series snapshots under ``name{k=v,...}`` with keys sorted, Prometheus
style.

Instrument methods take one lock per call — they are meant for
run-level and job-level accounting (the hot loops publish through
collectors or once per run), so contention is nil.  ``snapshot()``
returns plain nested dicts, JSON-ready for the trace's ``metrics``
line and the ``repro stats`` renderer.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping


def _series(name: str, labels: Mapping[str, object]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, histograms, collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}
        self._collectors: dict[str, Callable[[], Mapping]] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        key = _series(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[_series(name, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Add one observation to histogram ``name``."""
        key = _series(name, labels)
        with self._lock:
            summary = self._histograms.get(key)
            if summary is None:
                #           [count, sum,  min,   max]
                self._histograms[key] = [1, value, value, value]
            else:
                summary[0] += 1
                summary[1] += value
                if value < summary[2]:
                    summary[2] = value
                if value > summary[3]:
                    summary[3] = value

    # ------------------------------------------------------------------
    # pull-style sources
    # ------------------------------------------------------------------
    def register_collector(
        self, name: str, collect: Callable[[], Mapping]
    ) -> None:
        """Register (or replace) a pull source snapshotted on demand.

        ``collect()`` must be cheap and side-effect free; it runs only
        inside :meth:`snapshot`, never on a producer's hot path.
        """
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        """Drop a collector (no-op when absent)."""
        with self._lock:
            self._collectors.pop(name, None)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready view of everything the registry knows.

        Shape::

            {"counters":   {series: total},
             "gauges":     {series: value},
             "histograms": {series: {"count", "sum", "min", "max"}},
             "collected":  {collector: {key: value}}}

        A collector that raises is reported as
        ``{"error": "<message>"}`` instead of poisoning the snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: {
                    "count": summary[0],
                    "sum": summary[1],
                    "min": summary[2],
                    "max": summary[3],
                }
                for key, summary in self._histograms.items()
            }
            collectors = dict(self._collectors)
        collected = {}
        for name, collect in sorted(collectors.items()):
            try:
                collected[name] = dict(collect())
            except Exception as error:  # snapshot must never raise
                collected[name] = {"error": str(error)}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "collected": collected,
        }

    def reset(self) -> None:
        """Zero every instrument; collectors stay registered.

        For tests and benchmarks — mirrors
        :func:`repro.core.compile.reset_compile_cache`.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every subsystem publishes into.
registry = MetricsRegistry()
