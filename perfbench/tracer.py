"""In-memory span tracer that times calls into the program's public API.

The benchmark adds no spans inside the program.  Instead, for a traced
run, :func:`install` wraps a fixed list of public functions and methods
(one per layer boundary) so that every call records a span — name,
start, end, parent — into a :class:`Recorder`, and the counters each
layer reports are summed at the same boundaries.  Spans stay in memory
and are folded into per-layer self times when the run ends.

Module-level functions are replaced wherever a ``repro`` module bound
them by name (``from x import f``), so internal callers are traced too.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Recorder:
    """Spans as ``[name, start, end, parent_index]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.engines: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span measured elsewhere (another process)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent])

    def graft(self, spans: list[list]) -> None:
        """Append spans recorded by another recorder under the open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up])

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value


def self_times(spans: list[list], root: str | None = None) -> dict[str, float]:
    """Per-name self time: duration minus the time direct children cover.

    With ``root``, only spans inside a span of that name count (the
    request boundary), and the root's own self time is reported under
    its name.
    """
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    inside = None
    if root is not None:
        inside = set()
        for index, (name, _, _, parent) in enumerate(spans):
            if name == root or (parent >= 0 and parent in inside):
                inside.add(index)
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        if inside is not None and index not in inside:
            continue
        totals[name] += (end - start) - children[index]
    return dict(totals)


# ----------------------------------------------------------------------
# instrumentation points
# ----------------------------------------------------------------------

def _wrap(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, result, args)
        return result

    return traced


def _ftbar_counters(recorder: Recorder, result, args) -> None:
    stats = result.stats
    recorder.count("ftbar.steps", stats.steps)
    recorder.count("ftbar.pressure_evaluations", stats.pressure_evaluations)
    recorder.count("ftbar.cache_hits", stats.cache_hits)
    recorder.count("ftbar.symmetry_pruned", stats.symmetry_pruned)
    recorder.count("ftbar.duplication_attempts", stats.duplication.attempts)


def _symmetry_counters(recorder: Recorder, group, args) -> None:
    recorder.count("symmetry.calls")
    if group is not None:
        recorder.count("symmetry.generators", len(group.generators))


def _certificate_counters(recorder: Recorder, certificate, args) -> None:
    for level in certificate.levels:
        recorder.count(f"certify.levels_{level.method}")
    recorder.count("certify.samples", certificate.samples)


def _engine_created(recorder: Recorder, result, args) -> None:
    # Keep only the engine's live stats object, not the engine itself.
    recorder.engines.append(args[0].stats)


def _wrap_compile(recorder: Recorder, fn, stats):
    """``CompiledProblem.__init__`` split into cold and warm calls."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = stats()
        index = recorder.open("compile")
        try:
            fn(*args, **kwargs)
        finally:
            recorder.close(index)
        after = stats()
        cold = after["core_misses"] > before["core_misses"] or (
            after["variant_misses"] > before["variant_misses"]
        )
        recorder.spans[index][0] = "compile.cold" if cold else "compile.warm"
        for key in ("core_hits", "core_misses", "variant_hits", "variant_misses"):
            recorder.count(f"compile.{key}", after[key] - before[key])

    return traced


class Installation:
    """The patches of one traced run; :meth:`remove` restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, recorder, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` alias bound to it."""
        original = getattr(module, attr)
        traced = _wrap(recorder, name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, traced)

    def method(self, recorder, cls, attr: str, name: str, after=None) -> None:
        self.set(cls, attr, _wrap(recorder, name, cls.__dict__[attr], after))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.cli  # noqa: F401  (binds the CLI's by-name imports)
    from repro.analysis import reliability
    from repro.baselines import list_scheduler
    from repro.campaign import cache, jobs, store
    from repro.core import compile as compile_module
    from repro.core.compile import CompiledProblem
    from repro.core.ftbar import FTBARScheduler
    from repro.problem import ProblemSpec
    from repro.schedule import serialization, validation
    from repro.simulation.batch import BatchScenarioEngine
    from repro.timing.constraints import RealTimeConstraints

    patches = Installation()
    fn = patches.function
    fn(recorder, serialization, "load_json", "serialization.load")
    fn(recorder, serialization, "problem_from_dict", "serialization.load")
    fn(recorder, serialization, "schedule_from_dict", "serialization.load")
    fn(recorder, serialization, "schedule_to_dict", "serialization.emit")
    fn(recorder, serialization, "save_json", "serialization.emit")
    fn(recorder, validation, "validate_schedule", "validation")
    fn(recorder, reliability, "fault_tolerance_certificate", "certify",
       _certificate_counters)
    fn(recorder, reliability, "schedule_reliability", "reliability")
    fn(recorder, list_scheduler, "schedule_non_fault_tolerant", "baseline")
    fn(recorder, jobs, "expand_jobs", "campaign.expand")
    fn(recorder, jobs, "build_problem", "campaign.build_problem")
    method = patches.method
    method(recorder, ProblemSpec, "validate", "problem.validate")
    method(recorder, FTBARScheduler, "__init__", "ftbar.init")
    method(recorder, FTBARScheduler, "run", "ftbar.run", _ftbar_counters)
    method(recorder, CompiledProblem, "symmetry_group", "symmetry",
           _symmetry_counters)
    method(recorder, RealTimeConstraints, "check", "rtc.check")
    method(recorder, BatchScenarioEngine, "__init__", "batch.compile",
           _engine_created)
    method(recorder, store.ResultStore, "append", "campaign.store")
    method(recorder, store.ResultStore, "load", "campaign.store")
    method(recorder, cache.ScheduleCache, "get", "campaign.cache")
    method(recorder, cache.ScheduleCache, "put", "campaign.cache")
    patches.set(
        CompiledProblem,
        "__init__",
        _wrap_compile(
            recorder,
            CompiledProblem.__dict__["__init__"],
            compile_module.compile_cache_stats,
        ),
    )
    return patches


def drain_engines(recorder: Recorder) -> None:
    """Fold the work counters of the batch engines created so far."""
    for stats in recorder.engines:
        recorder.count("batch.scenarios", stats.scenarios)
        recorder.count("batch.simulated", stats.simulated)
        recorder.count("batch.memo_hits", stats.memo_hits)
        recorder.count("batch.pruned_nominal", stats.pruned_nominal)
        recorder.count("batch.decisions", stats.decisions)
        recorder.count("batch.copied", stats.copied)
    recorder.engines.clear()
