"""Batched failure-scenario simulation for reliability certification.

:class:`BatchScenarioEngine` answers "is this crash subset masked?" for
thousands of scenarios against one schedule — including the *combined*
processor+link subsets of link-failure certification (``npl >= 1``
schedules), which silence links exactly like a per-scenario replay
does.  A crash subset is a pair of ints, a processor mask and a link
mask whose bit ``i`` is compiled id ``i``
(:meth:`BatchScenarioEngine.crash_masks_masked`; the name entry points
only build the masks).  The engine compiles the schedule once
(:mod:`repro.simulation.compiled`), simulates the failure-free
baseline once, and then spends per scenario only what the scenario
actually requires:

* **footprint-equivalence pruning** — crash subsets that silence no
  scheduled event are grouped into the *nominal* equivalence class and
  answered from the baseline without simulating: processors (and
  links) the schedule never involves are masked out of every subset,
  and a crash instant past a resource's last involvement (a
  processor's final replica end / last sent comm / last received comm,
  a link's last transmission end) provably reproduces the baseline
  trace.  The class membership test is one ``&`` against the
  instant's quiet resources, so the exact probability sum over all
  ``2^P`` subsets stays exact while most of the lattice is never
  simulated;
* **verdict memoization** — every verdict is cached per crash instant
  under the reduced scenario key, so equivalent scenarios across
  certificate levels, crash-instant sweeps and reliability sums are
  decided once per equivalence class;
* **crash lanes** — at crash instant 0 (the certificates' default) on a
  clean ``NONE``-detection baseline with positive durations, a verdict
  depends only on which events complete, so
  :meth:`BatchScenarioEngine.crash_masks_masked` answers a whole
  request with one pass of
  :meth:`~repro.simulation.compiled.CompiledSchedule.crash_lanes`, bit
  ``i`` of every event value standing for the request's ``i``-th subset.

Whatever none of these answers gets one verdict-only replay
(:meth:`~repro.simulation.compiled.CompiledSchedule.replay`, the
production simulator) of the whole schedule.  All answers are
bit-identical to one full replay per scenario — the pruning rules are
exact theorems about the worklist semantics, and crash lanes run only
where their completion-only argument holds.  The tests pin the
verdicts against the object executor kept as the oracle
(``tests/simulation_oracle.py``).
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

from repro import obs
from repro._record import Record
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.schedule import Schedule
from repro.simulation.compiled import (
    CompiledSchedule,
    _CrashSetQueries,
)
from repro.simulation.failures import DetectionPolicy

#: Per-(crash size, link size) level ceiling of the certifier once a
#: resource count passes its enumeration cap — and the widest crash-lane
#: pass, so one pass answers a whole capped level.
MAX_SUBSETS_PER_LEVEL = 4096


class BatchStats(Record):
    """Work accounting of one :class:`BatchScenarioEngine`.

    Every field is a counter, and ``_fields`` names them all.
    """

    _fields = (
        "scenarios", "pruned_nominal", "memo_hits", "simulated",
        "decisions", "copied", "lanes", "lane_passes",
    )

    def __init__(
        self,
        scenarios: int = 0,
        pruned_nominal: int = 0,
        memo_hits: int = 0,
        simulated: int = 0,
        decisions: int = 0,
        copied: int = 0,
        lanes: int = 0,
        lane_passes: int = 0,
    ) -> None:
        #: Scenario verdicts requested (one per ``(subset, instant)``
        #: pair).
        self.scenarios = scenarios
        #: Scenarios answered from the nominal equivalence class.
        self.pruned_nominal = pruned_nominal
        #: Scenarios answered from the verdict memo.
        self.memo_hits = memo_hits
        #: Scenarios that ran a (verdict-only) replay.
        self.simulated = simulated
        #: Event decisions made across all replays (baseline included).
        self.decisions = decisions
        #: Event outcomes copied from the baseline instead of
        #: re-decided: always 0, since every replay decides its events
        #: itself; kept for the readers of this field and of the
        #: certify summary line.
        self.copied = copied
        #: Verdicts answered by a crash-lane pass instead of a replay.
        self.lanes = lanes
        #: Crash-lane passes run (each answers up to
        #: :data:`MAX_SUBSETS_PER_LEVEL` lanes).
        self.lane_passes = lane_passes


#: Live engines, tracked weakly so the metrics snapshot can total their
#: work accounting without keeping finished engines alive.
_ENGINES: "weakref.WeakSet[BatchScenarioEngine]" = weakref.WeakSet()


def _collect_batch_stats() -> dict:
    """Sum the :class:`BatchStats` of every live engine (pull-style)."""
    totals = dict.fromkeys(BatchStats._fields, 0)
    engines = 0
    for engine in list(_ENGINES):
        engines += 1
        stats = engine.stats
        for name in totals:
            totals[name] += getattr(stats, name)
    totals["engines"] = engines
    return totals


obs.metrics.register_collector("batch_sim", _collect_batch_stats)


class BatchScenarioEngine:
    """Compile-once, replay-many scenario engine for one schedule.

    Build once per ``(schedule, algorithm, detection)``; every query is
    side-effect free apart from cache growth.
    :meth:`crash_masks_masked` is the many-pairs verdict path used by the
    reliability certificates.
    """

    def __init__(
        self,
        schedule: Schedule,
        algorithm: AlgorithmGraph,
        detection: DetectionPolicy = DetectionPolicy.NONE,
    ) -> None:
        self._detection = DetectionPolicy(detection)
        #: The schedule/algorithm this engine was compiled for — callers
        #: sharing one engine across calls can (and should) check it
        #: answers for the right schedule.
        self.schedule = schedule
        self.algorithm = algorithm
        with obs.span(
            "batch.compile",
            schedule=schedule.name,
            detection=self._detection.name,
        ):
            self._compiled = CompiledSchedule(schedule, algorithm)
            self.stats = BatchStats()
            self._baseline = self._compiled.replay(None, self._detection)
        _ENGINES.add(self)
        self.stats.decisions += self._baseline.decisions
        self._baseline_delivered = self._baseline.delivered(self._compiled)
        # Nominal pruning and crash lanes need a clean, relaxation-free
        # baseline; detection knowledge additionally makes decisions
        # order-dependent, so crash lanes are NONE-only.
        self._baseline_clean = self._baseline.clean
        self._lanes_ok = (
            self._detection is DetectionPolicy.NONE and self._baseline_clean
        )
        compiled = self._compiled
        n_procs = len(compiled.proc_names)
        #: A scenario key holds processor id ``i`` at bit ``i`` and link
        #: id ``l`` at bit ``n_procs + l``.
        self._link_shift = n_procs
        self._involved_procs = sum(
            1 << proc for proc, used in enumerate(compiled.proc_involved) if used
        )
        #: Links that carry no comm never change a decision.
        self._involved_links = sum(
            1 << link for link, order in enumerate(compiled.link_order) if order
        )
        self._host_send_last = [0.0] * n_procs
        self._recv_last = [-1.0] * n_procs
        #: Baseline end of the last comm on each link — a link failing
        #: after its last transmission reproduces the baseline verbatim.
        self._link_last = [0.0] * len(compiled.link_names)
        if self._baseline_clean:
            for op, proc in enumerate(compiled.op_proc):
                end = self._baseline.op_end[op]
                if end > self._host_send_last[proc]:
                    self._host_send_last[proc] = end
            for comm in range(len(compiled.comm_events)):
                end = self._baseline.comm_end[comm]
                src = compiled.comm_src_proc[comm]
                dst = compiled.comm_dst_proc[comm]
                link = compiled.comm_link[comm]
                if end > self._host_send_last[src]:
                    self._host_send_last[src] = end
                if end > self._recv_last[dst]:
                    self._recv_last[dst] = end
                if end > self._link_last[link]:
                    self._link_last[link] = end
        #: Per crash instant: :meth:`_quiet_at`'s key bits.
        self._quiet: dict[float, int] = {}
        #: Per crash instant: verdicts by reduced scenario key.
        self._verdict_memo: dict[float, dict[int, bool]] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def detection(self) -> DetectionPolicy:
        """The failure-detection policy every replay runs with."""
        return self._detection

    @property
    def baseline_delivered(self) -> bool:
        """Whether the failure-free run delivers every operation."""
        return self._baseline_delivered

    def involved_processors(self) -> tuple[str, ...]:
        """Processors the schedule involves at all, in canonical order.

        A crash subset's verdict depends only on its intersection with
        this set (the reduction :meth:`crash_masks_masked` applies) —
        the exactness theorem the sampled certifier's involved-set
        projection is built on.
        """
        names = self._compiled.proc_names
        return tuple(names[proc] for proc in set_bits(self._involved_procs))

    def involved_links(self) -> tuple[str, ...]:
        """Links that carry at least one comm, in canonical order."""
        names = self._compiled.link_names
        return tuple(names[link] for link in set_bits(self._involved_links))

    def processor_cone_fractions(self) -> dict[str, float]:
        """Cone size of each involved processor as an event share.

        The fraction of all scheduled events reachable from the
        processor's failures through data or resource-order edges
        (:meth:`~repro.simulation.compiled.CompiledSchedule.proc_cone`);
        the sampled certifier ranks processors by it (larger cone = more
        decisions a failure can change = likelier to break).
        """
        compiled = self._compiled
        total = max(1, len(compiled.op_events) + len(compiled.comm_events))
        return {
            name: compiled.proc_cone(compiled.proc_ids[name]).bit_count()
            / total
            for name in self.involved_processors()
        }

    # ------------------------------------------------------------------
    # crash-subset verdicts (the certification hot path)
    # ------------------------------------------------------------------
    def crash_subset_masked(
        self,
        processors: Iterable[str],
        crash_times: Iterable[float],
        links: Iterable[str] = (),
    ) -> bool:
        """:meth:`crash_subsets_masked` for one ``(processors, links)`` pair."""
        return self.crash_subsets_masked(
            [(processors, links)], crash_times
        )[0]

    def crash_subsets_masked(
        self,
        pairs: Sequence[tuple[Iterable[str], Iterable[str]]],
        crash_times: Iterable[float],
    ) -> list[bool]:
        """:meth:`crash_masks_masked` for ``(processors, links)`` names.

        Names the schedule does not know are ignored.
        """
        proc_ids = self._compiled.proc_ids
        link_ids = self._compiled.link_ids
        return self.crash_masks_masked([
            (sum({1 << proc_ids[name] for name in procs if name in proc_ids}),
             sum({1 << link_ids[name] for name in links if name in link_ids}))
            for procs, links in pairs
        ], crash_times)

    def crash_masks_masked(
        self,
        pairs: Sequence[tuple[int, int]],
        crash_times: Iterable[float],
    ) -> list[bool]:
        """Whether each ``(processor mask, link mask)`` crash subset is masked.

        Bit ``i`` of a mask crashes the processor (link) of compiled id
        ``i``.  Mirrors the per-scenario rule: every operation must
        complete on at least one processor under simultaneous permanent
        crashes of the pair's processors (and, for combined
        processor+link certification, permanent failures of its links)
        at each instant of ``crash_times``.  Instants are checked in
        order and a pair stops at its first break, so a later instant
        only asks about the pairs still masked (verdicts are memoized,
        so the short-circuit never loses information).  At instant 0 the
        pending pairs are answered by crash lanes in as few passes as
        possible (see :meth:`_verdicts_at`).
        """
        procs_used = self._involved_procs
        links_used = self._involved_links
        shift = self._link_shift
        # Uninvolved resources never change a decision, so the verdict
        # depends only on the involved bits: the scenario key.
        keys = [
            (procs & procs_used) | ((links & links_used) << shift)
            for procs, links in pairs
        ]
        verdicts = [True] * len(keys)
        pending = list(range(len(keys)))
        for at in crash_times:
            if not pending:
                break
            answers = self._verdicts_at([keys[i] for i in pending], at)
            still = []
            for index, masked in zip(pending, answers):
                if masked:
                    still.append(index)
                else:
                    verdicts[index] = False
            pending = still
        return verdicts

    def _quiet_at(self, at: float) -> int:
        """Key bits of the resources whose every involvement ends by ``at``.

        A processor whose hosted operations and sent comms all end by
        ``at`` (and whose received comms end strictly before ``at``)
        answers every scenario query exactly as the nominal scenario
        does; a link whose last comm ends by ``at`` likewise never
        blocks a transmit window (a failure interval ``[at, inf)``
        overlaps a window ``[start, end)`` only when ``at < end``).  A
        subset of quiet resources therefore replays the baseline
        verbatim.  Nothing is quiet on a baseline that is not clean.
        """
        quiet = self._quiet.get(at)
        if quiet is None:
            quiet = 0
            if self._baseline_clean:
                for proc, (send, recv) in enumerate(
                    zip(self._host_send_last, self._recv_last)
                ):
                    if not (send > at or recv >= at):
                        quiet |= 1 << proc
                for link, last in enumerate(self._link_last, self._link_shift):
                    if not last > at:
                        quiet |= 1 << link
            self._quiet[at] = quiet
        return quiet

    def _verdicts_at(self, keys: list[int], at: float) -> list[bool]:
        """Verdicts for reduced scenario keys at one crash instant.

        Each key is answered, in order, from the baseline (empty key),
        the nominal class (only quiet bits), or the verdict memo.  The
        rest are replayed one by one, except at instant 0 on a clean
        ``NONE``-detection baseline with positive durations, where
        :meth:`CompiledSchedule.crash_lanes` answers them all together
        (a repeat within the request counts as a memo hit, as it would
        one subset at a time).
        """
        stats = self.stats
        stats.scenarios += len(keys)
        memo = self._verdict_memo.setdefault(at, {})
        loud = ~self._quiet_at(at)
        nominal = self._baseline_delivered
        verdicts: list[bool | None] = [None] * len(keys)
        lanes: dict[int, int] = {}  # key -> its first index
        repeats: list[tuple[int, int]] = []
        use_lanes = (
            at == 0.0
            and self._lanes_ok
            and self._compiled.lane_order() is not None
        )
        for index, key in enumerate(keys):
            if not key & loud:
                if key:
                    stats.pruned_nominal += 1
                verdicts[index] = nominal
                continue
            cached = memo.get(key)
            if cached is not None:
                stats.memo_hits += 1
            elif use_lanes:
                if key in lanes:
                    stats.memo_hits += 1
                    repeats.append((index, key))
                else:
                    lanes[key] = index
                continue
            else:
                cached = self._replay_masked(key, at)
                memo[key] = cached
            verdicts[index] = cached
        pending = list(lanes)
        for first in range(0, len(pending), MAX_SUBSETS_PER_LEVEL):
            chunk = pending[first:first + MAX_SUBSETS_PER_LEVEL]
            for key, verdict in zip(chunk, self._lane_pass(chunk)):
                memo[key] = verdict
                verdicts[lanes[key]] = verdict
        for index, key in repeats:
            verdicts[index] = memo[key]
        return verdicts

    def _lane_pass(self, keys: list[int]) -> list[bool]:
        """One crash-lane pass at instant 0: lane ``i`` is ``keys[i]``."""
        compiled = self._compiled
        shift = self._link_shift
        down = [0] * (shift + len(compiled.link_names))
        lane = 1
        for key in keys:
            for resource in set_bits(key):
                down[resource] |= lane
            lane <<= 1
        masked = compiled.crash_lanes(down[:shift], down[shift:], len(keys))
        self.stats.lanes += len(keys)
        self.stats.lane_passes += 1
        bits = format(masked, f"0{len(keys)}b")
        return [bit == "1" for bit in reversed(bits)]

    def _replay_masked(self, key: int, at: float) -> bool:
        """Replay verdict for one reduced scenario key at one crash instant."""
        shift = self._link_shift
        state = self._compiled.replay(
            detection=self._detection,
            verdict_only=True,
            queries=_CrashSetQueries(
                frozenset(set_bits(key & ((1 << shift) - 1))),
                at,
                frozenset(set_bits(key >> shift)),
            ),
        )
        self.stats.simulated += 1
        self.stats.decisions += state.decisions
        return state.truncated or state.delivered(self._compiled)


def set_bits(mask: int) -> list[int]:
    """The ids of the set bits of ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids
