"""Batched failure-scenario simulation for reliability certification.

:class:`BatchScenarioEngine` answers "is this crash subset masked?" for
thousands of scenarios against one schedule — including the *combined*
processor+link subsets of link-failure certification (``npl >= 1``
schedules), which silence links exactly like a per-scenario replay
does.  It compiles the schedule once
(:mod:`repro.simulation.compiled`), simulates the failure-free
baseline once, and then spends per scenario only what the scenario
actually requires:

* **footprint-equivalence pruning** — crash subsets that silence no
  scheduled event are grouped into the *nominal* equivalence class and
  answered from the baseline without simulating: processors (and
  links) the schedule never involves are dropped from every subset,
  and a crash instant past a resource's last involvement (a
  processor's final replica end / last sent comm / last received comm,
  a link's last transmission end) provably reproduces the baseline
  trace.  The class membership test is O(|subset|), so the exact
  probability sum over all ``2^P`` subsets stays exact while most of
  the lattice is never simulated;
* **verdict memoization** — every ``(subset, instant)`` verdict is
  cached under its canonical reduced form, so equivalent scenarios
  across certificate levels, crash-instant sweeps and reliability sums
  are decided once per equivalence class;
* **crash lanes** — at crash instant 0 (the certificates' default) on a
  clean ``NONE``-detection baseline with positive durations, a verdict
  depends only on which events complete, so
  :meth:`BatchScenarioEngine.crash_subsets_masked` answers a whole
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
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro import obs
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


@dataclass
class BatchStats:
    """Work accounting of one :class:`BatchScenarioEngine`."""

    #: Scenario verdicts requested (one per ``(subset, instant)`` pair).
    scenarios: int = 0
    #: Scenarios answered from the nominal equivalence class.
    pruned_nominal: int = 0
    #: Scenarios answered from the verdict memo.
    memo_hits: int = 0
    #: Scenarios that ran a (verdict-only) replay.
    simulated: int = 0
    #: Event decisions made across all replays (baseline included).
    decisions: int = 0
    #: Event outcomes copied from the baseline instead of re-decided:
    #: always 0, since every replay decides its events itself; kept
    #: for the readers of this field and of the certify summary line.
    copied: int = 0
    #: Verdicts answered by a crash-lane pass instead of a replay.
    lanes: int = 0
    #: Crash-lane passes run (each answers up to
    #: :data:`MAX_SUBSETS_PER_LEVEL` lanes).
    lane_passes: int = 0


#: Live engines, tracked weakly so the metrics snapshot can total their
#: work accounting without keeping finished engines alive.
_ENGINES: "weakref.WeakSet[BatchScenarioEngine]" = weakref.WeakSet()


def _collect_batch_stats() -> dict:
    """Sum the :class:`BatchStats` of every live engine (pull-style)."""
    totals = {f.name: 0 for f in fields(BatchStats)}
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
    :meth:`crash_subsets_masked` is the many-pairs verdict path used by the
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
        n_links = len(compiled.link_names)
        self._host_send_last = [0.0] * n_procs
        self._recv_last = [-1.0] * n_procs
        #: Baseline end of the last comm on each link — a link failing
        #: after its last transmission reproduces the baseline verbatim.
        self._link_last = [0.0] * n_links
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
        #: Whether each link carries any comm at all — silencing an
        #: unused link can never change a decision.
        self._link_involved = tuple(
            bool(order) for order in compiled.link_order
        )
        self._verdict_memo: dict[tuple, bool] = {}

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
        this set (the reduction :meth:`crash_subset_masked` applies) —
        the exactness theorem the sampled certifier's involved-set
        projection is built on.
        """
        return tuple(
            name
            for name, involved in zip(
                self._compiled.proc_names, self._compiled.proc_involved
            )
            if involved
        )

    def involved_links(self) -> tuple[str, ...]:
        """Links that carry at least one comm, in canonical order."""
        return tuple(
            name
            for name, involved in zip(
                self._compiled.link_names, self._link_involved
            )
            if involved
        )

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
        """Whether each ``(processors, links)`` crash subset is masked.

        Mirrors the per-scenario rule: every operation must complete on
        at least one processor under simultaneous permanent crashes of
        the pair's processors (and, for combined processor+link
        certification, permanent failures of its links) at each instant
        of ``crash_times``.  Instants are checked in order and a pair
        stops at its first break, so a later instant only asks about
        the pairs still masked (verdicts are memoized, so the
        short-circuit never loses information).  At instant 0 the
        pending pairs are answered by crash lanes in as few passes as
        possible (see :meth:`_verdicts_at`).
        """
        reduced = [self._reduce(procs, links) for procs, links in pairs]
        verdicts = [True] * len(reduced)
        pending = list(range(len(reduced)))
        for at in crash_times:
            if not pending:
                break
            answers = self._verdicts_at([reduced[i] for i in pending], at)
            still = []
            for index, masked in zip(pending, answers):
                if masked:
                    still.append(index)
                else:
                    verdicts[index] = False
            pending = still
        return verdicts

    def _reduce(
        self, processors: Iterable[str], links: Iterable[str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A subset's involved processor and link ids, sorted.

        Uninvolved resources never change a decision, so the verdict
        depends only on this reduced form.
        """
        proc_ids = self._compiled.proc_ids
        involved = self._compiled.proc_involved
        link_ids = self._compiled.link_ids
        link_involved = self._link_involved
        return (
            tuple(sorted(
                proc_ids[name]
                for name in processors
                if name in proc_ids and involved[proc_ids[name]]
            )),
            tuple(sorted(
                link_ids[name]
                for name in links
                if name in link_ids and link_involved[link_ids[name]]
            )),
        )

    def _verdicts_at(
        self, subsets: list[tuple[tuple[int, ...], tuple[int, ...]]], at: float
    ) -> list[bool]:
        """Verdicts for reduced subsets at one crash instant.

        Each subset is answered, in order, from the baseline (empty
        subset), the nominal class, or the verdict memo.  The rest are
        replayed one by one, except at instant 0 on a clean
        ``NONE``-detection baseline with positive durations, where
        :meth:`CompiledSchedule.crash_lanes` answers them all together
        (a repeat within the request counts as a memo hit, as it would
        one subset at a time).
        """
        stats = self.stats
        verdicts: list[bool | None] = [None] * len(subsets)
        lanes: dict[tuple, int] = {}  # memo key -> its first index
        repeats: list[tuple[int, tuple]] = []
        use_lanes = (
            at == 0.0
            and self._lanes_ok
            and self._compiled.lane_order() is not None
        )
        for index, (reduced, reduced_links) in enumerate(subsets):
            stats.scenarios += 1
            if not reduced and not reduced_links:
                verdicts[index] = self._baseline_delivered
                continue
            if self._baseline_clean and self._is_nominal_equivalent(
                reduced, at, reduced_links
            ):
                stats.pruned_nominal += 1
                verdicts[index] = self._baseline_delivered
                continue
            key = (
                (reduced, at)
                if not reduced_links
                else (reduced, at, reduced_links)
            )
            cached = self._verdict_memo.get(key)
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
                cached = self._replay_masked(reduced, at, reduced_links)
                self._verdict_memo[key] = cached
            verdicts[index] = cached
        keys = list(lanes)
        for first in range(0, len(keys), MAX_SUBSETS_PER_LEVEL):
            chunk = keys[first:first + MAX_SUBSETS_PER_LEVEL]
            masked = self._lane_pass([subsets[lanes[key]] for key in chunk])
            for key, verdict in zip(chunk, masked):
                self._verdict_memo[key] = verdict
                verdicts[lanes[key]] = verdict
        for index, key in repeats:
            verdicts[index] = self._verdict_memo[key]
        return verdicts

    def _lane_pass(
        self, subsets: list[tuple[tuple[int, ...], tuple[int, ...]]]
    ) -> list[bool]:
        """One crash-lane pass at instant 0: lane ``i`` is ``subsets[i]``."""
        compiled = self._compiled
        proc_down = [0] * len(compiled.proc_names)
        link_down = [0] * len(compiled.link_names)
        bit = 1
        for reduced, reduced_links in subsets:
            for proc in reduced:
                proc_down[proc] |= bit
            for link in reduced_links:
                link_down[link] |= bit
            bit <<= 1
        masked = compiled.crash_lanes(proc_down, link_down, len(subsets))
        self.stats.lanes += len(subsets)
        self.stats.lane_passes += 1
        bits = format(masked, f"0{len(subsets)}b")
        return [bit == "1" for bit in reversed(bits)]

    def _replay_masked(
        self,
        reduced: tuple[int, ...],
        at: float,
        reduced_links: tuple[int, ...],
    ) -> bool:
        """Replay verdict for one reduced subset at one crash instant."""
        state = self._compiled.replay(
            detection=self._detection,
            verdict_only=True,
            queries=_CrashSetQueries(
                frozenset(reduced), at, frozenset(reduced_links)
            ),
        )
        self.stats.simulated += 1
        self.stats.decisions += state.decisions
        return state.truncated or state.delivered(self._compiled)

    def _is_nominal_equivalent(
        self,
        reduced: tuple[int, ...],
        at: float,
        reduced_links: tuple[int, ...] = (),
    ) -> bool:
        """Exact test: the crash lands after every involvement of the subset.

        A processor whose hosted operations and sent comms all end by
        ``at`` (and whose received comms end strictly before ``at``)
        answers every scenario query exactly as the nominal scenario
        does; a link whose last comm ends by ``at`` likewise never
        blocks a transmit window (a failure interval ``[at, inf)``
        overlaps a window ``[start, end)`` only when ``at < end``) — so
        the whole replay reproduces the baseline verbatim.
        """
        host_send = self._host_send_last
        recv = self._recv_last
        for proc in reduced:
            if host_send[proc] > at or recv[proc] >= at:
                return False
        link_last = self._link_last
        for link in reduced_links:
            if link_last[link] > at:
                return False
        return True
