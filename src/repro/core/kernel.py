"""The compiled scheduling kernel: flat-array candidate evaluation.

This module is the FTBAR engine: :mod:`repro.core.ftbar` runs every
problem on it.  It consumes the dense id tables of
:class:`~repro.core.compile.CompiledProblem` and runs the FTBAR inner
loop — the per-step ready-set sweep, the per-candidate
``(operation, processor)`` trial plan, the append-mode link reservation
and the pressure/σ computation — as tight passes over preallocated
lists with reused scratch buffers, instead of the per-pair plan
object graphs of the paper-literal reference engine
(``tests/ftbar_oracle.py``, the test oracle).  :meth:`SchedulingKernel.place`
is the only way a replica is placed: FTBAR, the HBP baseline (whose
ordered-pair cost search runs on :meth:`SchedulingKernel.pair_cost`,
keeping the E6 runtime comparison apples-to-apples) and the exhaustive
E10 baseline all place through it.

Bit-identity contract
---------------------
Every float expression mirrors the reference engine *textually*, not
just mathematically: the link reservation advances its free pointer by
re-deriving the duration (``start + (end - start)``, as the
oracle's link overlay does), the worst-case arrival is the ``(npf + 1)``-th
of a sorted copy, ties break on ids — which equal name order because
:class:`CompiledProblem` interns ids in sorted-name order.  The plan
cache (:class:`KernelPlanCache`) keeps each trial plan until a
committed step could have changed it: entries are dropped when a
predecessor's replica set grows, flagged suspect when a threshold
link's availability grows past the first planned start, and *repaired*
in place by replaying the recorded reservation chains when the plan is
repairable (every transfer single-hop on a unique direct link).  A
served plan is therefore the plan the reference engine computes from
scratch: schedules, observer streams and content hashes are
bit-identical to the paper-literal oracle's — enforced
by the goldens and by the randomized corpora of
``tests/test_compiled_kernel.py`` and ``tests/test_engine_equivalence.py``,
which also pin the work counters (``pressure_evaluations`` /
``cache_hits``) as literals.

Trial link overlay
------------------
Trial link reservations use one pair of flat arrays (``free`` value +
``stamp`` epoch) for the whole run: each trial plan bumps the epoch,
which invalidates every stale slot in O(1), so a trial plan costs zero
allocation for its overlay.

Deferred materialization
------------------------
Nothing reads the :class:`~repro.schedule.schedule.Schedule` during a
compiled run — resource availabilities, replica sets and the makespan
live in flat kernel mirrors — so placements are buffered (rollbacks
inside the duplication procedure just truncate the buffers) and only
the *surviving* placements are written into the schedule at the end,
through the exact calls the reference engine's commits make.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro._record import Record
from repro.core.compile import CompiledProblem
from repro.core.symmetry import orbit_representatives
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.schedule.schedule import Schedule

_INF = math.inf
#: Improvement threshold of the duplication procedure (step Ð keeps a
#: duplication only when ``S_worst`` strictly improves beyond it).
_EPSILON = 1e-9

#: Cached marker for a forbidden pair (``Exe = inf``): serving it counts
#: as a hit, so a forbidden pair is planned once, not once per sweep.
_FORBIDDEN = (None,)


#: One planned hop, as a plain tuple mirroring the oracle's
#: ``PlannedComm``:
#: ``(source, target, source_replica, link, start, end,
#:    source_processor, target_processor, hop_index, route, link_id)``
#: — ``link_id`` rides along so the kernel's commit can update its
#: link-availability mirror without a name lookup.


class DuplicationStats(Record):
    """Counters of the LIP-duplication procedure, for the ablation benches.

    ``attempts`` counts the trials run; each ends ``kept`` (one extra
    replica, so ``extra_replicas == kept``) or ``rolled_back``:
    ``attempts == kept + rolled_back``.  ``pruned`` counts the LIPs the
    duplication bound skipped because step Ð was certain to roll their
    trial back; a pruned LIP runs no trial, so it is in no other
    counter.
    """

    _fields = ("attempts", "kept", "rolled_back", "extra_replicas", "pruned")

    def __init__(
        self,
        attempts: int = 0,
        kept: int = 0,
        rolled_back: int = 0,
        extra_replicas: int = 0,
        pruned: int = 0,
    ) -> None:
        self.attempts = attempts
        self.kept = kept
        self.rolled_back = rolled_back
        self.extra_replicas = extra_replicas
        self.pruned = pruned

    def merge(self, other: "DuplicationStats") -> None:
        """Accumulate another run's counters into this one."""
        self.attempts += other.attempts
        self.kept += other.kept
        self.rolled_back += other.rolled_back
        self.extra_replicas += other.extra_replicas
        self.pruned += other.pruned


class KernelPlan:
    """Flat trial plan of the compiled kernel (placement and HBP).

    ``op`` / ``proc`` are the dense ids; ``earliest`` / ``worst`` are
    the feed aggregates the reference plan computes lazily; ``feeds``
    holds one entry per predecessor (``None`` when co-located, else each
    replica's first arrival) and ``feed_worsts`` its worst-case arrival;
    ``comms`` is the flat hop-tuple list a commit replays (in the exact
    order the oracle's commit places them).  Sweep misses build no plan:
    they write their cache entry directly (:meth:`SchedulingKernel._plan`).
    """

    __slots__ = (
        "op", "proc", "duration", "processor_ready", "feeds", "comms",
        "earliest", "worst", "feed_worsts", "thresholds",
    )

    @property
    def s_best(self) -> float:
        """Earliest start (first complete input set — paper's S_best)."""
        return max(self.processor_ready, self.earliest)

    @property
    def s_worst(self) -> float:
        """Earliest start in the worst failure case (paper's S_worst)."""
        return max(self.processor_ready, self.worst)


class CompiledReadySet:
    """Indegree-counter maintenance of the list-scheduling candidate set.

    Each unscheduled operation carries a counter of unmet requirements:
    its unscheduled predecessors plus, for pinned memory halves, the
    anchor operation whose replicas define the allowed processors.
    Scheduling an operation decrements its dependents; a counter at
    zero makes a candidate.  ``candidates()`` returns sorted ids, which
    is exactly the sorted name order of the reference engine's full
    rescan (ids are interned in sorted-name order).
    """

    __slots__ = ("_succs", "_pin_dependents", "_waiting", "_ready")

    def __init__(self, compiled: CompiledProblem) -> None:
        self._succs = compiled.succs
        self._pin_dependents: dict[int, list[int]] = {}
        self._waiting: dict[int, int] = {}
        self._ready: set[int] = set()
        for operation in range(compiled.n_ops):
            count = len(compiled.preds[operation])
            anchor = compiled.pins.get(operation)
            if anchor is not None and anchor not in compiled.preds[operation]:
                count += 1
                self._pin_dependents.setdefault(anchor, []).append(operation)
            if count == 0:
                self._ready.add(operation)
            else:
                self._waiting[operation] = count

    def candidates(self) -> list[int]:
        """The current candidate ids, sorted (= sorted-name order)."""
        return sorted(self._ready)

    def mark_scheduled(self, operation: int) -> None:
        """Retire a scheduled operation and release its dependents."""
        self._ready.discard(operation)
        for successor in self._succs[operation]:
            self._release(successor)
        for dependent in self._pin_dependents.get(operation, ()):
            self._release(dependent)

    def _release(self, operation: int) -> None:
        remaining = self._waiting[operation] - 1
        if remaining == 0:
            del self._waiting[operation]
            self._ready.add(operation)
        else:
            self._waiting[operation] = remaining


class KernelPlanCache:
    """Trial-plan cache over dense integer ids.

    Keys are flat candidate-pair indices (``operation * P + processor``
    for FTBAR, ``task * P² + p1 * P + p2`` for HBP); values are opaque
    to the cache (the kernel stores mutable entry lists it updates in
    place on threshold repairs).  Replica-set dependencies need no
    index: an entry of candidate ``o`` depends on exactly the replica
    sets of ``preds[o]``, so the kernel drops the key ranges of the
    successors of each operation that gained replicas
    (:meth:`SchedulingKernel.invalidate_step`).  The one index kept maps
    a link to the keys whose availability thresholds watch it
    (:meth:`suspects_for`); dropped keys leave it lazily.  Callers read
    ``entries`` directly on the hot path and keep the ``hits`` /
    ``misses`` counters themselves; the FTBAR sweep planner also writes
    its entries and their ``by_threshold_link`` watches in place.
    """

    __slots__ = ("entries", "by_threshold_link", "hits", "misses")

    def __init__(self) -> None:
        self.entries: dict[int, Any] = {}
        self.by_threshold_link: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def put(self, key: int, value: Any) -> None:
        """Store ``value`` under ``key`` (watched by no threshold link)."""
        self.entries[key] = value

    def discard(self, key: int) -> None:
        """Drop one entry (used when a lookup finds it stale)."""
        self.entries.pop(key, None)

    def suspects_for(self, links: Iterable[int]) -> set[int]:
        """Live keys whose thresholds watch one of the just-touched links.

        Only these entries can have gone stale: availability of every
        other link is unchanged, so the threshold check can be skipped
        for everything else.  Keys dropped since they were stored leave
        the index here.  A key re-stored with other thresholds may stay
        flagged on a link it no longer watches; the suspect pass then
        finds nothing to repair, so such a flag changes no result.
        """
        suspects: set[int] = set()
        index = self.by_threshold_link
        live_keys = self.entries.keys()
        for link in links:
            watchers = index.get(link)
            if watchers:
                live = watchers & live_keys
                index[link] = live
                suspects |= live
        return suspects

    def drop_range(self, start: int, stop: int) -> None:
        """Forget every entry in one candidate's key range."""
        pop = self.entries.pop
        for key in range(start, stop):
            pop(key, None)


class SchedulingKernel:
    """Per-run state of the compiled engine.

    One kernel serves one schedule under construction: it owns the
    availability snapshots, the scratch reservation buffers, the
    id-indexed plan cache and the duplication statistics of the
    placement path.
    """

    def __init__(
        self,
        compiled: CompiledProblem,
        schedule: Schedule,
        processor_aware: bool = False,
        duplication: bool = True,
        symmetry: bool = True,
    ) -> None:
        self._c = compiled
        self._schedule = schedule
        self._aware = processor_aware
        self._duplication = duplication
        self._P = compiled.n_procs
        self._all_procs = tuple(range(compiled.n_procs))
        # Symmetry pruning: the verified automorphisms of the problem
        # (None when there are none), as transposition classes plus the
        # other generators.  A transposition or generator stays usable
        # while the partial schedule is invariant under it — checked per
        # sweep in :meth:`_orbit_reps` — and the drop is monotone.
        group = compiled.symmetry_group() if symmetry else None
        self._sym = group
        self._sym_classes = list(group.classes) if group is not None else []
        self._sym_others = list(group.others) if group is not None else []
        self._sym_live = group is not None
        self._sym_mark = 0
        self._sym_reps: list[int] | None = None
        self.symmetry_pruned = 0
        # Resource mirrors.  Every placement of a kernel run flows
        # through :meth:`_commit` (and rollbacks through
        # :meth:`undo_to`), so availability, replica presence and
        # replica order are maintained as flat arrays instead of being
        # re-read from the schedule's name-keyed indexes on every trial
        # plan.  The schedule must be empty at kernel construction.
        self._proc_avail = [0.0] * compiled.n_procs
        self._link_avail = [0.0] * compiled.n_links
        #: End of the replica of op ``o`` on proc ``p`` (0.0 = absent;
        #: real ends are strictly positive).
        self._rep_end = [0.0] * (compiled.n_ops * compiled.n_procs)
        #: Per-op replica list in placement order: ``(proc_id, end)``.
        self._rep_list: list[list[tuple[int, float]]] = [
            [] for _ in range(compiled.n_ops)
        ]
        #: Placement buffers: commits land here (LIFO undo by
        #: truncation) and only the survivors are materialized into the
        #: schedule when the run finishes.
        self._op_buffer: list[tuple] = []
        self._comm_buffer: list[tuple] = []
        self._makespan = 0.0
        # Scratch reservation overlay: value + epoch stamp per link.
        # Bumping the epoch resets the whole overlay in O(1).
        self._link_free = [0.0] * compiled.n_links
        self._link_stamp = [0] * compiled.n_links
        self._epoch = 0
        #: Replay chains of the current plan, per link (opened at the
        #: link's first reservation, filled by single-link transfers):
        #: ``(feed, replica, ready, duration)`` each.  A new epoch
        #: starts a new dict; a shared overlay shares it too.
        self._chains: dict[int, list[tuple[int, int, float, float]]] = {}
        #: The one direct link of each ordered processor pair (``-1``
        #: for parallel links or a multi-hop route): the planner's
        #: common-case test.
        self._single_link = [
            links[0] if len(links) == 1 else -1 for links in compiled.direct
        ]
        self._cache = KernelPlanCache()
        self._suspects: set[int] = set()
        self._step_mark = 0
        self._step_comm_mark = 0
        self.evaluations = 0
        self.dup_stats = DuplicationStats()

    @property
    def hits(self) -> int:
        """Plan-cache hits, for ``FTBARStats``."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Plan-cache misses."""
        return self._cache.misses

    # ------------------------------------------------------------------
    # mirrored commits and rollbacks
    # ------------------------------------------------------------------
    def _commit(self, plan: KernelPlan, duplicated: bool = False) -> None:
        """Record a placement in the buffers and the kernel mirrors.

        Nothing reads the schedule during a compiled run (the mirrors
        answer every query), so placements are buffered and only the
        survivors are materialized into the schedule at the end —
        rolled-back duplication trials never touch it.  The mirrors
        mirror the schedule's arithmetic exactly: the operation end is
        ``start + duration``, a link's availability is the *committed*
        comm's end ``start + (end - start)`` (``place_comm`` re-derives
        the duration), and the makespan is the running max of event
        ends.
        """
        o = plan.op
        p = plan.proc
        start = plan.s_best
        duration = plan.duration
        end = start + duration
        link_avail = self._link_avail
        comm_buffer = self._comm_buffer
        comm_mark = len(comm_buffer)
        makespan = self._makespan
        prev_makespan = makespan
        if end > makespan:
            makespan = end
        for comm in plan.comms:
            link = comm[10]
            comm_buffer.append((comm, link_avail[link]))
            comm_start = comm[4]
            committed_end = comm_start + (comm[5] - comm_start)
            link_avail[link] = committed_end
            if committed_end > makespan:
                makespan = committed_end
        self._makespan = makespan
        proc_avail = self._proc_avail
        key = o * self._P + p
        self._op_buffer.append((
            self._c.op_names[o], self._c.proc_names[p], start, duration,
            duplicated,
            key, o, p, proc_avail[p], prev_makespan, comm_mark,
        ))
        proc_avail[p] = end
        self._rep_end[key] = end
        self._rep_list[o].append((p, end))

    def mark(self) -> int:
        """A rollback point over the placement buffers (LIFO only)."""
        return len(self._op_buffer)

    def undo_to(self, mark: int) -> None:
        """Unwind placements made since ``mark``, newest first."""
        ops = self._op_buffer
        comm_buffer = self._comm_buffer
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        while len(ops) > mark:
            record = ops.pop()
            key, o, p = record[5], record[6], record[7]
            proc_avail[p] = record[8]
            self._makespan = record[9]
            self._rep_end[key] = 0.0
            self._rep_list[o].pop()
            comm_mark = record[10]
            for comm, previous in reversed(comm_buffer[comm_mark:]):
                link_avail[comm[10]] = previous
            del comm_buffer[comm_mark:]

    @property
    def makespan(self) -> float:
        """Completion date of the buffered schedule (0 when empty)."""
        return self._makespan

    def materialize(self) -> Schedule:
        """Write the surviving placements into the real schedule.

        Replays the buffers in commit order, so replica indexes, event
        objects, timelines and indexes land exactly as the reference
        engine's immediate commits would have produced them.
        """
        schedule = self._schedule
        op_buffer = self._op_buffer
        comm_buffer = self._comm_buffer
        total_comms = len(comm_buffer)
        for index, record in enumerate(op_buffer):
            event = schedule.place_operation(
                record[0], record[1], record[2], record[3],
                duplicated=record[4],
            )
            target_replica = event.replica
            comm_end = (
                op_buffer[index + 1][10]
                if index + 1 < len(op_buffer) else total_comms
            )
            for position in range(record[10], comm_end):
                comm = comm_buffer[position][0]
                schedule.place_comm(
                    source=comm[0],
                    target=comm[1],
                    source_replica=comm[2],
                    target_replica=target_replica,
                    link=comm[3],
                    start=comm[4],
                    duration=comm[5] - comm[4],
                    source_processor=comm[6],
                    target_processor=comm[7],
                    hop_index=comm[8],
                    route=comm[9],
                )
        return schedule

    # ------------------------------------------------------------------
    # trial planning (the flat counterpart of the oracle's planner)
    # ------------------------------------------------------------------
    def _plan(
        self,
        o: int,
        p: int,
        key: int = -1,
        placing: bool = False,
        shared_overlay: bool = False,
    ) -> "KernelPlan | float | None":
        """Plan the next replica of ``o`` on ``p`` against the mirrors.

        A sweep miss passes its cache ``key``: the planner writes the
        entry ``[feeds, static, chains, worst, feed_worsts, thresholds,
        duration]`` (and ``_FORBIDDEN`` for an ``Exe = inf`` pair) under
        it, registers its threshold links, and returns σ — no
        :class:`KernelPlan` is built.  Otherwise it returns the plan
        (``None`` when the pair is forbidden or already placed);
        ``placing`` builds the hop records a commit needs.
        ``shared_overlay`` keeps the previous plan's trial reservations
        visible (the HBP pair cost plans both replicas against one
        overlay).

        Each transfer reserves through the loop of its kind: one direct
        link, parallel direct links, a multi-hop route, or — for every
        remote feed of an ``npl >= 1`` problem — the replicated routes
        of :meth:`_reserve_routes`.  A link's first reservation in the
        plan (its stamp is behind the epoch) records its threshold and
        opens the link's replay chain, which the single-link transfers
        of a sweep miss fill (only the cache entry reads chains).
        """
        c = self._c
        n_procs = self._P
        duration = c.exe[o * n_procs + p]
        if duration == _INF:
            if key >= 0:
                self._cache.entries[key] = _FORBIDDEN
                return _INF
            return None
        rep_end = self._rep_end
        if rep_end[o * n_procs + p] != 0.0:
            return None
        if not shared_overlay:
            self._epoch += 1
            self._chains = {}
        epoch = self._epoch
        chains = self._chains
        stamp = self._link_stamp
        free = self._link_free
        base = self._link_avail
        npf = c.npf
        npl = c.npl
        n_ops = c.n_ops
        single = self._single_link
        rep_list = self._rep_list
        comm_rows = c.comm_rows
        if placing:
            comms: list[tuple] | None = []
            op_name = c.op_names[o]
            proc_name = c.proc_names[p]
            op_names = c.op_names
            proc_names = c.proc_names
            link_names = c.link_names
        else:
            comms = None
        #: Per feed: each replica's first arrival, or ``None`` when the
        #: predecessor is co-located.  Repairs rewrite these in place.
        feeds: list[list[float] | None] = []
        feed_worsts: list[float] = []
        thresholds: list[list] = []
        worst = -_INF
        repairable = not npl
        for feed_index, q in enumerate(c.preds[o]):
            local_end = rep_end[q * n_procs + p]
            if local_end != 0.0:
                # §4.1 first case: co-located predecessor, zero-cost
                # intra-processor comm, remote replicas do not send.
                feeds.append(None)
                feed_worsts.append(local_end)
                if local_end > worst:
                    worst = local_end
                continue
            row = comm_rows[q * n_ops + o]
            if npl:
                arrivals, firsts = self._reserve_routes(
                    q, o, p, row, thresholds, comms
                )
            else:
                arrivals = firsts = []
                for replica_index, (rp, rend) in enumerate(rep_list[q]):
                    link = single[rp * n_procs + p]
                    if link >= 0:
                        # The common case (p2p and bus topologies): one
                        # direct link, no min-end choice to make.
                        if stamp[link] == epoch:
                            current = free[link]
                            start = rend if rend > current else current
                        else:
                            current = base[link]
                            start = rend if rend > current else current
                            stamp[link] = epoch
                            thresholds.append([link, start])
                            chains[link] = []
                        dur = row[link]
                        end = start + dur
                        # Mirror the oracle's reservation: the free
                        # pointer advances by the re-derived duration,
                        # not the previewed end.
                        free[link] = start + (end - start)
                        if placing:
                            comms.append((
                                op_names[q], op_name, replica_index,
                                link_names[link], start, end,
                                proc_names[rp], proc_name, 0, 0, link,
                            ))
                        elif key >= 0:
                            chains[link].append(
                                (feed_index, replica_index, rend, dur)
                            )
                        arrivals.append(end)
                        continue
                    repairable = False
                    direct = c.direct[rp * n_procs + p]
                    if direct:
                        # Parallel direct links: the earliest end wins.
                        best_end = _INF
                        best_start = 0.0
                        best_link = -1
                        for link in direct:
                            current = free[link] if stamp[link] == epoch else base[link]
                            start = rend if rend > current else current
                            end = start + row[link]
                            if end < best_end:
                                best_end = end
                                best_start = start
                                best_link = link
                        if stamp[best_link] != epoch:
                            stamp[best_link] = epoch
                            thresholds.append([best_link, best_start])
                            chains[best_link] = []
                        free[best_link] = best_start + (best_end - best_start)
                        if placing:
                            comms.append((
                                op_names[q], op_name, replica_index,
                                link_names[best_link], best_start, best_end,
                                proc_names[rp], proc_name, 0, 0, best_link,
                            ))
                        arrivals.append(best_end)
                        continue
                    # Multi-hop store-and-forward over the shortest route.
                    ready = rend
                    for hop_index, (origin, link, relay) in enumerate(
                        c.route_hops(rp, p)
                    ):
                        if stamp[link] == epoch:
                            current = free[link]
                            start = ready if ready > current else current
                        else:
                            current = base[link]
                            start = ready if ready > current else current
                            stamp[link] = epoch
                            thresholds.append([link, start])
                            chains[link] = []
                        end = start + row[link]
                        free[link] = end
                        if placing:
                            comms.append((
                                op_names[q], op_name, replica_index,
                                link_names[link], start, end,
                                origin, relay, hop_index, 0, link,
                            ))
                        ready = end
                    arrivals.append(ready)
            # Worst case: the (npf + 1)-th earliest arrival — i.e.
            # ``sorted(arrivals)[min(npf, len - 1)]``, specialised for
            # the tiny lists of the hot path (min/max pick the same
            # float without the sorted copy).
            count = len(arrivals)
            if count == 1:
                feed_worst = arrivals[0]
            elif count == 2:
                # The npf=1 common case, as in the sweep's repair.
                a, b = arrivals
                if npf:
                    feed_worst = a if a > b else b
                else:
                    feed_worst = a if a < b else b
            elif count == 0:
                raise ValueError(
                    f"predecessor {c.op_names[q]!r} of {c.op_names[o]!r} "
                    f"has no replica; candidate rule violated"
                )
            elif npf == 0:
                feed_worst = min(arrivals)
            elif npf >= count - 1:
                feed_worst = max(arrivals)
            else:
                feed_worst = sorted(arrivals)[npf]
            feeds.append(firsts)
            feed_worsts.append(feed_worst)
            if feed_worst > worst:
                worst = feed_worst
        ready = self._proc_avail[p]
        if key >= 0:
            if self._aware:
                static = c.tail[o]
                s_worst = ready if ready > worst else worst
                sigma = s_worst + duration + static
            else:
                static = c.sbar[o]
                sigma = (ready if ready > worst else worst) + static
            self._cache.entries[key] = [
                feeds, static, chains if repairable else None, worst,
                feed_worsts, thresholds, duration,
            ]
            index = self._cache.by_threshold_link
            for threshold in thresholds:
                watchers = index.get(threshold[0])
                if watchers is None:
                    index[threshold[0]] = {key}
                else:
                    watchers.add(key)
            return sigma
        earliest = -_INF
        for index, firsts in enumerate(feeds):
            first = feed_worsts[index] if firsts is None else min(firsts)
            if first > earliest:
                earliest = first
        plan = KernelPlan()
        plan.op = o
        plan.proc = p
        plan.duration = duration
        plan.processor_ready = ready
        plan.feeds = feeds
        plan.comms = comms
        plan.earliest = earliest
        plan.worst = worst
        plan.feed_worsts = feed_worsts
        plan.thresholds = thresholds
        return plan

    def _reserve_routes(
        self,
        q: int,
        o: int,
        p: int,
        row: list[float],
        thresholds: list[list],
        comms: list[tuple] | None,
    ) -> tuple[list[float], list[float]]:
        """Reserve the ``npl + 1`` disjoint routes from every replica of ``q``.

        The transfer of every remote feed of an ``npl >= 1`` problem:
        each replica sends over link-disjoint routes that avoid the
        other sender hosts; its guaranteed arrival is the latest copy,
        its first arrival the earliest.  Returns both per-replica lists.
        Thresholds are recorded as in :meth:`_plan`; route plans are
        not repairable, so no chain is opened.
        """
        c = self._c
        epoch = self._epoch
        stamp = self._link_stamp
        free = self._link_free
        base = self._link_avail
        proc_names = c.proc_names
        proc_name = proc_names[p]
        replicas = self._rep_list[q]
        sender_hosts = frozenset(proc_names[host] for host, _ in replicas)
        arrivals: list[float] = []
        firsts: list[float] = []
        for replica_index, (rp, rend) in enumerate(replicas):
            rproc = proc_names[rp]
            first_copy = _INF
            guaranteed = -_INF
            for route_index, hops in enumerate(
                c.disjoint_routes(rproc, proc_name, sender_hosts - {rproc})
            ):
                ready = rend
                for hop_index, (origin, link, relay) in enumerate(hops):
                    if stamp[link] == epoch:
                        current = free[link]
                        start = ready if ready > current else current
                    else:
                        current = base[link]
                        start = ready if ready > current else current
                        stamp[link] = epoch
                        thresholds.append([link, start])
                    end = start + row[link]
                    free[link] = end
                    if comms is not None:
                        comms.append((
                            c.op_names[q], c.op_names[o], replica_index,
                            c.link_names[link], start, end,
                            origin, relay, hop_index, route_index, link,
                        ))
                    ready = end
                if ready < first_copy:
                    first_copy = ready
                if ready > guaranteed:
                    guaranteed = ready
            arrivals.append(guaranteed)
            firsts.append(first_copy)
        return arrivals, firsts

    # ------------------------------------------------------------------
    # selection sweep (macro-steps À and Á)
    # ------------------------------------------------------------------
    def _orbit_reps(self) -> list[int] | None:
        """Orbit representatives under the still-usable automorphisms.

        A transposition or generator is usable while the partial
        schedule is *invariant* under it: processor and link
        availabilities map to themselves, and every replica row does
        too — then ``σ(o, p)`` and ``σ(o, g(p))`` are the same IEEE
        floats (the state the plan reads is indistinguishable), so
        evaluating the orbit's smallest id covers all of them.  Between
        two sweeps the net state change is the surviving commit records
        (rollbacks restore exactly), so the replica check only walks the
        delta rows.  Every check walks only the moved processors and
        links — a fixed point compares a value with itself.  The drop is
        monotone: a transposition or generator that dies is never
        re-admitted, which keeps the check O(delta) instead of
        O(schedule).

        The usable transpositions stay an equivalence relation (the
        verified ones intersected with the state's stabilizer), so a
        sweep splits each class by checking every member against the
        sub-class representatives only: O(P · links) per class instead
        of a check per pair.  Other generators are checked one by one.
        """
        ops = self._op_buffer
        mark = self._sym_mark
        bases = (
            [o * self._P for o in {record[6] for record in ops[mark:]}]
            if len(ops) > mark else ()
        )
        self._sym_mark = len(ops)
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        rep_end = self._rep_end
        swap_links = self._sym.swap_links

        def same(r: int, m: int) -> bool:
            if proc_avail[r] != proc_avail[m]:
                return False
            for base in bases:
                if rep_end[base + r] != rep_end[base + m]:
                    return False
            for l, image in zip(*swap_links(r, m)):
                if link_avail[l] != link_avail[image]:
                    return False
            return True

        changed = False
        classes = []
        for members in self._sym_classes:
            subclasses: list[list[int]] = []
            for m in members:
                for sub in subclasses:
                    if same(sub[0], m):
                        sub.append(m)
                        break
                else:
                    subclasses.append([m])
            if len(subclasses) > 1:
                changed = True
                classes.extend(sub for sub in subclasses if len(sub) > 1)
            else:
                classes.append(members)
        others = self._sym_others
        survivors = []
        for gen in others:
            gp = gen.proc
            moved = gen.moved_procs
            ok = True
            for p in moved:
                if proc_avail[p] != proc_avail[gp[p]]:
                    ok = False
                    break
            if ok:
                for l, m in zip(gen.moved_links, gen.link_images):
                    if link_avail[l] != link_avail[m]:
                        ok = False
                        break
            if ok:
                for base in bases:
                    if any(
                        rep_end[base + p] != rep_end[base + gp[p]]
                        for p in moved
                    ):
                        ok = False
                        break
            if ok:
                survivors.append(gen)
        if changed or len(survivors) != len(others):
            self._sym_classes = classes
            self._sym_others = survivors
            self._sym_reps = None
            if not classes and not survivors:
                self._sym_live = False
                return None
        if self._sym_reps is None:
            self._sym_reps = orbit_representatives(
                self._P, classes, survivors
            )
        return self._sym_reps

    def select_ids(
        self, candidates: "list[int]", record: bool
    ) -> tuple[str, tuple[str, ...], float, dict | None]:
        """Pick the most urgent candidate and its ``Npf + 1`` processors.

        Mirrors the oracle's ``ReferenceScheduler._select``
        (``tests/ftbar_oracle.py``) over candidate ids (sorted
        ids == the sorted-name candidate order); ``record`` materializes
        the per-pair σ mapping for the observer's :class:`StepRecord`
        (the evaluation pattern — and hence every counter — is
        identical either way).
        """
        c = self._c
        n_procs = self._P
        op_names = c.op_names
        proc_names = c.proc_names
        pins = c.pins
        npf = c.npf
        required = npf + 1
        pressures: dict | None = {} if record else None
        cache = self._cache
        entries = cache.entries
        suspects = self._suspects
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        aware = self._aware
        hits = 0
        misses = 0
        two = required == 2
        one = required == 1
        best_urgency = 0.0
        best_op = -1
        best_p0 = best_p1 = -1
        best_kept: list[tuple[float, int]] | None = None
        reps = self._orbit_reps() if self._sym_live else None
        row: list[float] | None = [0.0] * n_procs if reps is not None else None
        if suspects:
            # Per-sweep suspect pass: availabilities are frozen during a
            # sweep and every live entry's candidate is ready, so the
            # whole suspect set is due now; handling it here keeps the
            # probe loop below to one dict lookup per pair.  Repairs
            # replay the same chains from the same availabilities the
            # lazy per-probe scan would have seen, so every float — and
            # every hit/miss count, since repairs and discards are
            # unaccounted and the probe still pays the miss — is
            # identical.  Pruned columns are skipped (their cache state
            # stays untouched while pruned) and dangling flags of
            # dropped entries wait for the entry to return.
            for key in tuple(suspects):
                if reps is not None and reps[key % n_procs] != key % n_procs:
                    continue
                entry = entries.get(key)
                if entry is None:
                    continue
                suspects.discard(key)
                chains = entry[2]
                if chains is None:
                    for threshold in entry[5]:
                        if link_avail[threshold[0]] > threshold[1]:
                            # Not repairable: drop it; the probe then
                            # replans, counting exactly as the lazy
                            # discard + miss did.
                            cache.discard(key)
                            break
                    continue
                # Repair in place: replay the trial chains of every
                # outdated link from its current free instant with the
                # planner's float expressions (including the re-derived
                # duration advance), so the entry equals a fresh plan.
                # Inlined, not a method call: a fully connected N=2000
                # run repairs about a million entries here.
                feeds = entry[0]
                touched: set[int] | None = None
                for threshold in entry[5]:
                    available = link_avail[threshold[0]]
                    if available <= threshold[1]:
                        continue
                    free = available
                    first = None
                    for f_i, a_i, t_ready, dur in chains[threshold[0]]:
                        start = t_ready if t_ready > free else free
                        end = start + dur
                        feeds[f_i][a_i] = end
                        free = start + (end - start)
                        if touched is None:
                            touched = {f_i}
                        else:
                            touched.add(f_i)
                        if first is None:
                            first = start
                    threshold[1] = first
                if touched is not None:
                    feed_worsts = entry[4]
                    for f_i in touched:
                        arrivals = feeds[f_i]
                        count = len(arrivals)
                        if count == 2:
                            # The npf=1 common case: the k-th-smallest
                            # of a pair is its min or max outright.
                            a, b = arrivals
                            if npf:
                                feed_worsts[f_i] = a if a > b else b
                            else:
                                feed_worsts[f_i] = a if a < b else b
                        elif count == 1:
                            feed_worsts[f_i] = arrivals[0]
                        elif npf == 0:
                            feed_worsts[f_i] = min(arrivals)
                        elif npf >= count - 1:
                            feed_worsts[f_i] = max(arrivals)
                        else:
                            feed_worsts[f_i] = sorted(arrivals)[npf]
                    entry[3] = max(feed_worsts)
        for o in candidates:
            anchor = pins.get(o)
            if anchor is None:
                pool = self._all_procs
            else:
                pool = sorted(host for host, _ in self._rep_list[anchor])
            base_key = o * n_procs
            # The ``required`` smallest (σ, p) pairs, kept ascending —
            # the pool iterates ascending p and every comparison is
            # strict, so a σ tie keeps the earlier processor exactly
            # like the sorted ranked list this replaces (lexicographic
            # (σ, p) order).  ``required <= 2`` — every npf 0/1 run —
            # tracks the pair in plain registers; larger values fall
            # back to bounded insertion into a list.
            finite = 0
            if two:
                b0v = b1v = _INF
                b0p = b1p = -1
            elif one:
                b0v = _INF
                b0p = -1
            else:
                kept: list[tuple[float, int]] = []
                fill = 0
            for p in pool:
                if row is not None and reps[p] != p:
                    # Symmetry-pruned pair: its σ is a bit-identical
                    # copy of the orbit representative's (already
                    # computed — representatives are orbit minima and
                    # the pool iterates ascending).  No cache traffic.
                    value = row[reps[p]]
                    self.symmetry_pruned += 1
                # The hit fast path is inlined: one dict probe and two
                # adds (suspects were settled by the per-sweep pass
                # above) — this loop runs once per (candidate,
                # processor) pair per macro-step.
                else:
                    key = base_key + p
                    entry = entries.get(key)
                    if entry is None:
                        misses += 1
                        value = self._plan(o, p, key)
                    elif entry[0] is None:
                        hits += 1
                        value = _INF
                    else:
                        hits += 1
                        ready = proc_avail[p]
                        worst = entry[3]
                        s_worst = ready if ready > worst else worst
                        if aware:
                            value = s_worst + entry[6] + entry[1]
                        else:
                            value = s_worst + entry[1]
                if row is not None:
                    row[p] = value
                if record:
                    pressures[(op_names[o], proc_names[p])] = value
                if value == _INF:
                    continue
                finite += 1
                if two:
                    # Registers start at _INF, so the fill-up phase is
                    # the same strict-compare shift as steady state.
                    if value < b1v:
                        if value < b0v:
                            b1v = b0v
                            b1p = b0p
                            b0v = value
                            b0p = p
                        else:
                            b1v = value
                            b1p = p
                elif one:
                    if value < b0v:
                        b0v = value
                        b0p = p
                elif fill < required:
                    index = fill
                    while index and kept[index - 1][0] > value:
                        index -= 1
                    kept.insert(index, (value, p))
                    fill += 1
                elif value < kept[-1][0]:
                    # p exceeds every kept processor id, so a σ tie
                    # never displaces an earlier pair.
                    del kept[-1]
                    index = fill - 1
                    while index and kept[index - 1][0] > value:
                        index -= 1
                    kept.insert(index, (value, p))
            if finite < required:
                raise InfeasibleReplicationError(
                    f"operation {op_names[o]!r} can run on {finite} "
                    f"processor(s), {required} required to tolerate "
                    f"{npf} failure(s)"
                )
            urgency = b1v if two else b0v if one else kept[-1][0]
            if best_op < 0 or urgency > best_urgency or (
                urgency == best_urgency and o < best_op
            ):
                best_urgency = urgency
                best_op = o
                if two:
                    best_p0 = b0p
                    best_p1 = b1p
                elif one:
                    best_p0 = b0p
                else:
                    best_kept = kept
        cache.hits += hits
        cache.misses += misses
        self.evaluations += misses
        assert best_op >= 0
        if two:
            placements = (proc_names[best_p0], proc_names[best_p1])
        elif one:
            placements = (proc_names[best_p0],)
        else:
            placements = tuple(proc_names[p] for _, p in best_kept)
        return (
            c.op_names[best_op],
            placements,
            best_urgency,
            pressures,
        )

    # ------------------------------------------------------------------
    # cache maintenance (driven by the FTBAR macro-step loop)
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Remember the buffer positions before a macro-step's placements."""
        self._step_mark = len(self._op_buffer)
        self._step_comm_mark = len(self._comm_buffer)

    def invalidate_step(self, width: int | None = None) -> None:
        """Apply the dirty set of the committed macro-step.

        The buffer suffixes since :meth:`begin_step` are the step's dirty
        set: surviving records name the operations that gained replicas
        and the links their comms landed on (rollbacks truncated their
        records, so the suffix is net).  An entry of candidate ``o``
        read the replica sets of ``preds[o]``, so each replicated ``q``
        voids the key ranges of ``succs[q]``: ``width`` keys per
        candidate, ``P`` for FTBAR (the default) and ``P²`` for HBP.
        Forbidden pairs (:data:`_FORBIDDEN`) read no replica set and
        stay.
        """
        if width is None:
            width = self._P
        succs = self._c.succs
        entries = self._cache.entries
        replicated = {
            record[6] for record in self._op_buffer[self._step_mark:]
        }
        dropped: set[int] = set()
        for q in replicated:
            for o in succs[q]:
                if o in dropped:
                    continue
                dropped.add(o)
                base = o * width
                for key in range(base, base + width):
                    entry = entries.get(key)
                    if entry is not None and entry is not _FORBIDDEN:
                        del entries[key]
        links = {
            comm[10]
            for comm, _ in self._comm_buffer[self._step_comm_mark:]
        }
        if links:
            self._suspects |= self._cache.suspects_for(links)

    def forget(self, operation: str) -> None:
        """Drop every cached plan of an operation that has been placed."""
        o = self._c.op_ids[operation]
        self._cache.drop_range(o * self._P, (o + 1) * self._P)

    def forget_range(self, start: int, stop: int) -> None:
        """Drop every cached entry in a candidate's key range (HBP)."""
        self._cache.drop_range(start, stop)

    # ------------------------------------------------------------------
    # placement (macro-step Â — the flat Minimize_start_time)
    # ------------------------------------------------------------------
    def place(self, operation: str, processor: str) -> None:
        """Place one replica, mirroring the oracle's ``_place``.

        The only placement path: FTBAR calls it once per kept processor
        of a macro-step, HBP once per replica of the winning pair and
        the exhaustive baseline once per replica of an assignment (the
        last two build their kernels with ``duplication=False``, so the
        replica is planned once and committed at ``S_best``).
        """
        c = self._c
        o = c.op_ids[operation]
        p = c.proc_ids[processor]
        if o in c.pins:
            # Memory halves are placed directly: duplicating register
            # halves would break the read/write co-location invariant.
            plan = self._plan(o, p, placing=True)
            if plan is None:
                raise InfeasibleReplicationError(
                    f"memory half {operation!r} is forbidden on {processor!r} "
                    f"where its register lives"
                )
            self._commit(plan)
            return
        self._minimize(o, p, False)

    def _minimize(self, o: int, p: int, duplicated: bool):
        """``Minimize_start_time(o, p)`` on kernel plans (steps Ê–Ñ)."""
        c = self._c
        plan = self._plan(o, p, placing=True)
        if plan is None:
            raise SchedulingError(
                f"operation {c.op_names[o]!r} cannot be scheduled on "
                f"{c.proc_names[p]!r}"
            )
        if self._duplication:
            plan = self._improve_by_duplication(plan)
        return self._commit(plan, duplicated=duplicated)

    def _improve_by_duplication(self, plan: KernelPlan) -> KernelPlan:
        """Steps Ì–Ñ: duplicate the LIP on ``p`` while ``S_worst`` improves.

        The duplication bound skips a trial whose rollback is certain:
        the LIP replica cannot start before ``proc_avail[p]`` (commits
        on ``p`` only push it later), so it cannot end before
        ``proc_avail[p] + Exe(lip, p)`` — IEEE addition is monotone —
        and neither can the new ``S_worst`` of ``o``.  When that sum
        already reaches ``S_worst - ε``, step Ð would undo the trial and
        every nested one, so the plan is returned as is.
        """
        stats = self.dup_stats
        o, p = plan.op, plan.proc
        best_worst = plan.s_worst
        proc_avail = self._proc_avail
        exe = self._c.exe
        n_procs = self._P
        while True:
            lip = self._duplicable_lip(plan)
            if lip is None:
                return plan
            if proc_avail[p] + exe[lip * n_procs + p] >= best_worst - _EPSILON:
                stats.pruned += 1
                return plan
            stats.attempts += 1
            saved = self.mark()
            try:
                # Step Í: recursively minimise the LIP's start on p.
                self._minimize(lip, p, True)
            except SchedulingError:
                self.undo_to(saved)
                stats.rolled_back += 1
                return plan
            new_plan = self._plan(o, p, placing=True)
            if new_plan is None or new_plan.s_worst >= best_worst - _EPSILON:
                # Step Ð: the replication does not pay off — undo it all.
                self.undo_to(saved)
                stats.rolled_back += 1
                return plan
            # Step Ñ: improvement kept; hunt for the new LIP.
            stats.kept += 1
            stats.extra_replicas += 1
            best_worst = new_plan.s_worst
            plan = new_plan

    def _duplicable_lip(self, plan: KernelPlan) -> int | None:
        """Step Ì: the plan's LIP id, when duplicating it can help.

        The critical feed maximises ``(worst_case, smallest name)``;
        with sorted-name ids the tie-break is a plain id comparison.
        """
        feed_worsts = plan.feed_worsts
        if not feed_worsts:
            return None
        c = self._c
        preds = c.preds[plan.op]
        best_index = 0
        best_worst = feed_worsts[0]
        best_pred = preds[0]
        for index in range(1, len(preds)):
            worst = feed_worsts[index]
            pred = preds[index]
            if worst > best_worst or (
                worst == best_worst and pred < best_pred
            ):
                best_index = index
                best_worst = worst
                best_pred = pred
        if plan.feeds[best_index] is None:
            # Co-located: the feed already costs nothing.
            return None
        if c.is_memory_half[best_pred]:
            return None
        key = best_pred * self._P + plan.proc
        if c.exe[key] == _INF:
            return None
        if self._rep_end[key] != 0.0:
            return None
        return best_pred

    # ------------------------------------------------------------------
    # HBP: ordered-pair cost on the shared kernel
    # ------------------------------------------------------------------
    def pair_cost(self, task: int, first: int, second: int) -> float | None:
        """Later completion of the two replicas; ``None`` if infeasible.

        Both replicas are planned against one shared overlay so their
        feeding comms contend for the same links, exactly as they will
        once committed.  Costs are cached per ordered pair with the
        append-mode threshold staleness rule: an entry stays valid while
        its predecessors' replica sets are untouched and no reserved
        link's availability has grown past the first planned start
        (checked value-wise on every hit — HBP entries carry no repair
        chains); ``processor_ready`` of both targets is re-read on
        every hit.
        """
        cache = self._cache
        n_procs = self._P
        key = (task * n_procs + first) * n_procs + second
        entry = cache.entries.get(key)
        if entry is not None:
            link_avail = self._link_avail
            stale = False
            for link, start in entry[1]:
                if link_avail[link] > start:
                    stale = True
                    break
            if not stale:
                cache.hits += 1
                payload = entry[0]
                if payload is None:
                    return None
                earliest_1, duration_1, earliest_2, duration_2 = payload
                ready_1 = self._proc_avail[first]
                ready_2 = self._proc_avail[second]
                first_end = max(ready_1, earliest_1) + duration_1
                second_end = max(ready_2, earliest_2) + duration_2
                return max(first_end, second_end)
            cache.discard(key)
        cache.misses += 1
        first_plan = self._plan(task, first)
        if first_plan is None:
            cache.put(key, [None, ()])
            return None
        second_plan = self._plan(task, second, shared_overlay=True)
        if second_plan is None:
            cache.put(key, [None, ()])
            return None
        merged: dict[int, float] = {}
        for link, start in first_plan.thresholds:
            merged[link] = start
        for link, start in second_plan.thresholds:
            current = merged.get(link)
            if current is None or start < current:
                merged[link] = start
        cache.put(
            key,
            [
                (
                    first_plan.earliest, first_plan.duration,
                    second_plan.earliest, second_plan.duration,
                ),
                tuple(merged.items()),
            ],
        )
        first_end = first_plan.s_best + first_plan.duration
        second_end = second_plan.s_best + second_plan.duration
        return max(first_end, second_end)
