"""Problem lowering for the compiled scheduling kernel.

The paper-literal FTBAR loop (the kernel's test oracle,
``tests/ftbar_oracle.py``) spends its inner loop walking string-keyed
dicts:
``ExecutionTimes.time_of`` and ``CommunicationTimes.time_of`` hash a
freshly built tuple per lookup, ``Architecture.links_between`` hashes a
processor-name pair, and every trial plan allocates a plan object
graph.  None of that
varies across the thousands of candidate evaluations of one run, so —
exactly like :mod:`repro.simulation.compiled` does for the batch
failure simulator — :class:`CompiledProblem` interns every operation,
processor, link and edge to a dense integer id *once per problem* and
lowers the tables the hot loop reads into flat preallocated lists:

* ``exe[o * P + p]`` — execution durations (``inf`` = forbidden pair);
* ``comm_rows[q * O + o]`` — per-link transfer durations of one edge;
* ``sbar[o]`` / ``tail[o]`` — the static pressure terms, produced by the
  same arithmetic as the oracle's ``PressureCalculator``, so the floats
  are bit-identical to the reference engine's;
* ``direct[a * P + b]`` — ids of the direct links joining two
  processors, in sorted-name order;
* ``preds[o]`` / ``succs[o]`` — the algorithm adjacency as id tuples.

Ids are assigned in sorted-name order, so every name-based tie-break of
the paper's heuristic (candidate selection, link choice, processor
ranking) translates to a plain integer comparison.

Multi-hop routes and ``npl``-replicated disjoint route sets depend on
the (dynamic) relay-avoidance preference, so they are translated lazily
through the architecture's memoizing
:class:`~repro.hardware.routing.RoutePlanner` and cached per query key.

Shared compilation
------------------
A campaign grid re-solves the same workload under many ``npf`` / ``npl``
/ ``ccr`` variants, and every variant used to pay a full compilation.
The tables are therefore split into a :class:`CompiledCore` — the parts
invariant under those axes: interning, the execution table, the
algorithm adjacency, pins, the interconnect tables and the lazy route
memos — keyed by a **content hash** and memoized process-wide, plus the
variant parts (``comm_rows``, ``sbar`` / ``tail``) memoized per
``(core, comm-table hash)``.  One compilation of the core is thus shared
across a grid's variants within a worker (campaign workers are
long-lived, so the reuse spans jobs); :func:`compile_cache_stats`
exposes the hit counts the campaign records.  The same content key
also shares *results*: :func:`baseline_makespan` keeps the makespan of
the non-fault-tolerant baseline, which a campaign's npf axis would
otherwise recompute once per ``npf`` value, and :func:`shared_problem`
keeps the built problem of a campaign grid point for its npf siblings.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import OrderedDict
from typing import Callable

from repro import obs
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.operations import is_memory_half
from repro.hardware.architecture import Architecture
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes

_INF = math.inf

#: Process-level memos (bounded LRU).  Entries are read-only after
#: construction — the lazy route memos they carry only ever *add*
#: deterministic translations — so sharing across runs and workers is
#: safe.
_CORE_MEMO: "OrderedDict[str, CompiledCore]" = OrderedDict()
_VARIANT_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Verified symmetry groups per (core, comm-hash, npl) — verification
#: checks candidate permutations against the tables and routes, which
#: is worth sharing across the runs of one benchmark/campaign.
_SYMMETRY_MEMO: "OrderedDict[tuple, object]" = OrderedDict()
#: Content hashes of problems that already passed ``ProblemSpec.validate``,
#: each with the ``(npf, npl)`` pairs whose replica- and
#: route-feasibility checks passed too.  The compiled path validates
#: each distinct problem *content* once: re-running the same problem —
#: the common shape in benchmarks and campaign grids, whose npf axis and
#: non-FT baseline revisit each content — skips straight to scheduling.
_VALIDATED_MEMO: "OrderedDict[tuple, set[tuple[int, int]]]" = OrderedDict()
#: Makespans of the non-fault-tolerant baseline (FTBAR at ``Npf = 0``)
#: per (content, effective npf/npl, options).  The baseline depends on
#: the problem's content, not on the ``Npf`` of the run it is compared
#: against, so a campaign's npf axis computes it once per content.
#: Only the float is kept: no mutable ``Schedule`` is ever shared.
_BASELINE_MEMO: "OrderedDict[tuple, float]" = OrderedDict()
#: Built problems per npf-free campaign grid point
#: (:func:`repro.campaign.jobs.job_problem`).  The npf siblings of one
#: point schedule the same graph and tables, so sharing the built
#: problem shares the core key and lowered comm rows cached on its
#: tables too.  Siblings run ``|npls| x |ccrs| x |seeds|`` jobs apart
#: in grid order; the cap covers up to 4 (every committed example
#: spec) and bounds what the memo keeps alive.
_PROBLEM_MEMO: "OrderedDict[object, object]" = OrderedDict()
_CORE_CAP = 64
_VARIANT_CAP = 128
_SYMMETRY_CAP = 128
_VALIDATED_CAP = 256
_BASELINE_CAP = 256
_PROBLEM_CAP = 4

_STATS = {
    "core_hits": 0,
    "core_misses": 0,
    "variant_hits": 0,
    "variant_misses": 0,
    "baseline_hits": 0,
    "baseline_misses": 0,
    "problem_hits": 0,
    "problem_misses": 0,
}


def compile_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the shared-compilation memos, of the
    non-FT baseline memo and of the grid-point problem memo
    (cumulative)."""
    stats = dict(_STATS)
    stats["core_entries"] = len(_CORE_MEMO)
    stats["variant_entries"] = len(_VARIANT_MEMO)
    return stats


def reset_compile_cache() -> None:
    """Empty the memos and zero the counters (tests and benchmarks)."""
    _CORE_MEMO.clear()
    _VARIANT_MEMO.clear()
    _SYMMETRY_MEMO.clear()
    _VALIDATED_MEMO.clear()
    _BASELINE_MEMO.clear()
    _PROBLEM_MEMO.clear()
    for key in _STATS:
        _STATS[key] = 0


# The memos keep the one source of truth; the metrics registry pulls
# from it on snapshot instead of mirroring the counters.
obs.metrics.register_collector("compile_cache", compile_cache_stats)


def validated_once(compiled: "CompiledProblem", problem) -> None:
    """Run ``problem.validate()`` once per problem content.

    The compiled path already derives a content hash of everything
    ``validate`` cross-checks (graph structure, both timing tables, the
    interconnect); equal hashes mean an equal validation outcome, so a
    content seen passing before is not re-checked.  Only the
    replica-count and disjoint-route checks depend on ``npf`` / ``npl``:
    a passed content at a new pair runs just those
    (``ProblemSpec.validate_replication``, same error texts).
    """
    key = compiled.content_key
    variant = (problem.npf, problem.npl)
    passed = _VALIDATED_MEMO.get(key)
    if passed is None:
        problem.validate()
        _remember(_VALIDATED_MEMO, _VALIDATED_CAP, key, {variant})
        return
    _VALIDATED_MEMO.move_to_end(key)
    if variant not in passed:
        problem.validate_replication()
        passed.add(variant)


def baseline_makespan(
    compiled: "CompiledProblem", options, run: "Callable[[], float]"
) -> float:
    """The makespan of a baseline run, computed once per content.

    The key is the compiled problem's content key plus the effective
    ``npf`` / ``npl`` it was compiled for and the full (frozen, hashable)
    scheduler options: everything the kernel's output depends on.
    ``run`` is called on a miss only.
    """
    key = (*compiled.content_key, compiled.npf, compiled.npl, options)
    makespan = _BASELINE_MEMO.get(key)
    if makespan is not None:
        _STATS["baseline_hits"] += 1
        _BASELINE_MEMO.move_to_end(key)
        return makespan
    _STATS["baseline_misses"] += 1
    makespan = run()
    _remember(_BASELINE_MEMO, _BASELINE_CAP, key, makespan)
    return makespan


def shared_problem(key, build: "Callable[[], object]"):
    """The problem memoized under ``key``, built by ``build`` on a miss."""
    problem = _PROBLEM_MEMO.get(key)
    if problem is not None:
        _STATS["problem_hits"] += 1
        _PROBLEM_MEMO.move_to_end(key)
        return problem
    _STATS["problem_misses"] += 1
    problem = build()
    _remember(_PROBLEM_MEMO, _PROBLEM_CAP, key, problem)
    return problem


def _remember(memo: OrderedDict, cap: int, key, value) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > cap:
        memo.popitem(last=False)


class CompiledCore:
    """The npf/npl/ccr-invariant half of a compiled problem.

    Everything here depends only on the (expanded) algorithm shape, the
    execution-time table, the pins and the interconnect — the axes a
    campaign grid varies (``npf``, ``npl``, the ccr-scaled comm table)
    leave it untouched, which is what makes the content-hash reuse
    sound.  The lazy route memos live here too: routes depend only on
    the interconnect (plus ``npl``, which is part of their query key).
    """

    __slots__ = (
        "key", "op_names", "op_ids", "proc_names", "proc_ids",
        "link_names", "link_ids", "n_ops", "n_procs", "n_links", "exe",
        "preds", "succs", "is_memory_half", "pins", "allowed", "direct",
        "average_exe", "architecture", "_hops", "_routes",
    )

    def __init__(
        self,
        key: str,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        pins: dict[str, str] | None,
    ) -> None:
        self.key = key
        self.architecture = architecture
        op_names = algorithm.operation_names()
        proc_names = architecture.processor_names()
        link_names = architecture.link_names()
        self.op_names = op_names
        self.proc_names = proc_names
        self.link_names = link_names
        self.op_ids = {name: i for i, name in enumerate(op_names)}
        self.proc_ids = {name: i for i, name in enumerate(proc_names)}
        self.link_ids = {name: i for i, name in enumerate(link_names)}
        n_ops = len(op_names)
        n_procs = len(proc_names)
        self.n_ops = n_ops
        self.n_procs = n_procs
        self.n_links = len(link_names)
        # Raw-dict pivot: the table is validated complete, so one
        # snapshot replaces per-pair method calls.
        raw_exe = exec_times.entries()
        exe = [0.0] * (n_ops * n_procs)
        for o, op in enumerate(op_names):
            base = o * n_procs
            for p, proc in enumerate(proc_names):
                exe[base + p] = raw_exe[(op, proc)]
        self.exe = exe
        ids = self.op_ids
        self.preds = tuple(
            tuple(ids[q] for q in algorithm.predecessors(op))
            for op in op_names
        )
        self.succs = tuple(
            tuple(ids[s] for s in algorithm.successors(op))
            for op in op_names
        )
        self.is_memory_half = tuple(is_memory_half(op) for op in op_names)
        self.pins = {
            ids[op]: ids[anchor] for op, anchor in (pins or {}).items()
        }
        self.allowed = tuple(
            tuple(
                p for p in range(n_procs)
                if exe[o * n_procs + p] != _INF
            )
            for o in range(n_ops)
        )
        average_exe = [0.0] * n_ops
        for o in range(n_ops):
            base = o * n_procs
            finite = [
                exe[base + p] for p in range(n_procs)
                if exe[base + p] != _INF
            ]
            average_exe[o] = sum(finite) / len(finite)
        self.average_exe = average_exe
        link_ids = self.link_ids
        direct: list[tuple[int, ...]] = [()] * (n_procs * n_procs)
        for a, first in enumerate(proc_names):
            for b, second in enumerate(proc_names):
                if a == b:
                    continue
                direct[a * n_procs + b] = tuple(
                    link_ids[link.name]
                    for link in architecture.links_between(first, second)
                )
        self.direct = direct
        self._hops: dict[int, tuple[tuple[str, int, str], ...]] = {}
        self._routes: dict[tuple, tuple] = {}


def _core_key(
    algorithm: AlgorithmGraph,
    architecture: Architecture,
    exec_times: ExecutionTimes,
    pins: dict[str, str] | None,
) -> str:
    """Content hash of the npf/npl/ccr-invariant compilation inputs.

    The structural parts (names, adjacency, link endpoints, pins) hash
    via their ``repr``; the execution table — the bulk of the content —
    streams in as packed IEEE-754 bytes, which round-trip exactly and
    skip the per-float ``repr`` cost.  ``\\x00`` separators (absent from
    any ``repr``) keep the sections unambiguous.  This runs per
    scheduler construction even on memo hits, so it must stay cheap
    relative to a small run: the digest of the last computation is
    cached on the execution table, guarded by the identity and
    mutation version of every input, which makes the re-run of an
    unchanged problem — the benchmark and campaign shape — O(1).
    """
    pins_snapshot = tuple(sorted((pins or {}).items()))
    cached = getattr(exec_times, "_core_key_cache", None)
    if (
        cached is not None
        and cached[0] is algorithm
        and cached[1] == algorithm._version
        and cached[2] is architecture
        and cached[3] == architecture._version
        and cached[4] == exec_times._version
        and cached[5] == pins_snapshot
    ):
        return cached[6]
    raw_exe = exec_times.entries()
    ops = algorithm.operation_names()
    procs = architecture.processor_names()
    digest = hashlib.sha256()
    digest.update(
        repr(tuple((op, algorithm.predecessors(op)) for op in ops)).encode()
    )
    digest.update(b"\x00")
    digest.update(repr(procs).encode())
    digest.update(b"\x00")
    exe_values = array("d")
    for proc in procs:
        exe_values.extend(raw_exe[(op, proc)] for op in ops)
    digest.update(exe_values.tobytes())
    digest.update(b"\x00")
    digest.update(
        repr(tuple(
            (link.name, str(link.kind), tuple(sorted(link.endpoints)))
            for link in architecture.links()
        )).encode()
    )
    digest.update(b"\x00")
    digest.update(repr(pins_snapshot).encode())
    key = digest.hexdigest()
    exec_times._core_key_cache = (
        algorithm, algorithm._version, architecture, architecture._version,
        exec_times._version, pins_snapshot, key,
    )
    return key


def _comm_hash(comm_rows: dict[int, tuple[float, ...]]) -> str:
    """Content hash of the lowered comm table (the ccr-variant part).

    Keys and the fixed-width duration rows pack as raw bytes — the row
    widths are pinned by the core key's link list, so the concatenation
    is unambiguous.
    """
    keys = sorted(comm_rows)
    digest = hashlib.sha256()
    digest.update(array("q", keys).tobytes())
    digest.update(b"\x00")
    values = array("d")
    for key in keys:
        values.extend(comm_rows[key])
    digest.update(values.tobytes())
    return digest.hexdigest()


class CompiledProblem:
    """Flat, int-indexed view of one (expanded) scheduling problem.

    Built once per scheduler instance; all contained tables are
    read-only after construction.  The invariant tables live in a
    content-hash-memoized :class:`CompiledCore` shared across the
    ``npf`` / ``npl`` / ``ccr`` variants of one workload (and, within a
    campaign worker, across jobs); only the comm-dependent tables are
    (re)computed — and themselves memoized — per variant.
    """

    __slots__ = (
        "core", "op_names", "op_ids", "proc_names", "proc_ids",
        "link_names", "link_ids", "n_ops", "n_procs", "n_links", "exe",
        "preds", "succs", "comm_rows", "sbar", "tail", "direct",
        "is_memory_half", "pins", "allowed", "npf", "npl", "architecture",
        "_hops", "_routes", "_symmetry", "_variant_key",
    )

    def __init__(
        self,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        comm_times: CommunicationTimes,
        npf: int,
        npl: int,
        pins: dict[str, str] | None = None,
    ) -> None:
        key = _core_key(algorithm, architecture, exec_times, pins)
        core = _CORE_MEMO.get(key)
        if core is None:
            _STATS["core_misses"] += 1
            core = CompiledCore(key, algorithm, architecture, exec_times, pins)
            _remember(_CORE_MEMO, _CORE_CAP, key, core)
        else:
            _STATS["core_hits"] += 1
            _CORE_MEMO.move_to_end(key)
        self.core = core
        self.npf = npf
        self.npl = npl
        # The shared tables are referenced, not copied: the kernel reads
        # them as attributes of this object on its hot path.
        self.architecture = core.architecture
        self.op_names = core.op_names
        self.op_ids = core.op_ids
        self.proc_names = core.proc_names
        self.proc_ids = core.proc_ids
        self.link_names = core.link_names
        self.link_ids = core.link_ids
        self.n_ops = core.n_ops
        self.n_procs = core.n_procs
        self.n_links = core.n_links
        self.exe = core.exe
        self.preds = core.preds
        self.succs = core.succs
        self.is_memory_half = core.is_memory_half
        self.pins = core.pins
        self.allowed = core.allowed
        self.direct = core.direct
        self._hops = core._hops
        self._routes = core._routes
        self._symmetry = None
        # --- comm-dependent tables (the ccr-variant half) -----------------
        # Lowering the comm table touches every (edge, link) pair, so
        # the result (and its hash) is cached on the table itself: the
        # core key pins the id/link layout and the version counter
        # guards against mutation, making an unchanged re-run O(1).
        n_ops = core.n_ops
        cached_rows = getattr(comm_times, "_row_cache", None)
        if (
            cached_rows is not None
            and cached_rows[0] == key
            and cached_rows[1] == comm_times._version
        ):
            comm_rows = cached_rows[2]
            variant_key = cached_rows[3]
        else:
            raw_comm = comm_times.entries()
            comm_rows = {}
            link_names = core.link_names
            ids = core.op_ids
            for edge in algorithm.dependencies():
                row_key = ids[edge[0]] * n_ops + ids[edge[1]]
                comm_rows[row_key] = tuple(
                    raw_comm[(edge, link)] for link in link_names
                )
            variant_key = (key, _comm_hash(comm_rows))
            comm_times._row_cache = (
                key, comm_times._version, comm_rows, variant_key,
            )
        self.comm_rows = comm_rows
        self._variant_key = variant_key
        variant = _VARIANT_MEMO.get(variant_key)
        if variant is not None:
            _STATS["variant_hits"] += 1
            _VARIANT_MEMO.move_to_end(variant_key)
            self.sbar, self.tail = variant
            return
        _STATS["variant_misses"] += 1
        # --- static pressure terms (bit-identical to the reference) -------
        # Same arithmetic as the oracle's PressureCalculator.sbar/tail
        # on the flat tables: averages sum in sorted-name order (== row
        # order), the reverse-topological sweep maxes over sorted
        # successors, and the recurrence is order-independent —
        # cross-checked against ``PressureCalculator.static_tables`` by
        # the equivalence tests.
        n_links = core.n_links
        average_exe = core.average_exe
        # Rebind: the comm-row fast path above skips the lowering block
        # that first assigned ``ids`` (row cache hit on the table, but
        # variant memo miss — e.g. after ``reset_compile_cache()``).
        ids = core.op_ids
        average_comm: dict[int, float] = {}
        for row_key, comm_row in comm_rows.items():
            average_comm[row_key] = (
                sum(comm_row) / n_links if n_links else 0.0
            )
        sbar = [0.0] * n_ops
        for op in reversed(algorithm.topological_order()):
            o = ids[op]
            tail = 0.0
            for successor in core.succs[o]:
                candidate = average_comm[o * n_ops + successor] + sbar[successor]
                if candidate > tail:
                    tail = candidate
            sbar[o] = average_exe[o] + tail
        self.sbar = sbar
        self.tail = [sbar[o] - average_exe[o] for o in range(n_ops)]
        _remember(
            _VARIANT_MEMO, _VARIANT_CAP, variant_key, (self.sbar, self.tail)
        )

    @property
    def content_key(self) -> tuple[str, str]:
        """``(core key, comm-table hash)``: the content this problem
        compiles from, npf/npl excluded.  Equal keys mean equal tables,
        so results derived from the tables can be shared across them."""
        return self._variant_key

    # ------------------------------------------------------------------
    # topology symmetry
    # ------------------------------------------------------------------
    def symmetry_group(self):
        """The verified automorphisms of this problem (a
        :class:`~repro.core.symmetry.KernelSymmetry`).

        Computed lazily (``SchedulerOptions.symmetry=False`` runs never
        pay for it) by :mod:`repro.core.symmetry`: candidate processor
        permutations from the interconnect shape, each verified against
        the execution and communication tables and the route planner's
        equivariance, so copying a representative's σ to its orbit is
        bit-exact.  Returns ``None`` when the problem has no usable
        symmetry.
        """
        if self._symmetry is None:
            sym_key = (*self._variant_key, self.npl)
            group = _SYMMETRY_MEMO.get(sym_key)
            if group is None:
                from repro.core.symmetry import build_symmetry

                group = build_symmetry(self)
                _remember(_SYMMETRY_MEMO, _SYMMETRY_CAP, sym_key, group)
            else:
                _SYMMETRY_MEMO.move_to_end(sym_key)
            self._symmetry = group
        return self._symmetry if self._symmetry.generators else None

    # ------------------------------------------------------------------
    # lazy routing translations
    # ------------------------------------------------------------------
    def route_hops(self, a: int, b: int) -> tuple[tuple[str, int, str], ...]:
        """Shortest route ``a -> b`` as ``(origin, link_id, relay)`` hops.

        Origin/relay stay names (they feed straight into
        ``Schedule.place_comm``); the link is an id so the reservation
        loop stays on flat arrays.  Memoized per ordered pair.
        """
        key = a * self.n_procs + b
        cached = self._hops.get(key)
        if cached is None:
            cached = tuple(
                (origin, self.link_ids[link.name], relay)
                for origin, link, relay in self.architecture.route_hops(
                    self.proc_names[a], self.proc_names[b]
                )
            )
            self._hops[key] = cached
        return cached

    def disjoint_routes(
        self, source: str, target: str, avoid: frozenset[str]
    ) -> tuple[tuple[tuple[str, int, str], ...], ...]:
        """``npl + 1`` link-disjoint routes with links as ids.

        Delegates the route computation (and its determinism guarantees)
        to the architecture's :class:`~repro.hardware.routing
        .RoutePlanner` and memoizes the id translation per
        ``(npl, source, target, avoid)`` query (the route memo is shared
        across the ``npl`` variants of one core, hence the ``npl`` in
        the key).
        """
        key = (self.npl, source, target, avoid)
        cached = self._routes.get(key)
        if cached is None:
            link_ids = self.link_ids
            cached = tuple(
                tuple(
                    (origin, link_ids[link.name], relay)
                    for origin, link, relay in hops
                )
                for hops in self.architecture.route_planner.disjoint_routes(
                    source, target, self.npl + 1, avoid=avoid
                )
            )
            self._routes[key] = cached
        return cached
