"""Analytic fault bounds and importance-sampled certification.

Past the exhaustive regime (``P > 12`` or ``L > 12`` the per-level
subset counts explode combinatorially), certification needs a verdict
that is *quantified* rather than merely truncated.  This module
provides the three layers the sampled certifier is built from:

1. **Closed-form fault bounds** (:func:`analytic_fault_bounds`), in the
   spirit of Goemans–Lynch–Saias' bracketing of the number of faults a
   system can withstand: the minimum replica count over all operations
   refutes every crash level that can silence some operation entirely,
   and a data dependency whose consumer replicas share no processor
   with any producer replica is refuted by breaking the links its
   transfers ride on.  Both come with a concrete witness subset and
   hold at crash instant 0 without simulating a single scenario.

2. **Involved-set projection.**  The batch engine reduces every crash
   subset to its intersection with the *involved* resources (the ones
   the schedule actually uses) before deciding anything — an exact
   theorem of the worklist semantics.  A level's masked count therefore
   decomposes as ``sum_k C(U, f-k) * masked(involved k-subsets)`` where
   ``U`` counts uninvolved resources: levels whose involved core is
   small are certified *exactly* at arbitrary ``P`` by enumerating only
   the core.  The same projection marginalizes uninvolved resources out
   of the reliability sum analytically.

3. **Stratified importance sampling** for whatever the bounds and the
   projection leave open.  Reliability strata are the involved failure
   counts ``(k procs, j links)``; each stratum's probability mass is a
   Poisson-binomial coefficient, small strata are enumerated exactly,
   large ones are sampled from the *conditional Bernoulli* distribution
   (importance-weighted by failure-probability mass by construction).
   Sampled strata get Wilson score intervals; unexplored tail strata
   are bracketed by ``[0, tail mass]`` so the reported interval is
   conservative.
   Adaptive refinement keeps drawing batches in the stratum with the
   largest mass-weighted width until the interval undercuts the target
   or the sample budget is hit.

:func:`evaluate_level` builds the :class:`ToleranceLevel` and
:func:`sampled_reliability` the :class:`ReliabilityReport` that callers
receive (:mod:`repro.analysis.reliability` re-exports both types).

Determinism: every random draw comes from a :class:`random.Random`
seeded by SHA-256 over the *schedule content hash*, the user seed and
the stratum label (:func:`derive_rng`) — verdicts are bit-for-bit
reproducible across hosts, worker counts and process boundaries, and
two schedules only share streams if they are byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import Callable, Mapping, Sequence

from repro._record import FrozenRecord, Record
from repro.exceptions import SimulationError
from repro.schedule.serialization import schedule_content_hash
from repro.simulation.batch import set_bits

#: A ``(processor mask, link mask)`` crash subset: bit ``i`` of a mask
#: stands for the ``i``-th name of ``schedule.processor_names()``
#: (``schedule.link_names()``), the resource's compiled id.
Pair = tuple[int, int]

#: A breaking ``(processors, links)`` subset by name, each sorted.
Witness = tuple[tuple[str, ...], tuple[str, ...]]

#: A many-pairs masking oracle: ``oracle(pairs, times)`` answers, for each
#: pair in order, whether that crash subset is masked at every instant
#: of ``times``
#: (:meth:`~repro.simulation.batch.BatchScenarioEngine.crash_masks_masked`).
#: Callers collect the pairs a step needs and ask once, so the engine can
#: answer them together.
Oracle = Callable[[Sequence[Pair], tuple[float, ...]], list[bool]]


def name_bits(names: Sequence[str], universe: Sequence[str]) -> list[int]:
    """Each name's mask bit: ``1 << i`` for ``universe[i]``."""
    index = {name: i for i, name in enumerate(universe)}
    return [1 << index[name] for name in names]


def mask_names(mask: int, universe: Sequence[str]) -> tuple[str, ...]:
    """The names of ``universe`` whose bits ``mask`` sets, in order."""
    return tuple(universe[i] for i in set_bits(mask))


class MassTerms:
    """Failure probabilities of ``names`` by their bits over ``universe``."""

    def __init__(self, names: Sequence[str], universe: Sequence[str],
                 probabilities: Mapping[str, float]) -> None:
        self.bits = name_bits(names, universe)
        self._position = {bit: i for i, bit in enumerate(self.bits)}
        self._fail = [probabilities[name] for name in names]
        self._survive = [1.0 - q for q in self._fail]

    def mass(self, mask: int, mass: float = 1.0) -> float:
        """``mass`` times, resource by resource from left to right, ``q``
        for each resource ``mask`` sets and ``1 - q`` for the others."""
        factors = list(self._survive)
        while mask:
            low = mask & -mask
            position = self._position[low]
            factors[position] = self._fail[position]
            mask ^= low
        # ``math.prod`` multiplies left to right, as a ``*=`` loop does.
        return math.prod(factors, start=mass)


def check_sampling_parameters(
    confidence: float,
    budget: int | None,
    error: type[Exception] = SimulationError,
) -> None:
    """Reject sampling parameters outside their domain with ``error``.

    ``0 < confidence < 1`` and ``budget >= 1`` (``None`` = the library
    default).
    """
    if not 0.0 < confidence < 1.0:
        raise error(f"confidence must be in (0, 1), got {confidence!r}")
    if budget is not None and budget < 1:
        raise error(f"sample budget must be >= 1, got {budget!r}")


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------

_Z_CACHE: dict[float, float] = {}


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF by bisection on ``math.erf``.

    Deterministic and dependency-free; accurate to ~1e-12, far below
    the statistical noise of any interval it parameterizes.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p!r}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _z_value(confidence: float) -> float:
    z = _Z_CACHE.get(confidence)
    if z is None:
        z = normal_quantile((1.0 + confidence) / 2.0)
        _Z_CACHE[confidence] = z
    return z


def wilson_interval(
    successes: int, trials: int, confidence: float
) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion.

    Well-behaved at the boundaries (``p_hat`` of 0 or 1 still yields a
    non-degenerate interval), which matters here: masked fractions are
    usually extremely close to 1.
    """
    if trials <= 0:
        return (0.0, 1.0)
    z = _z_value(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


# ----------------------------------------------------------------------
# Poisson binomial + conditional-Bernoulli sampling
# ----------------------------------------------------------------------

def poisson_binomial(probabilities: Sequence[float]) -> list[float]:
    """``mass[k]`` = P(exactly k of the independent Bernoullis fire)."""
    mass = [1.0]
    for q in probabilities:
        nxt = [0.0] * (len(mass) + 1)
        for k, m in enumerate(mass):
            nxt[k] += m * (1.0 - q)
            nxt[k + 1] += m * q
        mass = nxt
    return mass


class ConditionalSubsetSampler:
    """Draw ``k``-subsets of ``range(n)`` with inclusion odds ``o_i``,
    conditioned on exactly ``k`` inclusions (conditional Bernoulli).

    The suffix elementary-symmetric table ``E[i][j] = e_j(o_i..o_{n-1})``
    drives the classic sequential scheme: item ``i`` joins a draw that
    still needs ``r`` items with probability ``o_i E[i+1][r-1]/E[i][r]``.
    With the odds taken from the failure probabilities this *is* the
    true conditional distribution.
    """

    def __init__(self, odds: Sequence[float]) -> None:
        scale = max(odds, default=0.0)
        self._odds = [o / scale if scale > 0 else 0.0 for o in odds]
        self._scale = scale if scale > 0 else 1.0
        self._n = len(odds)
        self._table: list[list[float]] | None = None
        self._kmax = -1

    def _ensure(self, k: int) -> list[list[float]]:
        if self._table is None or k > self._kmax:
            n = self._n
            table = [[0.0] * (k + 1) for _ in range(n + 1)]
            table[n][0] = 1.0
            for i in range(n - 1, -1, -1):
                table[i][0] = 1.0
                for j in range(1, k + 1):
                    table[i][j] = (
                        table[i + 1][j] + self._odds[i] * table[i + 1][j - 1]
                    )
            self._table = table
            self._kmax = k
        return self._table

    def draw(self, k: int, rng: random.Random) -> tuple[int, ...]:
        """One conditional draw: sorted indices of the chosen items."""
        if k > self._n:
            raise ValueError(f"cannot draw {k} of {self._n} items")
        table = self._ensure(k)
        chosen: list[int] = []
        remaining = k
        for i in range(self._n):
            if remaining == 0:
                break
            denominator = table[i][remaining]
            if denominator <= 0.0:
                continue
            take = (
                self._odds[i] * table[i + 1][remaining - 1] / denominator
            )
            if rng.random() < take:
                chosen.append(i)
                remaining -= 1
        if remaining:  # numeric corner: force-fill from the tail
            pool = [i for i in range(self._n) if i not in set(chosen)]
            chosen.extend(pool[-remaining:])
        return tuple(chosen)


# ----------------------------------------------------------------------
# deterministic RNG streams
# ----------------------------------------------------------------------

def derive_rng(content_hash: str, seed: int, stream: str) -> random.Random:
    """The sampled certifier's RNG stream derivation.

    ``SHA-256("repro-certify:<schedule content hash>:<seed>:<stream>")``
    truncated to 64 bits seeds a :class:`random.Random`.  The schedule
    content hash binds the stream to the exact schedule bytes (two
    different schedules can never share draws), the user seed selects
    independent replications, and the stream label separates strata so
    adaptive refinement of one stratum never perturbs another.
    """
    material = f"repro-certify:{content_hash}:{seed}:{stream}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class RngStreams:
    """The :func:`derive_rng` streams of one schedule and seed.

    The schedule content hash is computed when the first stream is
    asked for, so a certificate or reliability sum that resolves every
    level and stratum exactly never hashes the schedule.
    """

    def __init__(self, schedule, seed: int) -> None:
        self._schedule = schedule
        self._seed = seed
        self._content: str | None = None

    def __call__(self, stream: str) -> random.Random:
        if self._content is None:
            self._content = schedule_content_hash(self._schedule)
        return derive_rng(self._content, self._seed, stream)


# ----------------------------------------------------------------------
# closed-form fault bounds
# ----------------------------------------------------------------------

class FaultBounds(FrozenRecord):
    """Simulation-free brackets on the tolerable fault counts.

    ``min_replicas`` is the smallest distinct-host replica count over
    all scheduled operations: crashing those hosts at t = 0 silences
    the operation on every processor, so **every** crash level of size
    ``>= min_replicas`` contains a breaking subset — the schedule
    tolerates at most ``min_replicas - 1`` processor crashes.
    ``link_cut`` (when not ``None``) is the smallest link cut of a data
    dependency none of whose consumer replicas is co-located with a
    producer replica: breaking those links at t = 0 starves every
    consumer replica, refuting all link levels of size ``>= link_cut``.
    Both witnesses are valid whenever the crash instant 0 is part of
    the hypothesis (a subset is masked only if masked at *every*
    requested instant).
    """

    _fields = (
        "min_replicas", "witness_operation", "processor_witness",
        "link_cut", "link_witness", "link_witness_edge",
        "involved_processors", "involved_links", "total_processors",
        "total_links",
    )

    def __init__(
        self,
        min_replicas: int,
        witness_operation: str,
        processor_witness: tuple[str, ...],
        link_cut: int | None,
        link_witness: tuple[str, ...],
        link_witness_edge: tuple[str, str] | None,
        involved_processors: int,
        involved_links: int,
        total_processors: int,
        total_links: int,
    ) -> None:
        self.__dict__.update(
            min_replicas=min_replicas,
            witness_operation=witness_operation,
            processor_witness=processor_witness,
            link_cut=link_cut,
            link_witness=link_witness,
            link_witness_edge=link_witness_edge,
            involved_processors=involved_processors,
            involved_links=involved_links,
            total_processors=total_processors,
            total_links=total_links,
        )

    @property
    def max_tolerable_processor_faults(self) -> int:
        """Upper bound: no schedule survives ``min_replicas`` targeted crashes."""
        return self.min_replicas - 1


def analytic_fault_bounds(schedule) -> FaultBounds:
    """Compute :class:`FaultBounds` from schedule structure alone."""
    min_replicas = None
    witness_op = ""
    witness_hosts: tuple[str, ...] = ()
    for operation in schedule.scheduled_operations():
        hosts = tuple(
            sorted({event.processor for event in schedule.replicas_of(operation)})
        )
        if min_replicas is None or (len(hosts), operation) < (
            min_replicas, witness_op
        ):
            min_replicas = len(hosts)
            witness_op = operation
            witness_hosts = hosts
    if min_replicas is None:  # empty schedule: nothing to silence
        min_replicas = 0

    link_cut: int | None = None
    link_witness: tuple[str, ...] = ()
    witness_edge: tuple[str, str] | None = None
    edges = sorted({(c.source, c.target) for c in schedule.all_comms()})
    for source, target in edges:
        co_located = any(
            schedule.replica_on(source, event.processor) is not None
            for event in schedule.replicas_of(target)
        )
        if co_located:
            continue
        cut = tuple(
            sorted({c.link for c in schedule.comms_for_edge(source, target)})
        )
        if cut and (link_cut is None or (len(cut), (source, target)) < (
            link_cut, witness_edge
        )):
            link_cut = len(cut)
            link_witness = cut
            witness_edge = (source, target)

    involved_procs = {event.processor for event in schedule.all_operations()}
    for comm in schedule.all_comms():
        involved_procs.add(comm.source_processor)
        involved_procs.add(comm.target_processor)
    involved_links = {comm.link for comm in schedule.all_comms()}
    return FaultBounds(
        min_replicas=min_replicas,
        witness_operation=witness_op,
        processor_witness=witness_hosts,
        link_cut=link_cut,
        link_witness=link_witness,
        link_witness_edge=witness_edge,
        involved_processors=len(involved_procs),
        involved_links=len(involved_links),
        total_processors=len(schedule.processor_names()),
        total_links=len(schedule.link_names()),
    )


# ----------------------------------------------------------------------
# certificate levels
# ----------------------------------------------------------------------

#: Cells (involved sub-populations) at most this large are enumerated
#: exactly inside an otherwise-sampled level — sampling only ever pays
#: for populations too big to sweep.
EXACT_CELL_CAP = 1024

#: Deterministic break-hunt candidates tested per sampled level before
#: any random draw: combinations of the processors whose failure can
#: reach the most events (the largest cones), where a break (if one
#: exists) is most likely to surface.
HUNT_LIMIT = 32

#: Default total sample budget of one sampled certificate.
DEFAULT_CERTIFICATE_BUDGET = 20_000

#: Default total sample budget of one sampled reliability estimate.
DEFAULT_RELIABILITY_BUDGET = 50_000

#: A sampled level stops drawing once the mass-weighted width of its
#: interval is at most this.
CERTIFICATE_EPSILON = 0.01

#: A sampled reliability estimate stops drawing once its interval,
#: unexplored tail included, is at most this wide.
RELIABILITY_EPSILON = 0.005

#: Adaptive refinement batch size.
BATCH = 128


class ToleranceLevel(FrozenRecord):
    """Masking statistics for one combined crash-subset size.

    ``failures`` counts crashed processors, ``link_failures`` broken
    links (0 for the paper's processor-only levels).  ``method`` names
    how the level was resolved:

    * ``"exact"`` — every subset enumerated; the counts are the truth.
    * ``"projected"`` — exact counts at arbitrary ``P`` via involved-set
      projection (only the involved core was enumerated, uninvolved
      paddings marginalize out analytically).
    * ``"bounds"`` — refuted by a closed-form witness (minimum replica
      placement or an uncovered link cut) without simulation;
      ``masked_subsets``/``total_subsets`` report the witness evidence
      (``0/1``).
    * ``"sampled"`` — statistically estimated; ``masked_subsets`` /
      ``total_subsets`` then honestly count the *samples* (masked /
      drawn), the true population is in ``population`` and the
      estimate carries a confidence interval.  When the budget ran out
      before every sampled cell drew, ``estimate`` is ``None``: only
      the interval is known.

    ``population`` is the level's true subset count (``total_subsets``
    for exact levels; the astronomically larger denominator for sampled
    ones).  ``breaking_found`` says a breaking subset was observed at
    this level (exact enumeration, bounds witness, break hunt or random
    draw).
    """

    _fields = (
        "failures", "masked_subsets", "total_subsets", "link_failures",
        "method", "population", "samples", "estimate", "ci",
        "breaking_found",
    )

    def __init__(
        self,
        failures: int,
        masked_subsets: int,
        total_subsets: int,
        link_failures: int = 0,
        method: str = "exact",
        population: int | None = None,
        samples: int = 0,
        estimate: float | None = None,
        ci: tuple[float, float] | None = None,
        breaking_found: bool = False,
    ) -> None:
        self.__dict__.update(
            failures=failures,
            masked_subsets=masked_subsets,
            total_subsets=total_subsets,
            link_failures=link_failures,
            method=method,
            population=population,
            samples=samples,
            estimate=estimate,
            ci=ci,
            breaking_found=breaking_found,
        )

    @property
    def fully_masked(self) -> bool:
        """True when *provably* every subset of this size is masked.

        Sampled levels can never prove full masking (only estimate the
        masked fraction), bounds levels are refuted by construction —
        both answer False.
        """
        if self.method in ("exact", "projected"):
            return self.masked_subsets == self.total_subsets
        return False

    @property
    def refuted(self) -> bool:
        """True when at least one subset of this size provably breaks."""
        if self.method in ("exact", "projected"):
            return self.masked_subsets < self.total_subsets
        if self.method == "bounds":
            return True
        return self.breaking_found

    @property
    def masked_fraction(self) -> float:
        """Share of masked subsets (estimated for sampled levels).

        A sampled level without an ``estimate`` reads the masked share
        of its draws (1.0 when it drew none); its ``ci`` is the answer.
        """
        if self.method == "sampled" and self.estimate is not None:
            return self.estimate
        if self.total_subsets == 0:
            return 1.0
        return self.masked_subsets / self.total_subsets


def _pad_witness(
    core: Sequence[str], size: int, population: Sequence[str]
) -> tuple[str, ...]:
    """Extend a witness core to exactly ``size`` names, canonically."""
    padded = list(core)
    have = set(core)
    for name in population:
        if len(padded) >= size:
            break
        if name not in have:
            padded.append(name)
            have.add(name)
    return tuple(sorted(padded))


class _Cell(Record):
    """One ``(k involved procs, j involved links)`` slice of a
    certificate level or of the reliability sum (a stratum).

    ``weight`` is a level cell's uninvolved-padding multiplicity
    ``C(Up, f-k)*C(Ul, l-j)``, or a stratum's probability mass;
    ``count`` is the number of combinations the cell holds.
    """

    __slots__ = _fields = ("k", "j", "weight", "count", "drawn", "masked")

    def __init__(
        self,
        k: int,
        j: int,
        weight: int | float,
        count: int,
        drawn: int = 0,
        masked: int = 0,
    ) -> None:
        self.k = k
        self.j = j
        self.weight = weight
        self.count = count
        self.drawn = drawn
        self.masked = masked

    def share(self, level_total: int) -> float:
        return self.weight * self.count / level_total


def _enumerate_cells(
    cells: Sequence[_Cell],
    proc_bits: Sequence[int],
    link_bits: Sequence[int],
    oracle: Oracle,
    times: tuple[float, ...],
) -> list[Pair]:
    """Ask ``oracle`` about every core of ``cells`` in one request.

    Cores run cell by cell in canonical combination order; each cell's
    ``masked`` counts its masked cores, and the breaking cores come back
    in the same order.
    """
    pairs: list[Pair] = []
    for cell in cells:
        link_cores = [
            sum(core) for core in itertools.combinations(link_bits, cell.j)
        ]
        for core in itertools.combinations(proc_bits, cell.k):
            proc_core = sum(core)
            pairs.extend((proc_core, link_core) for link_core in link_cores)
    verdicts = iter(zip(pairs, oracle(pairs, times)))
    breaking = []
    for cell in cells:
        for pair, ok in itertools.islice(verdicts, cell.count):
            if ok:
                cell.masked += 1
            else:
                breaking.append(pair)
    return breaking


def evaluate_level(
    *,
    size: int,
    link_size: int,
    oracle: Oracle,
    times: tuple[float, ...],
    processors: Sequence[str],
    links: Sequence[str],
    involved_procs: Sequence[str],
    involved_links: Sequence[str],
    proc_cone_rank: Sequence[str],
    level_cap: int,
    bounds: FaultBounds | None,
    confidence: float,
    budget: int,
    streams: RngStreams,
) -> tuple[ToleranceLevel, list[Witness]]:
    """Certify, refute or estimate one level of the certificate.

    Returns the level and its breaking subsets (padded to the level's
    sizes; at most 8 for a sampled level).  Resolution order: exhaustive
    enumeration when the level fits under ``level_cap`` (the projection
    below with every processor and link involved: one weight-1 cell);
    involved-set projection when the *core* fits (exact counts at
    arbitrary ``P``); analytic-bounds refutation when the level size
    reaches a witness (only if instant 0 is in the hypothesis);
    otherwise stratified uniform sampling over the cells with a
    deterministic large-cone break hunt first.  Subsets are asked
    about as masks over ``processors`` and ``links`` and named again
    only as breaking witnesses.
    """
    population = math.comb(len(processors), size) * math.comb(
        len(links), link_size
    )
    method = "projected"
    if population <= level_cap:
        method = "exact"
        involved_procs, involved_links = processors, links

    involved = set(involved_procs)
    uninvolved_procs = [p for p in processors if p not in involved]
    involved_link_set = set(involved_links)
    uninvolved_links = [l for l in links if l not in involved_link_set]
    ip, il = len(involved_procs), len(involved_links)
    up, ul = len(uninvolved_procs), len(uninvolved_links)
    proc_bits = name_bits(involved_procs, processors)
    link_bits = name_bits(involved_links, links)

    def pad(pair: Pair) -> Witness:
        return (
            _pad_witness(mask_names(pair[0], processors), size, uninvolved_procs),
            _pad_witness(mask_names(pair[1], links), link_size, uninvolved_links),
        )

    cells = [
        _Cell(
            k,
            j,
            math.comb(up, size - k) * math.comb(ul, link_size - j),
            math.comb(ip, k) * math.comb(il, j),
        )
        for k in range(min(size, ip) + 1)
        for j in range(min(link_size, il) + 1)
        if size - k <= up and link_size - j <= ul
    ]
    cells = [cell for cell in cells if cell.weight > 0 and cell.count > 0]

    # --- exhaustive / involved-set projection --------------------------
    if sum(cell.count for cell in cells) <= level_cap:
        breaking = _enumerate_cells(cells, proc_bits, link_bits, oracle, times)
        masked = sum(cell.weight * cell.masked for cell in cells)
        return ToleranceLevel(
            size, masked, population, link_size, method,
            population=population, breaking_found=bool(breaking),
        ), [pad(pair) for pair in breaking]

    # --- analytic-bounds refutation -----------------------------------
    if bounds is not None and 0.0 in times:
        witness = None
        if size >= bounds.min_replicas > 0:
            witness = (
                _pad_witness(bounds.processor_witness, size, processors),
                _pad_witness((), link_size, links),
            )
        elif bounds.link_cut is not None and link_size >= bounds.link_cut:
            witness = (
                _pad_witness((), size, processors),
                _pad_witness(bounds.link_witness, link_size, links),
            )
        if witness is not None:
            return ToleranceLevel(
                size, 0, 1, link_size, "bounds",
                population=population, breaking_found=True,
            ), [witness]

    # --- stratified sampling ------------------------------------------
    exact_cells: list[_Cell] = []
    sampled_cells: list[_Cell] = []
    for cell in cells:
        if cell.count <= EXACT_CELL_CAP or cell.count == 1:
            exact_cells.append(cell)
        else:
            sampled_cells.append(cell)
    breaking = [
        pad(pair)
        for pair in _enumerate_cells(
            exact_cells, proc_bits, link_bits, oracle, times
        )[:8]
    ]
    exact_masked_share = 0.0
    for cell in exact_cells:
        exact_masked_share += cell.share(population) * cell.masked / cell.count

    # Deterministic break hunt: combinations of the largest-cone
    # resources, the subsets most likely to break if any do.  Hunt
    # verdicts are *evidence only* (possibly biased toward breaks), so
    # they never enter the estimate.
    hunt: list[Pair] = []
    ranked = name_bits(
        [p for p in proc_cone_rank if p in involved], processors
    )
    for cell in sampled_cells:
        if len(hunt) >= HUNT_LIMIT:
            break
        link_core = sum(link_bits[: cell.j])
        hunt.extend(
            (sum(core), link_core)
            for core in itertools.islice(
                itertools.combinations(ranked, cell.k), HUNT_LIMIT - len(hunt)
            )
        )
    for pair, ok in zip(hunt, oracle(hunt, times)):
        if not ok and len(breaking) < 8:
            breaking.append(pad(pair))

    drawn_total = 0
    cell_confidence = 1.0 - max(
        1e-12, (1.0 - confidence) / max(1, len(sampled_cells))
    )
    if sampled_cells and budget > 0:
        rng = streams(f"level:{size}:{link_size}")

        def draw_batch(cell: _Cell, n: int) -> None:
            nonlocal drawn_total
            draws = [
                (sum(rng.sample(proc_bits, cell.k)),
                 sum(rng.sample(link_bits, cell.j)))
                for _ in range(n)
            ]
            cell.drawn += n
            drawn_total += n
            for pair, ok in zip(draws, oracle(draws, times)):
                if ok:
                    cell.masked += 1
                elif len(breaking) < 8:
                    breaking.append(pad(pair))

        def interval(cell: _Cell) -> tuple[float, float]:
            return wilson_interval(cell.masked, cell.drawn, cell_confidence)

        per_cell = min(BATCH, max(1, budget // len(sampled_cells)))
        for cell in sampled_cells:
            draw_batch(cell, min(per_cell, budget - drawn_total))
        while drawn_total < budget:
            widths = [
                (cell.share(population) * (interval(cell)[1] - interval(cell)[0]),
                 index)
                for index, cell in enumerate(sampled_cells)
            ]
            if sum(w for w, _ in widths) <= CERTIFICATE_EPSILON:
                break
            _, worst = max(widths)
            draw_batch(
                sampled_cells[worst], min(BATCH, budget - drawn_total)
            )

    # A cell the budget never reached has an interval (its whole share)
    # but no point estimate, and then neither has the level.
    estimate: float | None = exact_masked_share
    lo = exact_masked_share
    hi = exact_masked_share
    for cell in sampled_cells:
        share = cell.share(population)
        cell_lo, cell_hi = wilson_interval(
            cell.masked, cell.drawn, cell_confidence
        )
        if not cell.drawn:
            estimate = None
        elif estimate is not None:
            estimate += share * (cell.masked / cell.drawn)
        lo += share * cell_lo
        hi += share * cell_hi
    return ToleranceLevel(
        size,
        sum(cell.masked for cell in sampled_cells),
        drawn_total,
        link_size,
        "sampled",
        population=population,
        samples=drawn_total,
        estimate=None if estimate is None else min(1.0, estimate),
        ci=(max(0.0, lo), min(1.0, hi)),
        breaking_found=bool(breaking),
    ), breaking


# ----------------------------------------------------------------------
# sampled reliability
# ----------------------------------------------------------------------

class ReliabilityReport(FrozenRecord):
    """Probability that one iteration delivers all outputs.

    ``method == "exact"`` reports the enumerated truth;
    ``method == "sampled"`` a stratified estimate whose ``ci`` holds at
    ``confidence`` (``exhaustive_subsets`` then records how many
    subsets exact enumeration would have had to sweep).
    """

    _fields = (
        "reliability", "masked_probability_mass", "evaluated_subsets",
        "guaranteed_lower_bound", "method", "confidence", "ci", "samples",
        "exhaustive_subsets",
    )

    def __init__(
        self,
        reliability: float,
        masked_probability_mass: float,
        evaluated_subsets: int,
        guaranteed_lower_bound: float,
        method: str = "exact",
        confidence: float | None = None,
        ci: tuple[float, float] | None = None,
        samples: int = 0,
        exhaustive_subsets: int | None = None,
    ) -> None:
        self.__dict__.update(
            reliability=reliability,
            masked_probability_mass=masked_probability_mass,
            evaluated_subsets=evaluated_subsets,
            guaranteed_lower_bound=guaranteed_lower_bound,
            method=method,
            confidence=confidence,
            ci=ci,
            samples=samples,
            exhaustive_subsets=exhaustive_subsets,
        )

    def __str__(self) -> str:
        text = (
            f"reliability {self.reliability:.6f} "
            f"(guaranteed lower bound {self.guaranteed_lower_bound:.6f}, "
            f"{self.evaluated_subsets} crash subsets evaluated)"
        )
        if self.method == "sampled" and self.ci is not None:
            text += (
                f" — sampled: ci [{self.ci[0]:.6f}, {self.ci[1]:.6f}] at "
                f"{self.confidence:.0%} confidence, {self.samples} draws "
                f"for a {self.exhaustive_subsets}-subset exhaustive space"
            )
        return text


def _partition(
    names: Sequence[str], probabilities: Mapping[str, float]
) -> tuple[list[str], list[str], list[float]]:
    """Split into (always failing, random) and the random items' odds."""
    always = [n for n in names if probabilities[n] >= 1.0]
    rand = [n for n in names if 0.0 < probabilities[n] < 1.0]
    odds = [
        probabilities[n] / (1.0 - probabilities[n]) for n in rand
    ]
    return always, rand, odds


def sampled_reliability(
    *,
    schedule,
    oracle: Oracle,
    baseline_delivered: bool,
    failure_probabilities: Mapping[str, float],
    times: tuple[float, ...],
    involved_procs: Sequence[str],
    involved_links: Sequence[str],
    link_failure_probabilities: Mapping[str, float] | None = None,
    confidence: float = 0.99,
    budget: int = DEFAULT_RELIABILITY_BUDGET,
    seed: int = 0,
    npf: int = 0,
    npl: int = 0,
) -> ReliabilityReport:
    """Estimate reliability with a confidence interval, adaptively.

    Strata are the joint involved failure counts; uninvolved resources
    marginalize out of the sum exactly (the masking verdict depends
    only on the involved core — the batch engine's own reduction
    theorem).  Each sampled stratum gets a Wilson interval.
    """
    processors = schedule.processor_names()
    links = (
        schedule.link_names()
        if link_failure_probabilities is not None
        else ()
    )
    exhaustive = 2 ** (len(processors) + len(links))

    # Guaranteed lower bound: the paper's theorem, in closed form.
    proc_mass = poisson_binomial(
        [failure_probabilities[p] for p in processors]
    )
    guaranteed = sum(proc_mass[: npf + 1])
    if links:
        link_mass_all = poisson_binomial(
            [link_failure_probabilities[l] for l in links]
        )
        guaranteed *= sum(link_mass_all[: npl + 1])

    # Mass of the truly-empty scenario (counts as delivered by
    # convention, matching the exhaustive sum).
    empty_mass = 1.0
    for p in processors:
        empty_mass *= 1.0 - failure_probabilities[p]
    for l in links:
        empty_mass *= 1.0 - link_failure_probabilities[l]

    inv_procs = list(involved_procs)
    inv_links = list(involved_links) if links else []
    p_always, p_rand, p_odds = _partition(inv_procs, failure_probabilities)
    l_always, l_rand, l_odds = (
        _partition(inv_links, link_failure_probabilities)
        if links
        else ([], [], [])
    )
    proc_strata_mass = poisson_binomial(
        [failure_probabilities[p] for p in inv_procs]
    )
    link_strata_mass = (
        poisson_binomial([link_failure_probabilities[l] for l in inv_links])
        if links
        else [1.0]
    )

    def cell_mass(k: int, j: int) -> float:
        return proc_strata_mass[k] * link_strata_mass[j]

    # Mass of involved-core-empty scenarios: every subset in it reduces
    # to the baseline — delivered iff the baseline delivers — except
    # the truly-empty scenario which counts as delivered by convention.
    core_empty = cell_mass(0, 0)
    exact_contribution = core_empty if baseline_delivered else empty_mass
    evaluated = 1

    # Enumerate candidate strata by descending mass until the ignored
    # tail is negligible against the interval target.
    candidates = [
        (k, j)
        for k in range(len(inv_procs) + 1)
        for j in range(len(inv_links) + 1)
        if (k, j) != (0, 0)
    ]
    candidates.sort(key=lambda kj: (-cell_mass(*kj), kj))
    tail_target = max(RELIABILITY_EPSILON / 10.0, 1e-15)
    covered = core_empty
    strata: list[_Cell] = []
    for k, j in candidates:
        mass = cell_mass(k, j)
        if 1.0 - covered <= tail_target:
            break
        if mass <= 0.0:
            continue
        kr, jr = k - len(p_always), j - len(l_always)
        if kr < 0 or jr < 0 or kr > len(p_rand) or jr > len(l_rand):
            continue  # inconsistent with always-failing resources: mass 0
        count = math.comb(len(p_rand), kr) * math.comb(len(l_rand), jr)
        strata.append(_Cell(k, j, mass, count))
        covered += mass
    tail_mass = max(0.0, 1.0 - covered)

    proc_terms = MassTerms(inv_procs, processors, failure_probabilities)
    link_terms = MassTerms(inv_links, links, link_failure_probabilities)
    p_always_mask = sum(name_bits(p_always, processors))
    l_always_mask = sum(name_bits(l_always, links))
    p_rand_bits = name_bits(p_rand, processors)
    l_rand_bits = name_bits(l_rand, links)

    sampled_strata: list[_Cell] = []
    samplers: dict[int, tuple] = {}
    streams = RngStreams(schedule, seed)
    samples_drawn = 0
    # Exact slabs: full conditional enumeration, collected first and
    # answered in one request; each slab's masses then sum in order.
    slab_sizes: list[int] = []
    slab_pairs: list[Pair] = []
    slab_masses: list[float] = []
    for stratum in strata:
        kr = stratum.k - len(p_always)
        jr = stratum.j - len(l_always)
        if stratum.count <= EXACT_CELL_CAP:
            link_cores = [
                (link_core, link_terms.mass(link_core))
                for link_core in (
                    sum(core) | l_always_mask
                    for core in itertools.combinations(l_rand_bits, jr)
                )
            ]
            for core in itertools.combinations(p_rand_bits, kr):
                proc_core = sum(core) | p_always_mask
                pm = proc_terms.mass(proc_core)
                for link_core, lm in link_cores:
                    slab_pairs.append((proc_core, link_core))
                    slab_masses.append(pm * lm)
            slab_sizes.append(stratum.count)
        else:
            samplers[id(stratum)] = (
                ConditionalSubsetSampler(p_odds),
                ConditionalSubsetSampler(l_odds),
                kr, jr,
                streams(f"rel:{stratum.k}:{stratum.j}"),
            )
            sampled_strata.append(stratum)

    evaluated += len(slab_pairs)
    slab_verdicts = iter(zip(slab_masses, oracle(slab_pairs, times)))
    for slab_size in slab_sizes:
        masked_mass = 0.0
        for mass, ok in itertools.islice(slab_verdicts, slab_size):
            if ok:
                masked_mass += mass
        exact_contribution += masked_mass

    stratum_confidence = 1.0 - max(
        1e-12, (1.0 - confidence) / max(1, len(sampled_strata))
    )

    def draw_batch(stratum: _Cell, n: int) -> None:
        nonlocal samples_drawn, evaluated
        sampler_p, sampler_l, kr, jr, rng = samplers[id(stratum)]
        draws = []
        for _ in range(n):
            idx_p = sampler_p.draw(kr, rng) if kr else ()
            idx_l = sampler_l.draw(jr, rng) if jr else ()
            draws.append((
                sum(p_rand_bits[i] for i in idx_p) | p_always_mask,
                sum(l_rand_bits[i] for i in idx_l) | l_always_mask,
            ))
        stratum.drawn += n
        samples_drawn += n
        evaluated += n
        stratum.masked += sum(1 for ok in oracle(draws, times) if ok)

    def interval(stratum: _Cell) -> tuple[float, float]:
        return wilson_interval(
            stratum.masked, stratum.drawn, stratum_confidence
        )

    if sampled_strata:
        initial = max(32, min(BATCH, budget // max(1, len(sampled_strata))))
        for stratum in sampled_strata:
            draw_batch(stratum, min(initial, max(0, budget - samples_drawn)))
        while samples_drawn < budget:
            widths = [
                (s.weight * (interval(s)[1] - interval(s)[0]), index)
                for index, s in enumerate(sampled_strata)
            ]
            if sum(w for w, _ in widths) + tail_mass <= RELIABILITY_EPSILON:
                break
            _, worst = max(widths)
            draw_batch(
                sampled_strata[worst],
                min(BATCH, budget - samples_drawn),
            )

    point = exact_contribution
    lo_total = exact_contribution
    hi_total = exact_contribution + tail_mass
    for stratum in sampled_strata:
        s_lo, s_hi = interval(stratum)
        mean = stratum.masked / stratum.drawn if stratum.drawn else 0.5
        point += stratum.weight * mean
        lo_total += stratum.weight * s_lo
        hi_total += stratum.weight * s_hi
    point = min(1.0, max(0.0, point))
    return ReliabilityReport(
        reliability=point,
        masked_probability_mass=max(0.0, point - empty_mass),
        evaluated_subsets=evaluated,
        guaranteed_lower_bound=min(guaranteed, 1.0),
        method="sampled",
        confidence=confidence,
        ci=(min(1.0, max(0.0, lo_total)), min(1.0, max(0.0, hi_total))),
        samples=samples_drawn,
        exhaustive_subsets=exhaustive,
    )
