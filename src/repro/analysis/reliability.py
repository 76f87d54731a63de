"""Reliability analysis of fault-tolerant schedules.

The paper guarantees masking of up to ``Npf`` fail-silent processor
failures; its conclusion lists reliability as ongoing work.  This
module quantifies both:

* :func:`fault_tolerance_certificate` checks masking of **every** crash
  subset up to a given size (and at a set of crash instants) and
  reports which subsets are masked — an independent machine-checked
  version of the paper's correctness claim, which also reveals
  *partial* tolerance beyond ``Npf`` (many ``Npf + 1``-subsets are
  masked by luck of placement).  For link-tolerant schedules
  (``npl >= 1``) the enumeration is *combined*: every (processor
  subset, link subset) pair within the joint hypothesis is checked and
  the verdict covers both failure modes at once;
* :func:`schedule_reliability` turns per-processor failure
  probabilities into the probability that one iteration delivers all
  its outputs, by exact enumeration over the ``2^P`` crash subsets.

Levels too large to enumerate (and reliability sums past ``P > 12`` or
``L > 12``) go through the adaptive machinery of
:mod:`repro.analysis.sampling`: closed-form fault bounds, involved-set
projection, and seeded stratified sampling with confidence intervals —
a quantified verdict-with-error-bars, never a silently truncated one.

Both ask every masking verdict of the compile-once batch engine
(:class:`~repro.simulation.batch.BatchScenarioEngine`: crash lanes at
instant 0, footprint-equivalence pruning and a verdict memo, one
verdict-only replay for any other scenario).  The paper-literal
one-simulation-per-scenario enumeration they are pinned against lives
in the test suite (``tests/certify_oracle.py``).
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from typing import Iterable, Mapping

from repro import obs
from repro._record import Record
from repro.analysis import sampling
# Both result types are built in ``sampling`` and re-exported here.
from repro.analysis.sampling import ReliabilityReport, ToleranceLevel
from repro.exceptions import SimulationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.schedule import Schedule
from repro.simulation.batch import MAX_SUBSETS_PER_LEVEL, BatchScenarioEngine
from repro.simulation.failures import DetectionPolicy


#: :func:`schedule_reliability` enumerates the ``2^P x 2^L`` sum exactly
#: up to this many processors and links, and samples it beyond.
ENUMERATION_CAP = 12


def _level_document(level: ToleranceLevel) -> dict:
    """One level of :meth:`FaultToleranceCertificate.to_dict`."""
    document = {
        "failures": level.failures,
        "link_failures": level.link_failures,
        "masked": level.masked_subsets,
        "total": level.total_subsets,
        "method": level.method,
    }
    if level.population not in (None, level.total_subsets):
        document["population"] = level.population
    if level.samples:
        document["samples"] = level.samples
    if level.estimate is not None:
        document["estimate"] = level.estimate
    if level.ci is not None:
        document["ci"] = list(level.ci)
    return document


class FaultToleranceCertificate(Record):
    """Outcome of the exhaustive (combined) crash-subset replay.

    With ``npl = 0`` and no link levels requested this is exactly the
    paper-era processor certificate; combined certification additionally
    enumerates link-failure subsets and reports the joint verdict.
    """

    _fields = (
        "npf", "crash_times", "levels", "breaking_subsets", "npl",
        "breaking_combined", "method", "confidence", "samples", "seed",
    )

    def __init__(
        self,
        npf: int,
        crash_times: tuple[float, ...],
        levels: list[ToleranceLevel] | None = None,
        breaking_subsets: list[frozenset[str]] | None = None,
        npl: int = 0,
        breaking_combined: (
            list[tuple[frozenset[str], frozenset[str]]] | None
        ) = None,
        method: str = "exact",
        confidence: float | None = None,
        samples: int = 0,
        seed: int | None = None,
    ) -> None:
        self.npf = npf
        self.crash_times = crash_times
        self.levels = [] if levels is None else levels
        self.breaking_subsets = (
            [] if breaking_subsets is None else breaking_subsets
        )
        #: The link-failure hypothesis this certificate actually
        #: *verified* — ``min(schedule.npl, max_link_failures)`` when the
        #: enumeration was capped, so an under-enumerated run can never
        #: claim the schedule's full ``npl`` promise vacuously.
        self.npl = npl
        #: Combined ``(processors, links)`` subsets within the hypothesis
        #: that broke the schedule (link-involving ones only; pure
        #: processor breaks stay in ``breaking_subsets``).
        self.breaking_combined = (
            [] if breaking_combined is None else breaking_combined
        )
        #: ``"exact"`` when every level was resolved by (projected)
        #: enumeration; ``"sampled"`` when any level carries a
        #: statistical estimate or a bounds refutation.
        self.method = method
        #: Confidence of the sampled levels' intervals (None for exact
        #: runs).
        self.confidence = confidence
        #: Total random samples drawn across all sampled levels.
        self.samples = samples
        #: User seed the RNG streams were derived from (None for exact
        #: runs).
        self.seed = seed

    @property
    def certified(self) -> bool:
        """True when every subset within the joint hypothesis is
        *provably* masked.

        The hypothesis is ≤ ``npf`` processor crashes *and* ≤ ``npl``
        link failures combined.  Sampled in-hypothesis levels can never
        certify (see :attr:`verdict` for the three-way answer).
        """
        return self.verdict == "certified"

    @property
    def verdict(self) -> str:
        """Three-way verdict over the joint hypothesis.

        ``"certified"`` — every in-hypothesis level proven fully masked
        (exact or projected enumeration); ``"refuted"`` — a concrete
        in-hypothesis breaking subset exists (enumerated, hunted,
        sampled, or a closed-form bounds witness); ``"estimated"`` —
        neither proof: the in-hypothesis levels carry estimates with
        confidence intervals instead.
        """
        in_hypothesis = [
            level
            for level in self.levels
            if level.failures <= self.npf and level.link_failures <= self.npl
        ]
        if any(level.refuted for level in in_hypothesis):
            return "refuted"
        if all(level.fully_masked for level in in_hypothesis):
            return "certified"
        return "estimated"

    @property
    def ci(self) -> tuple[float, float] | None:
        """CI of the weakest sampled level (lowest lower bound), if any."""
        intervals = [
            level.ci for level in self.levels if level.ci is not None
        ]
        return min(intervals) if intervals else None

    def to_dict(self) -> dict:
        """JSON-compatible certificate document (CLI and campaign records)."""
        document: dict = {
            "certified": self.certified,
            "verdict": self.verdict,
            "npf": self.npf,
            "npl": self.npl,
            "method": self.method,
            "crash_times": list(self.crash_times),
            "levels": [_level_document(level) for level in self.levels],
            "breaking_subsets": [
                sorted(subset) for subset in self.breaking_subsets
            ],
            "breaking_combined": [
                [sorted(procs), sorted(links)]
                for procs, links in self.breaking_combined
            ],
        }
        if self.method == "sampled":
            document["confidence"] = self.confidence
            document["samples"] = self.samples
            document["seed"] = self.seed
            document["ci"] = list(self.ci) if self.ci is not None else None
        return document

    def level(self, failures: int, link_failures: int = 0) -> ToleranceLevel:
        """The statistics for one exact combined subset size."""
        for entry in self.levels:
            if (
                entry.failures == failures
                and entry.link_failures == link_failures
            ):
                return entry
        raise KeyError((failures, link_failures))

    def __str__(self) -> str:
        hypothesis = f"npf={self.npf}"
        if self.npl or any(level.link_failures for level in self.levels):
            hypothesis += f", npl={self.npl}"
        verdict = self.verdict
        word = {
            "certified": "CERTIFIED",
            "refuted": "BROKEN",
            "estimated": "ESTIMATED",
        }[verdict]
        lines = [
            f"fault-tolerance certificate ({hypothesis}, "
            f"crash times {list(self.crash_times)}): {word}"
        ]
        if self.method == "sampled" and self.confidence is not None:
            lines[0] += (
                f" ({self.samples} samples at "
                f"{self.confidence:.0%} confidence, seed {self.seed})"
            )
        for level in self.levels:
            label = f"  {level.failures} crash(es)"
            if level.link_failures:
                label += f" + {level.link_failures} link(s)"
            if level.method == "sampled":
                lo, hi = level.ci if level.ci is not None else (0.0, 1.0)
                measured = (
                    "not sampled (budget spent; "
                    if level.estimate is None
                    else f"~{level.estimate:.2%} masked ("
                )
                lines.append(
                    f"{label}: {measured}sampled {level.samples} of "
                    f"{level.population} subsets, ci [{lo:.4f}, {hi:.4f}])"
                )
            elif level.method == "bounds":
                lines.append(
                    f"{label}: refuted by closed-form bound "
                    f"({level.population} subsets, witness below)"
                )
            else:
                suffix = (
                    " (projected from the involved core)"
                    if level.method == "projected"
                    else ""
                )
                lines.append(
                    f"{label}: {level.masked_subsets}/"
                    f"{level.total_subsets} subsets masked{suffix}"
                )
        for subset in self.breaking_subsets[:5]:
            lines.append(f"  breaking subset: {sorted(subset)}")
        for procs, links in self.breaking_combined[:5]:
            lines.append(
                f"  breaking combined subset: {sorted(procs)} + "
                f"links {sorted(links)}"
            )
        return "\n".join(lines)


def _resolve_engine(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    detection: DetectionPolicy,
    engine: BatchScenarioEngine | None,
) -> BatchScenarioEngine:
    """A batch engine for this schedule, validated when caller-supplied."""
    if engine is None:
        return BatchScenarioEngine(schedule, algorithm, detection)
    if engine.detection is not DetectionPolicy(detection):
        raise SimulationError(
            f"engine was built with detection={engine.detection}, "
            f"requested {DetectionPolicy(detection)}"
        )
    if engine.schedule is not schedule or engine.algorithm is not algorithm:
        # A mismatched engine would silently return the *other*
        # schedule's verdicts — the compiled arrays ignore these
        # arguments entirely.
        raise SimulationError(
            "engine was compiled for a different schedule/algorithm"
        )
    return engine


def fault_tolerance_certificate(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    max_failures: int | None = None,
    crash_times: Iterable[float] = (0.0,),
    detection: DetectionPolicy = DetectionPolicy.NONE,
    engine: BatchScenarioEngine | None = None,
    max_link_failures: int | None = None,
    confidence: float = 0.99,
    budget: int | None = None,
    seed: int = 0,
) -> FaultToleranceCertificate:
    """Check masking of every crash subset up to a size.

    ``max_failures`` defaults to ``schedule.npf + 1`` so the report also
    shows how much of the *next* failure level happens to be tolerated;
    a smaller bound weakens the verified hypothesis to
    ``npf = min(schedule.npf, max_failures)``.  ``crash_times`` are the
    instants at which all processors of a subset crash simultaneously
    (the paper's experiment uses t = 0, the worst case for active
    replication since nothing has been sent yet).

    ``max_link_failures`` bounds the *combined* enumeration: every
    (processor subset, link subset) pair with at most that many broken
    links is checked alongside the crashes.  It defaults to the
    schedule's own ``npl`` hypothesis, so a paper-era ``npl = 0``
    schedule gets exactly the original processor-only certificate and a
    link-tolerant schedule is certified against what it promises.
    Negative bounds are rejected.

    Each level's size picks its resolution: exhaustive enumeration
    wherever it fits under :data:`MAX_SUBSETS_PER_LEVEL`, then
    involved-set projection, closed-form bounds and seeded stratified
    sampling for the levels enumeration cannot reach (see
    :func:`repro.analysis.sampling.evaluate_level`).

    ``confidence``, ``budget`` and ``seed`` parameterize the sampled
    levels: the adaptive loop refines each level until its interval
    width undercuts :data:`~repro.analysis.sampling.CERTIFICATE_EPSILON`
    or the total ``budget`` of random draws is spent, and every draw
    derives deterministically from the schedule content hash and
    ``seed``.

    Pass ``engine`` to share one prebuilt batch engine (and its caches)
    across calls — e.g. a certificate followed by a reliability sweep.
    """
    sampling.check_sampling_parameters(confidence, budget)
    for name, value in (
        ("max_failures", max_failures),
        ("max_link_failures", max_link_failures),
    ):
        if value is not None and value < 0:
            raise SimulationError(f"{name} must be >= 0, got {value!r}")
    engine = _resolve_engine(schedule, algorithm, detection, engine)
    processors = schedule.processor_names()
    links = schedule.link_names()
    npl = getattr(schedule, "npl", 0)
    bound = schedule.npf + 1 if max_failures is None else max_failures
    bound = min(bound, len(processors))
    link_bound = npl if max_link_failures is None else max_link_failures
    link_bound = min(link_bound, len(links))
    times = tuple(crash_times)
    # The certificate only vouches for what it enumerated: a bound below
    # the schedule's npf or npl weakens the verified hypothesis
    # accordingly (never a vacuous CERTIFIED).
    certificate = FaultToleranceCertificate(
        npf=min(schedule.npf, bound),
        crash_times=times,
        npl=min(npl, link_bound),
    )
    needs_sampling = any(
        math.comb(len(processors), size) * math.comb(len(links), link_size)
        > MAX_SUBSETS_PER_LEVEL
        for size in range(bound + 1)
        for link_size in range(link_bound + 1)
    )
    bounds: sampling.FaultBounds | None = None
    involved_procs: tuple[str, ...] = ()
    involved_links: tuple[str, ...] = ()
    proc_cone_rank: tuple[str, ...] = ()
    if needs_sampling:
        with obs.span("certify.bounds"):
            bounds = sampling.analytic_fault_bounds(schedule)
        involved_procs = engine.involved_processors()
        involved_links = engine.involved_links()
        cone = engine.processor_cone_fractions()
        proc_cone_rank = tuple(
            sorted(cone, key=lambda name: (-cone[name], name))
        )
    budget_left = (
        sampling.DEFAULT_CERTIFICATE_BUDGET if budget is None else budget
    )
    pruned_before = engine.stats.pruned_nominal + engine.stats.memo_hits
    streams = sampling.RngStreams(schedule, seed)
    with obs.span("certify.sample") if needs_sampling else nullcontext():
        for size in range(bound + 1):
            for link_size in range(link_bound + 1):
                level, breaking = sampling.evaluate_level(
                    size=size,
                    link_size=link_size,
                    oracle=engine.crash_masks_masked,
                    times=times,
                    processors=processors,
                    links=links,
                    involved_procs=involved_procs,
                    involved_links=involved_links,
                    proc_cone_rank=proc_cone_rank,
                    level_cap=MAX_SUBSETS_PER_LEVEL,
                    bounds=bounds,
                    confidence=confidence,
                    budget=budget_left,
                    streams=streams,
                )
                budget_left = max(0, budget_left - level.samples)
                certificate.levels.append(level)
                if size <= schedule.npf and link_size <= npl:
                    for proc_subset, link_subset in breaking:
                        if link_size:
                            certificate.breaking_combined.append(
                                (frozenset(proc_subset), frozenset(link_subset))
                            )
                        else:
                            certificate.breaking_subsets.append(
                                frozenset(proc_subset)
                            )
    if {level.method for level in certificate.levels} & {"sampled", "bounds"}:
        certificate.method = "sampled"
        certificate.confidence = confidence
        certificate.samples = sum(level.samples for level in certificate.levels)
        certificate.seed = seed
    if needs_sampling:
        obs.metrics.inc("certify.samples_drawn", certificate.samples)
        obs.metrics.inc(
            "certify.samples_pruned",
            engine.stats.pruned_nominal + engine.stats.memo_hits
            - pruned_before,
        )
    return certificate


def event_boundary_times(schedule: Schedule, limit: int = 32) -> tuple[float, ...]:
    """Representative crash instants: the static event start dates.

    Crashing exactly when an event starts exercises the tightest races
    (data produced but not yet sent, comm started but not delivered).
    At most ``limit`` evenly spaced boundaries are returned.
    """
    boundaries = sorted(
        {0.0}
        | {event.start for event in schedule.all_operations()}
        | {comm.start for comm in schedule.all_comms()}
    )
    if len(boundaries) <= limit:
        return tuple(boundaries)
    step = len(boundaries) / limit
    return tuple(boundaries[int(i * step)] for i in range(limit))


def _validate_probabilities(
    names: Iterable[str], probabilities: Mapping[str, float], kind: str
) -> None:
    """Every named resource needs a probability in [0, 1]."""
    for name in names:
        if name not in probabilities:
            raise SimulationError(
                f"no failure probability given for {kind} {name!r}"
            )
        probability = probabilities[name]
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"failure probability of {name!r} must be in [0, 1], "
                f"got {probability!r}"
            )


def schedule_reliability(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    failure_probabilities: Mapping[str, float],
    crash_times: Iterable[float] = (0.0,),
    detection: DetectionPolicy = DetectionPolicy.NONE,
    engine: BatchScenarioEngine | None = None,
    link_failure_probabilities: Mapping[str, float] | None = None,
    confidence: float = 0.99,
    budget: int | None = None,
    seed: int = 0,
) -> ReliabilityReport:
    """Reliability over the ``2^P`` (or ``2^P x 2^L``) crash subsets.

    ``failure_probabilities[p]`` is the probability that processor ``p``
    fails (fail-silent) during the iteration, independently of the
    others.  A subset counts as masked when it is masked at *every*
    instant of ``crash_times``.  The guaranteed lower bound is the
    probability that at most ``Npf`` processors fail — what the paper's
    theorem promises without looking at the schedule.

    With ``link_failure_probabilities`` the enumeration additionally
    sweeps every link subset (``2^P x 2^L`` combined scenarios); the
    guaranteed lower bound then also requires at most ``Npl`` broken
    links.  ``None`` keeps the processor-only sum bit-identical to the
    pre-link-tolerance implementation.

    The sum is enumerated exactly up to ``P, L <= 12``
    (:data:`ENUMERATION_CAP`) and estimated by stratified
    conditional-Bernoulli sampling beyond (seeded, deterministic, with
    a ``ci`` at ``confidence`` — see
    :func:`repro.analysis.sampling.sampled_reliability`).

    The exact probability sum enumerates subsets in canonical order and
    asks the batch engine for all their verdicts in one request.
    ``engine`` shares a prebuilt batch engine's caches, e.g. with a
    preceding certificate.
    """
    sampling.check_sampling_parameters(confidence, budget)
    processors = schedule.processor_names()
    _validate_probabilities(processors, failure_probabilities, "processor")
    links = schedule.link_names() if link_failure_probabilities is not None else ()
    _validate_probabilities(links, link_failure_probabilities or {}, "link")
    engine = _resolve_engine(schedule, algorithm, detection, engine)
    npl = getattr(schedule, "npl", 0)
    times = tuple(crash_times)
    if len(processors) > ENUMERATION_CAP or len(links) > ENUMERATION_CAP:
        with obs.span("certify.sample"):
            report = sampling.sampled_reliability(
                schedule=schedule,
                oracle=engine.crash_masks_masked,
                baseline_delivered=engine.baseline_delivered,
                failure_probabilities=failure_probabilities,
                times=times,
                involved_procs=engine.involved_processors(),
                involved_links=engine.involved_links(),
                link_failure_probabilities=link_failure_probabilities,
                confidence=confidence,
                budget=(
                    sampling.DEFAULT_RELIABILITY_BUDGET
                    if budget is None
                    else budget
                ),
                seed=seed,
                npf=schedule.npf,
                npl=npl,
            )
        obs.metrics.inc("certify.samples_drawn", report.samples)
        return report
    guaranteed = 0.0
    evaluated = 0
    # With no link probabilities, ``links`` is empty and the inner loop
    # degenerates to one empty link subset: the processor-only sum.  A
    # mass is the left-to-right product over the resources in canonical
    # order.  The subsets to ask about are collected first and answered
    # in one request; the sums then run in the same canonical order.
    proc_terms = sampling.MassTerms(processors, processors, failure_probabilities)
    link_terms = sampling.MassTerms(links, links, link_failure_probabilities)
    link_masks = [
        (link_size, sum(subset))
        for link_size in range(len(links) + 1)
        for subset in itertools.combinations(link_terms.bits, link_size)
    ]
    masses: list[tuple[float, bool]] = []
    pairs: list[sampling.Pair] = []
    for size in range(len(processors) + 1):
        for subset in itertools.combinations(proc_terms.bits, size):
            proc_mask = sum(subset)
            proc_mass = proc_terms.mass(proc_mask)
            for link_size, link_mask in link_masks:
                evaluated += 1
                mass = link_terms.mass(link_mask, proc_mass)
                if mass == 0.0:
                    continue
                if size <= schedule.npf and link_size <= npl:
                    guaranteed += mass
                empty = size == 0 and link_size == 0
                masses.append((mass, empty))
                if not empty:
                    pairs.append((proc_mask, link_mask))
    verdicts = iter(engine.crash_masks_masked(pairs, times))
    reliability = 0.0
    masked_mass = 0.0
    for mass, empty in masses:
        if empty or next(verdicts):
            reliability += mass
            if not empty:
                masked_mass += mass
    return ReliabilityReport(
        reliability=min(reliability, 1.0),
        masked_probability_mass=masked_mass,
        evaluated_subsets=evaluated,
        guaranteed_lower_bound=min(guaranteed, 1.0),
    )


def mean_time_to_failure_iterations(
    per_iteration_reliability: float,
) -> float:
    """Expected number of iterations before the first unmasked failure.

    With independent iterations the iteration count to first failure is
    geometric: ``MTTF = 1 / (1 - R)`` (``inf`` for ``R = 1``).
    """
    if not 0.0 <= per_iteration_reliability <= 1.0:
        raise ValueError("reliability must be in [0, 1]")
    if per_iteration_reliability == 1.0:
        return math.inf
    return 1.0 / (1.0 - per_iteration_reliability)
