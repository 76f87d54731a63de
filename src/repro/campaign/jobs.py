"""Deterministic expansion of a campaign spec into content-hashed jobs.

Every grid point of a :class:`~repro.campaign.spec.CampaignSpec` becomes
one :class:`Job`.  A job's ``digest`` is the SHA-256 of the canonical
JSON of the *problem it builds* plus the scheduler options, measures and
failure scenarios — so two jobs that would schedule the same problem the
same way share a digest, are deduplicated at expansion time, and hit the
same entry of the content-addressed cache across campaigns.

Jobs are plain picklable dataclasses: a spawned worker gets the
coordinate, not the built problem, and rebuilds it deterministically in
its own process.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Mapping, NamedTuple

from repro import obs
from repro.baselines.hbp import schedule_hbp
from repro.baselines.list_scheduler import non_fault_tolerant_makespan
from repro.core.compile import compile_cache_stats, shared_problem
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.campaign.spec import (
    CampaignSpec,
    FailureSpec,
    ReliabilitySpec,
    WorkloadSpec,
)
from repro.exceptions import SerializationError
from repro.faultinject import failpoint
from repro.analysis.metrics import degraded_lengths
from repro.analysis.reliability import (
    event_boundary_times,
    fault_tolerance_certificate,
    mean_time_to_failure_iterations,
    schedule_reliability,
)
from repro.simulation.batch import BatchScenarioEngine
from repro.hardware.architecture import Architecture
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.schedule.serialization import (
    canonical_hash,
    canonical_json,
    content_hash,
    problem_to_dict,
    schedule_to_dict,
)
from repro.simulation.compiled import CompiledSchedule
from repro.simulation.failures import FailureScenario
from repro.workloads import families
from repro.workloads.random_dag import (
    RandomWorkloadConfig,
    generate_algorithm,
    generate_comm_times,
    generate_exec_times,
    generate_problem,
)

_TOPOLOGY_BUILDERS = {
    "fully_connected": fully_connected,
    "single_bus": single_bus,
    "ring": ring,
    "star": star,
}


@dataclass(frozen=True)
class Job:
    """One unit of campaign work: a problem coordinate plus its digest."""

    index: int
    campaign: str
    workload: WorkloadSpec
    topology: str
    processors: int
    npf: int
    ccr: float
    seed: int
    failures: tuple[FailureSpec, ...]
    measures: tuple[str, ...]
    options: Mapping[str, bool]
    mean_execution: float
    digest: str
    reliability: ReliabilitySpec | None = None
    npl: int = 0

    def coordinate(self) -> dict:
        """The grid coordinate of this job as a JSON-compatible dict."""
        return {
            "workload": asdict(self.workload),
            "topology": self.topology,
            "processors": self.processors,
            "npf": self.npf,
            "npl": self.npl,
            "ccr": self.ccr,
            "seed": self.seed,
        }

    def scheduler_options(self) -> SchedulerOptions:
        """Scheduler configuration this job runs with."""
        return SchedulerOptions(**dict(self.options))

    def grid_point(self) -> "GridPoint":
        """The npf-free part of this job's coordinate."""
        return GridPoint(
            self.workload, self.topology, self.processors, self.npl,
            self.ccr, self.seed, self.mean_execution,
        )


class GridPoint(NamedTuple):
    """A grid coordinate without its ``npf``: one problem up to ``npf``.

    The jobs of one grid point schedule the same graph and timing
    tables; only the problem's ``npf`` and, outside the random fully
    connected family, its name follow the job.  So one build serves
    every npf sibling (:meth:`at_npf`).
    """

    workload: WorkloadSpec
    topology: str
    processors: int
    npl: int
    ccr: float
    seed: int
    mean_execution: float

    def build(self, npf: int) -> ProblemSpec:
        """Build this point's problem at ``npf``."""
        return build_problem(
            self.workload, self.topology, self.processors, npf, self.ccr,
            self.seed, self.mean_execution, npl=self.npl,
        )

    def problem_name(self, problem: ProblemSpec, npf: int) -> str:
        """The name :meth:`build` gives the problem at ``npf``."""
        if _generated_verbatim(self.workload, self.topology):
            return problem.name
        return _problem_name(
            problem.algorithm.name, self.topology, self.processors, npf,
            self.npl, self.ccr, self.seed,
        )

    def at_npf(self, problem: ProblemSpec, npf: int) -> ProblemSpec:
        """``problem``, built for this point, at ``npf``.

        A new :class:`ProblemSpec` that shares the graph and tables of
        ``problem``, equal to what ``build(npf)`` returns.
        """
        return problem.replace(npf=npf, name=self.problem_name(problem, npf))


def build_architecture(topology: str, processors: int) -> Architecture:
    """Build the named architecture topology."""
    try:
        builder = _TOPOLOGY_BUILDERS[topology]
    except KeyError:
        raise SerializationError(f"unknown topology {topology!r}") from None
    return builder(processors)


def _family_graph(workload: WorkloadSpec):
    if workload.family == "in_tree":
        return families.in_tree(workload.size, workload.arity)
    if workload.family == "out_tree":
        return families.out_tree(workload.size, workload.arity)
    if workload.family == "butterfly":
        return families.butterfly(workload.size)
    if workload.family == "gauss":
        return families.gaussian_elimination(workload.size)
    if workload.family == "pipeline":
        return families.pipeline(workload.size, workload.arity)
    raise SerializationError(f"unknown workload family {workload.family!r}")


def build_problem(
    workload: WorkloadSpec,
    topology: str,
    processors: int,
    npf: int,
    ccr: float,
    seed: int,
    mean_execution: float = 10.0,
    npl: int = 0,
) -> ProblemSpec:
    """Deterministically build the problem of one grid coordinate.

    ``random`` workloads on the ``fully_connected`` topology go through
    :func:`~repro.workloads.random_dag.generate_problem` verbatim, so a
    campaign over the paper's setting produces *bit-identical* problems
    to the legacy Figure-9/10 sweeps.  Every other coordinate draws its
    timing tables from the same seeded uniform distributions, which
    makes the ``seeds`` axis meaningful for the structured families too.
    """
    if _generated_verbatim(workload, topology):
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=workload.size,
                ccr=ccr,
                processors=processors,
                npf=npf,
                mean_execution=mean_execution,
                heterogeneous=workload.heterogeneous,
                max_predecessors=workload.max_predecessors,
                seed=seed,
            )
        )
        problem.npl = npl
        return problem
    rng = random.Random(seed)
    if workload.family == "random":
        algorithm = generate_algorithm(
            rng,
            workload.size,
            workload.max_predecessors,
            name=f"random-N{workload.size}-seed{seed}",
        )
    else:
        algorithm = _family_graph(workload)
    architecture = build_architecture(topology, processors)
    exec_times = generate_exec_times(
        rng,
        algorithm,
        architecture.processor_names(),
        mean_execution,
        workload.heterogeneous,
    )
    comm_times = generate_comm_times(
        rng,
        algorithm,
        architecture.link_names(),
        ccr * mean_execution,
        workload.heterogeneous,
    )
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=exec_times,
        comm_times=comm_times,
        npf=npf,
        npl=npl,
        name=_problem_name(
            algorithm.name, topology, processors, npf, npl, ccr, seed
        ),
    )


def _generated_verbatim(workload: WorkloadSpec, topology: str) -> bool:
    """True for the coordinates :func:`generate_problem` builds as is."""
    return workload.family == "random" and topology == "fully_connected"


def _problem_name(
    algorithm_name: str,
    topology: str,
    processors: int,
    npf: int,
    npl: int,
    ccr: float,
    seed: int,
) -> str:
    return (
        f"{algorithm_name}-{topology}-p{processors}"
        f"-npf{npf}"
        + (f"-npl{npl}" if npl else "")
        + f"-ccr{ccr:g}-seed{seed}"
    )


def job_problem(job: Job) -> ProblemSpec:
    """The problem a job schedules (deterministic).

    The npf siblings of a grid point share one build through a small
    per-process memo (:func:`repro.core.compile.shared_problem`), so a
    sibling's compilation finds the core key and comm rows already
    cached on the shared tables.  The returned problem is a fresh
    :class:`ProblemSpec` over those shared tables: callers must not
    mutate the tables.
    """
    point = job.grid_point()
    problem = shared_problem(point, lambda: point.build(job.npf))
    return point.at_npf(problem, job.npf)


def job_digest(
    problem: ProblemSpec,
    options: Mapping[str, bool],
    measures: tuple[str, ...],
    failures: tuple[FailureSpec, ...],
    reliability: ReliabilitySpec | None = None,
) -> str:
    """Content hash identifying a job: problem + configuration."""
    return content_hash(
        "job",
        _job_document(problem, options, measures, failures, reliability),
    )


def _job_document(
    problem: ProblemSpec,
    options: Mapping[str, bool],
    measures: tuple[str, ...],
    failures: tuple[FailureSpec, ...],
    reliability: ReliabilitySpec | None,
) -> dict:
    """The document :func:`job_digest` hashes."""
    document = {
        "problem": problem_to_dict(problem),
        "options": dict(options),
        "measures": list(measures),
        "failures": [asdict(f) for f in failures],
    }
    if reliability is not None:
        # Only hashed when present so pre-existing digests (and their
        # cache entries) stay valid for campaigns without the measure;
        # unset link knobs are dropped for the same reason — a spec
        # predating link tolerance must keep its digests.
        spec_document = asdict(reliability)
        for knob in ("max_link_failures", "link_probability", "budget"):
            if spec_document.get(knob) is None:
                del spec_document[knob]
        # Default-valued sampling knobs are likewise dropped: a spec
        # predating sampled certification must keep its digests.
        for knob, default in (("confidence", 0.99), ("seed", 0)):
            if spec_document.get(knob) == default:
                del spec_document[knob]
        document["reliability"] = spec_document
    return document


#: Stand-ins for a problem's name and npf in the canonical text of a
#: job document; a NUL appears in no generated name.
_NAME_MARK = canonical_json("\x00name\x00")
_NPF_MARK = canonical_json("\x00npf\x00")


def _npf_digests(
    point: GridPoint,
    npfs: list[int],
    options: Mapping[str, bool],
    measures: tuple[str, ...],
    failures: tuple[FailureSpec, ...],
    reliability: ReliabilitySpec | None,
) -> list[str]:
    """The :func:`job_digest` of ``point`` at each of ``npfs``.

    The problem is built and encoded once: its canonical text is made
    with marks in place of the name and npf, and each sibling's values
    are spliced in, which gives the very bytes ``job_digest`` hashes
    (no key moves, since the problem object is not inside an array).
    """
    problem = point.build(npfs[0])
    document = _job_document(problem, options, measures, failures, reliability)
    document["problem"]["name"] = "\x00name\x00"
    document["problem"]["npf"] = "\x00npf\x00"
    text = canonical_json(document)
    del document  # the largest object here; the siblings need only text
    if text.count(_NAME_MARK) != 1 or text.count(_NPF_MARK) != 1:
        # A mark occurs in the content itself: encode each sibling.
        return [
            job_digest(
                point.at_npf(problem, npf), options, measures, failures,
                reliability,
            )
            for npf in npfs
        ]
    # "name" sorts before "npf": the marks cut the text in three.
    head, _, rest = text.partition(_NAME_MARK)
    del text
    middle, _, tail = rest.partition(_NPF_MARK)
    del rest
    return [
        canonical_hash(
            "job", head, canonical_json(point.problem_name(problem, npf)),
            middle, canonical_json(npf), tail,
        )
        for npf in npfs
    ]


def expand_jobs(spec: CampaignSpec) -> list[Job]:
    """Expand a spec into its deduplicated, deterministically-ordered jobs.

    Grid points whose problems (and configuration) hash identically are
    collapsed onto the first occurrence — identical work is never
    scheduled twice, the content-addressed guarantee of the subsystem.
    The coordinates that differ only in ``npf`` share one problem
    build and one encoding (:func:`_npf_digests`), digested one grid
    point at a time.  Work *inside* distinct jobs that does not depend
    on their ``npf`` is shared the same way at execution time: the
    built problem (:func:`job_problem`) and the ``non_ft`` baseline,
    FTBAR at ``Npf = 0``
    (:func:`~repro.baselines.list_scheduler.non_fault_tolerant_makespan`),
    are memoized per process, so the jobs of one grid point's npf axis
    build and compute them once.  Records do not depend on which job
    computed them.
    """
    reliability = spec.reliability if "reliability" in spec.measures else None
    coordinates: list[tuple[GridPoint, int]] = []
    siblings: dict[GridPoint, list[int]] = {}
    for index, coordinate in enumerate(spec.coordinates()):
        workload, topology, processors, npf, npl, ccr, seed = coordinate
        point = GridPoint(
            workload, topology, processors, npl, ccr, seed,
            spec.mean_execution,
        )
        coordinates.append((point, npf))
        siblings.setdefault(point, []).append(index)
    digests: list[str] = [""] * len(coordinates)
    for point, indices in siblings.items():
        npfs = [coordinates[index][1] for index in indices]
        for index, digest in zip(indices, _npf_digests(
            point, npfs, spec.options, spec.measures, spec.failures,
            reliability,
        )):
            digests[index] = digest
    jobs: list[Job] = []
    seen: set[str] = set()
    for index, ((point, npf), digest) in enumerate(zip(coordinates, digests)):
        if digest in seen:
            continue
        seen.add(digest)
        jobs.append(
            Job(
                index=index,
                campaign=spec.name,
                workload=point.workload,
                topology=point.topology,
                processors=point.processors,
                npf=npf,
                npl=point.npl,
                ccr=point.ccr,
                seed=point.seed,
                failures=spec.failures,
                measures=spec.measures,
                options=dict(spec.options),
                mean_execution=spec.mean_execution,
                digest=digest,
                reliability=reliability,
            )
        )
    return jobs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def execute_job(job: Job) -> dict:
    """Run one job and return its cacheable document.

    The returned document has two parts: ``record`` — the deterministic
    measurement record written to the result store (identical across
    runs, machines and worker counts) — and ``schedule`` / ``timing`` —
    the serialized FTBAR schedule and the run's volatile telemetry.

    Every job runs under a private in-memory tracer (installed as the
    process tracer for the job's duration), so the scheduler and batch
    engine spans land in the job's own stream whether or not the parent
    traces.  The ``timing`` section is derived from that stream:
    ``elapsed_s`` is the ``job.run`` root span's duration, and the
    ``obs`` subsection carries the per-phase span totals plus the
    worker heartbeat.
    """
    # Chaos-harness hook: models slow or dying compute (sleep past a
    # lease TTL, kill mid-job) on any backend; no-op in production.
    failpoint("worker.execute", key=job.digest)
    exporter = obs.ListExporter()
    tracer = obs.Tracer(
        exporter, meta={"job": job.digest[:12], "campaign": job.campaign}
    )
    with obs.scoped(tracer), tracer.span(
        "job.run", job=job.digest[:12], index=job.index
    ):
        record, schedule_document, compile_delta = _execute(job, tracer)
    spans = obs.aggregate_spans(exporter.lines)
    meta_line = exporter.lines[0]
    return {
        "digest": job.digest,
        "record": record,
        "schedule": schedule_document,
        "timing": {
            "elapsed_s": sum(
                entry["total_s"] for entry in spans
                if entry["name"] == "job.run"
            ),
            "compile_cache": compile_delta,
            "obs": {
                "worker": meta_line["pid"],
                "started_wall": meta_line["started_wall"],
                "spans": spans,
            },
        },
    }


def reemit_job_telemetry(tracer, job: Job, document: dict) -> None:
    """Fold one worker's job telemetry into the parent trace.

    Jobs trace into in-memory streams: a spawned worker must not write
    the parent's trace file (``_worker_process`` in
    :mod:`repro.campaign.backends.directory` drops the inherited
    tracer), so its job summary travels in the shard line.  The
    dispatching process re-emits the summary: one ``campaign.job``
    completion event carrying the worker heartbeat and
    the job's per-phase aggregate spans.
    """
    timing = document.get("timing", {})
    telemetry = timing.get("obs", {})
    tracer.event(
        "campaign.job",
        job=job.digest[:12],
        index=job.index,
        worker=telemetry.get("worker"),
        started_wall=telemetry.get("started_wall"),
        elapsed_s=timing.get("elapsed_s"),
    )
    for entry in telemetry.get("spans", ()):
        tracer.aggregate(
            entry["name"],
            entry["total_s"],
            entry["count"],
            job=job.digest[:12],
        )


def _execute(job: Job, tracer) -> tuple[dict, dict, dict]:
    """The job's measurement phases, spanned under the job tracer."""
    compile_before = compile_cache_stats()
    with tracer.span("job.build_problem"):
        problem = job_problem(job)
    options = job.scheduler_options()
    measures = set(job.measures)

    with tracer.span("job.schedule", problem=problem.name):
        ftbar = schedule_ftbar(problem, options)
    record: dict = {
        "problem": problem.name,
        "coordinate": job.coordinate(),
        "ftbar": {
            "makespan": ftbar.makespan,
            "rtc_satisfied": ftbar.rtc_satisfied,
            "replicas": ftbar.schedule.replica_count(),
            "comms": ftbar.schedule.comm_count(),
            "pressure_evaluations": ftbar.stats.pressure_evaluations,
        },
    }
    if "non_ft" in measures:
        with tracer.span("job.baseline", kind="non_ft") as span:
            hits = compile_cache_stats()["baseline_hits"]
            record["non_ft"] = {
                "makespan": non_fault_tolerant_makespan(problem, options)
            }
            # The job's npf sibling may have computed it already.
            span.set(
                memo="hit"
                if compile_cache_stats()["baseline_hits"] > hits
                else "miss"
            )
    hbp = None
    if "hbp" in measures:
        with tracer.span("job.baseline", kind="hbp"):
            hbp = schedule_hbp(problem)
        record["hbp"] = {"makespan": hbp.makespan}
    if "degraded" in measures and job.npf >= 1:
        with tracer.span("job.degraded"):
            degraded: dict = {
                "ftbar": degraded_lengths(
                    ftbar.schedule, ftbar.expanded_algorithm
                )
            }
            if hbp is not None:
                degraded["hbp"] = degraded_lengths(
                    hbp.schedule, problem.algorithm
                )
        record["degraded"] = degraded
    if "reliability" in measures and job.reliability is not None:
        with tracer.span("job.certify"):
            record["reliability"] = _certify(job.reliability, ftbar)
    if job.failures:
        with tracer.span("job.inject", scenarios=len(job.failures)):
            compiled = CompiledSchedule(
                ftbar.schedule, ftbar.expanded_algorithm
            )
            record["failures"] = [
                _inject(failure, ftbar, problem, compiled)
                for failure in job.failures
            ]
    # The compile-cache delta goes in the volatile ``timing`` section,
    # not ``record``: whether this job's CompiledProblem core was a memo
    # hit depends on which jobs ran before it in this process, so it
    # would break record determinism across worker counts.
    compile_after = compile_cache_stats()
    with tracer.span("job.serialize"):
        schedule_document = schedule_to_dict(ftbar.schedule)
    compile_delta = {
        key: compile_after[key] - compile_before[key]
        for key in (
            "core_hits",
            "core_misses",
            "variant_hits",
            "variant_misses",
        )
    }
    return record, schedule_document, compile_delta


def _certify(spec: ReliabilitySpec, ftbar) -> dict:
    """Certify one FTBAR schedule and sweep its failure probabilities.

    One batch scenario engine serves the certificate and every point
    of the probability sweep, so the crash-subset verdicts are simulated
    once per equivalence class for the whole record.  The record is
    deterministic: identical across runs, machines and worker counts.
    """
    schedule = ftbar.schedule
    algorithm = ftbar.expanded_algorithm
    times = (
        event_boundary_times(schedule, limit=spec.boundary_limit)
        if spec.crash_times == "boundaries"
        else (0.0,)
    )
    engine = BatchScenarioEngine(schedule, algorithm, spec.detection)
    certificate = fault_tolerance_certificate(
        schedule,
        algorithm,
        max_failures=spec.max_failures,
        crash_times=times,
        detection=spec.detection,
        engine=engine,
        max_link_failures=spec.max_link_failures,
        confidence=spec.confidence,
        budget=spec.budget,
        seed=spec.seed,
    )
    link_probabilities = (
        {l: spec.link_probability for l in schedule.link_names()}
        if spec.link_probability is not None
        else None
    )
    sweep = []
    for probability in spec.probabilities:
        report = schedule_reliability(
            schedule,
            algorithm,
            {p: probability for p in schedule.processor_names()},
            crash_times=times,
            detection=spec.detection,
            engine=engine,
            link_failure_probabilities=link_probabilities,
            confidence=spec.confidence,
            budget=spec.budget,
            seed=spec.seed,
        )
        mttf = mean_time_to_failure_iterations(report.reliability)
        point = {
            "probability": probability,
            "reliability": report.reliability,
            "guaranteed_lower_bound": report.guaranteed_lower_bound,
            # None instead of inf: the records must stay strict JSON.
            "mttf_iterations": None if math.isinf(mttf) else mttf,
        }
        if report.method == "sampled":
            point["method"] = "sampled"
            point["ci"] = list(report.ci)
            point["samples"] = report.samples
        sweep.append(point)
    record = {
        "certified": certificate.certified,
        "crash_times": len(times),
        "levels": [
            {
                "failures": level.failures,
                "masked": level.masked_subsets,
                "total": level.total_subsets,
                # Key emitted only for combined levels so npl = 0
                # records keep their historical shape.
                **(
                    {"link_failures": level.link_failures}
                    if level.link_failures
                    else {}
                ),
                # Sampling keys likewise only when the level was not
                # resolved by plain enumeration.
                **(
                    {"method": level.method}
                    if level.method != "exact"
                    else {}
                ),
                **(
                    {"population": level.population}
                    if level.population is not None
                    and level.population != level.total_subsets
                    else {}
                ),
                **(
                    {"estimate": level.estimate, "ci": list(level.ci)}
                    if level.method == "sampled" and level.ci is not None
                    else {}
                ),
            }
            for level in certificate.levels
        ],
        "sweep": sweep,
        "scenarios": engine.stats.scenarios,
        "simulated": engine.stats.simulated,
        "lanes": engine.stats.lanes,
    }
    if certificate.npl:
        record["npl"] = certificate.npl
    if certificate.method == "sampled":
        record["method"] = "sampled"
        record["verdict"] = certificate.verdict
        record["confidence"] = certificate.confidence
        record["samples"] = certificate.samples
        record["seed"] = certificate.seed
    return record


def _inject(
    failure: FailureSpec,
    ftbar,
    problem: ProblemSpec,
    compiled: CompiledSchedule,
) -> dict:
    """Replay one failure scenario on the job's compiled FTBAR schedule."""
    names = problem.architecture.processor_names()
    if any(i >= len(names) for i in failure.processors) or not failure.processors:
        # The architecture is too small for this scenario: skip it
        # rather than silently simulating a weaker crash set.
        entry = {"processors": [], "at": failure.at}
        entry.update(delivered=None, makespan=None, skipped=True)
        return entry
    processors = [names[i] for i in failure.processors]
    entry = {"processors": processors, "at": failure.at}
    scenario = FailureScenario.crashes(processors, failure.at)
    trace = compiled.replay(scenario)
    completion = trace.outputs_completion(compiled, ftbar.expanded_algorithm)
    entry.update(
        delivered=completion is not None,
        makespan=trace.makespan(),
        outputs_at=completion,
    )
    return entry
