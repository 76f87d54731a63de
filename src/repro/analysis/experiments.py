"""Experiment harness regenerating the paper's evaluation (section 6).

Every function returns plain dataclasses so the benchmarks, the CLI and
the tests can all print or assert on the same structures.  All sweeps
are seeded and deterministic.

The large statistical sweeps (Figures 9 and 10) run *through* the
campaign subsystem (:mod:`repro.campaign`): each sweep point becomes a
campaign over the point's random-graph seeds, so the sweeps share the
campaign dispatch, the result store and the content-addressed schedule
cache.
``jobs=1`` (the default) executes sequentially in-process and produces
bit-identical numbers to the pre-campaign harness; ``jobs=N`` fans the
graphs out over ``N`` worker processes without changing any result
(each graph's measurements are independent and deterministic).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.analysis.metrics import overhead_percent
from repro.baselines.hbp import schedule_hbp
from repro.baselines.list_scheduler import (
    non_fault_tolerant_makespan,
    schedule_non_fault_tolerant,
)
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.problem import ProblemSpec
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem


@dataclass
class OverheadPoint:
    """One x-position of an overhead curve, averaged over many graphs."""

    x: float
    ftbar_absence: float
    ftbar_presence: float
    hbp_absence: float
    hbp_presence: float
    graphs: int


@dataclass
class OverheadSweep:
    """A full curve: Figure 9 (x = N) or Figure 10 (x = CCR)."""

    parameter: str
    points: list[OverheadPoint] = field(default_factory=list)


def _average(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class _GraphOverheads:
    """Per-graph measurements feeding one sweep point."""

    ftbar_absence: float
    hbp_absence: float
    ftbar_presence: dict[str, float]
    hbp_presence: dict[str, float]


def _overheads_from_record(record: dict) -> _GraphOverheads:
    """Map one campaign record onto :class:`_GraphOverheads`.

    The campaign executor measures absence and presence overheads with
    the scheduler defaults: *absence* compares static schedule lengths,
    *presence* the degraded length after each processor's crash at time
    0 (section 6.2).  ``tests/experiments_oracle.py`` measures one
    graph directly; the derived overheads are bit-identical.
    """
    non_ft_length = record["non_ft"]["makespan"]
    return _GraphOverheads(
        ftbar_absence=overhead_percent(record["ftbar"]["makespan"], non_ft_length),
        hbp_absence=overhead_percent(record["hbp"]["makespan"], non_ft_length),
        ftbar_presence={
            processor: overhead_percent(length, non_ft_length)
            for processor, length in record["degraded"]["ftbar"].items()
        },
        hbp_presence={
            processor: overhead_percent(length, non_ft_length)
            for processor, length in record["degraded"]["hbp"].items()
        },
    )


def _sweep_point_measurements(
    name: str,
    operations: int,
    ccr: float,
    processors: int,
    seeds: tuple[int, ...],
    jobs: int,
) -> list[_GraphOverheads]:
    """Measure one sweep point's graphs through the campaign runner."""
    # Imported lazily: repro.campaign imports repro.analysis.metrics, so a
    # module-level import here would be circular.
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec, WorkloadSpec

    spec = CampaignSpec(
        name=name,
        workloads=(WorkloadSpec(family="random", size=operations),),
        topologies=("fully_connected",),
        processors=(processors,),
        npfs=(1,),
        ccrs=(ccr,),
        seeds=seeds,
        measures=("ftbar", "non_ft", "hbp", "degraded"),
    )
    report = run_campaign(spec, jobs=jobs)
    if report.interrupted:
        # Propagate the Ctrl-C the runner absorbed: a partial point must
        # abort the sweep, not be silently averaged into the figure.
        raise KeyboardInterrupt
    return [_overheads_from_record(r) for r in report.records_in_order()]


def _presence_max_of_averages(per_graph: list[dict[str, float]]) -> float:
    """Average each processor's overhead over the graphs, keep the max."""
    processors = per_graph[0].keys() if per_graph else ()
    return max(
        (_average([graph[p] for graph in per_graph]) for p in processors),
        default=0.0,
    )


def run_overhead_vs_operations(
    operation_counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80),
    ccr: float = 5.0,
    processors: int = 4,
    graphs_per_point: int = 60,
    seed: int = 2003,
    jobs: int = 1,
) -> OverheadSweep:
    """Figure 9: average overhead as a function of ``N`` (``CCR = 5``)."""
    sweep = OverheadSweep(parameter="N")
    for n in operation_counts:
        measurements = _sweep_point_measurements(
            name=f"figure9-N{n}",
            operations=n,
            ccr=ccr,
            processors=processors,
            seeds=tuple(
                seed + 1000 * index + n for index in range(graphs_per_point)
            ),
            jobs=jobs,
        )
        sweep.points.append(
            OverheadPoint(
                x=float(n),
                ftbar_absence=_average([m.ftbar_absence for m in measurements]),
                ftbar_presence=_presence_max_of_averages(
                    [m.ftbar_presence for m in measurements]
                ),
                hbp_absence=_average([m.hbp_absence for m in measurements]),
                hbp_presence=_presence_max_of_averages(
                    [m.hbp_presence for m in measurements]
                ),
                graphs=graphs_per_point,
            )
        )
    return sweep


def run_overhead_vs_ccr(
    ccrs: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0),
    operations: int = 50,
    processors: int = 4,
    graphs_per_point: int = 60,
    seed: int = 2003,
    jobs: int = 1,
) -> OverheadSweep:
    """Figure 10: average overhead as a function of ``CCR`` (``N = 50``)."""
    sweep = OverheadSweep(parameter="CCR")
    for ccr in ccrs:
        measurements = _sweep_point_measurements(
            name=f"figure10-ccr{ccr:g}",
            operations=operations,
            ccr=ccr,
            processors=processors,
            seeds=tuple(
                seed + 1000 * index + int(10 * ccr)
                for index in range(graphs_per_point)
            ),
            jobs=jobs,
        )
        sweep.points.append(
            OverheadPoint(
                x=ccr,
                ftbar_absence=_average([m.ftbar_absence for m in measurements]),
                ftbar_presence=_presence_max_of_averages(
                    [m.ftbar_presence for m in measurements]
                ),
                hbp_absence=_average([m.hbp_absence for m in measurements]),
                hbp_presence=_presence_max_of_averages(
                    [m.hbp_presence for m in measurements]
                ),
                graphs=graphs_per_point,
            )
        )
    return sweep


# ----------------------------------------------------------------------
# E7: overhead versus Npf (heterogeneous, the paper's future-work claim)
# ----------------------------------------------------------------------

@dataclass
class NpfPoint:
    """Average overhead of one failure hypothesis."""

    npf: int
    overhead: float
    makespan: float
    graphs: int


def run_npf_sweep(
    npfs: tuple[int, ...] = (0, 1, 2, 3),
    operations: int = 30,
    ccr: float = 1.0,
    processors: int = 5,
    graphs_per_point: int = 20,
    seed: int = 2003,
) -> list[NpfPoint]:
    """Overhead growth with ``Npf`` on heterogeneous architectures (E7)."""
    points: list[NpfPoint] = []
    for npf in npfs:
        overheads: list[float] = []
        makespans: list[float] = []
        for index in range(graphs_per_point):
            problem = generate_problem(
                RandomWorkloadConfig(
                    operations=operations,
                    ccr=ccr,
                    processors=processors,
                    npf=npf,
                    heterogeneous=True,
                    seed=seed + 1000 * index,
                )
            )
            # The graph's baseline is shared across the npf points.
            non_ft_length = non_fault_tolerant_makespan(problem)
            result = schedule_ftbar(problem)
            overheads.append(overhead_percent(result.makespan, non_ft_length))
            makespans.append(result.makespan)
        points.append(
            NpfPoint(
                npf=npf,
                overhead=_average(overheads),
                makespan=_average(makespans),
                graphs=graphs_per_point,
            )
        )
    return points


# ----------------------------------------------------------------------
# E6: scheduling-time comparison (FTBAR is cheaper than HBP)
# ----------------------------------------------------------------------

@dataclass
class RuntimePoint:
    """Average scheduler wall time for one problem size."""

    operations: int
    ftbar_seconds: float
    hbp_seconds: float
    graphs: int


def run_runtime_comparison(
    operation_counts: tuple[int, ...] = (10, 20, 40, 60, 80),
    ccr: float = 1.0,
    processors: int = 4,
    graphs_per_point: int = 5,
    seed: int = 2003,
) -> list[RuntimePoint]:
    """Wall-clock scheduling time of FTBAR versus HBP (E6)."""
    points: list[RuntimePoint] = []
    for n in operation_counts:
        ftbar_times: list[float] = []
        hbp_times: list[float] = []
        for index in range(graphs_per_point):
            problem = generate_problem(
                RandomWorkloadConfig(
                    operations=n,
                    ccr=ccr,
                    processors=processors,
                    npf=1,
                    seed=seed + 1000 * index + n,
                )
            )
            ftbar_times.append(schedule_ftbar(problem).stats.wall_time_s)
            hbp_times.append(schedule_hbp(problem).stats.wall_time_s)
        points.append(
            RuntimePoint(
                operations=n,
                ftbar_seconds=_average(ftbar_times),
                hbp_seconds=_average(hbp_times),
                graphs=graphs_per_point,
            )
        )
    return points


# ----------------------------------------------------------------------
# E10: optimality gap on tiny instances
# ----------------------------------------------------------------------

@dataclass
class OptimalityGapPoint:
    """FTBAR vs the exhaustive best assignment on one tiny instance."""

    seed: int
    operations: int
    ftbar_makespan: float
    best_makespan: float
    assignments: int

    @property
    def gap_percent(self) -> float:
        """How far FTBAR lands above the best assignment (may be < 0)."""
        return (self.ftbar_makespan - self.best_makespan) / self.best_makespan * 100.0


def run_optimality_gap(
    operations: int = 6,
    ccr: float = 1.0,
    processors: int = 3,
    instances: int = 10,
    seed: int = 2003,
) -> list[OptimalityGapPoint]:
    """Measure FTBAR's gap to the exhaustive best assignment (E10).

    Only feasible on tiny instances (the assignment space is
    ``C(P, Npf+1) ** N``).  FTBAR can land *below* the reference when
    LIP duplication adds replicas the enumeration does not consider.
    """
    from repro.baselines.exhaustive import schedule_exhaustive

    points: list[OptimalityGapPoint] = []
    for index in range(instances):
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=operations,
                ccr=ccr,
                processors=processors,
                npf=1,
                seed=seed + 1000 * index,
            )
        )
        ftbar = schedule_ftbar(problem)
        best = schedule_exhaustive(problem)
        points.append(
            OptimalityGapPoint(
                seed=seed + 1000 * index,
                operations=operations,
                ftbar_makespan=ftbar.makespan,
                best_makespan=best.makespan,
                assignments=best.assignments_total,
            )
        )
    return points


# ----------------------------------------------------------------------
# E9: point-to-point links versus a shared bus (section 4.4)
# ----------------------------------------------------------------------

@dataclass
class BusComparisonPoint:
    """Average overheads of one CCR on both interconnects."""

    ccr: float
    p2p_overhead: float
    bus_overhead: float
    p2p_makespan: float
    bus_makespan: float
    graphs: int


def _bus_variant(problem: ProblemSpec) -> ProblemSpec:
    """The same workload on a single shared bus instead of p2p links.

    Transfer durations are preserved (the generator's homogeneous links
    all carry the same duration per edge), so the only change is the
    serialization of every comm on one medium.
    """
    from repro.hardware.topologies import single_bus
    from repro.timing.comm_times import CommunicationTimes

    processors = len(problem.architecture)
    bus_architecture = single_bus(processors)
    reference_link = problem.architecture.link_names()[0]
    bus_comm_times = CommunicationTimes()
    for edge in problem.algorithm.dependencies():
        bus_comm_times.set(
            edge, "BUS", problem.comm_times.time_of(edge, reference_link)
        )
    return ProblemSpec(
        algorithm=problem.algorithm,
        architecture=bus_architecture,
        exec_times=problem.exec_times,
        comm_times=bus_comm_times,
        npf=problem.npf,
        rtc=problem.rtc,
        name=f"{problem.name}-bus",
    )


def run_bus_comparison(
    ccrs: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0),
    operations: int = 20,
    processors: int = 4,
    graphs_per_point: int = 5,
    seed: int = 2003,
) -> list[BusComparisonPoint]:
    """Section 4.4's remark, quantified: replicated comms on a shared
    bus serialize, so the fault-tolerance overhead grows compared to
    parallel point-to-point links.  Each interconnect is compared to
    its *own* non-fault-tolerant baseline.
    """
    points: list[BusComparisonPoint] = []
    for ccr in ccrs:
        p2p_overheads: list[float] = []
        bus_overheads: list[float] = []
        p2p_makespans: list[float] = []
        bus_makespans: list[float] = []
        for index in range(graphs_per_point):
            problem = generate_problem(
                RandomWorkloadConfig(
                    operations=operations,
                    ccr=ccr,
                    processors=processors,
                    npf=1,
                    seed=seed + 1000 * index + int(10 * ccr),
                )
            )
            bus_problem = _bus_variant(problem)
            p2p_ft = schedule_ftbar(problem)
            bus_ft = schedule_ftbar(bus_problem)
            p2p_non_ft = schedule_non_fault_tolerant(problem)
            bus_non_ft = schedule_non_fault_tolerant(bus_problem)
            p2p_overheads.append(
                overhead_percent(p2p_ft.makespan, p2p_non_ft.makespan)
            )
            bus_overheads.append(
                overhead_percent(bus_ft.makespan, bus_non_ft.makespan)
            )
            p2p_makespans.append(p2p_ft.makespan)
            bus_makespans.append(bus_ft.makespan)
        points.append(
            BusComparisonPoint(
                ccr=ccr,
                p2p_overhead=_average(p2p_overheads),
                bus_overhead=_average(bus_overheads),
                p2p_makespan=_average(p2p_makespans),
                bus_makespan=_average(bus_makespans),
                graphs=graphs_per_point,
            )
        )
    return points


# ----------------------------------------------------------------------
# E8: design-choice ablations
# ----------------------------------------------------------------------

@dataclass
class AblationPoint:
    """Average FT schedule length for one scheduler configuration."""

    label: str
    makespan: float
    overhead: float
    graphs: int


def run_ablation(
    operations: int = 30,
    ccr: float = 5.0,
    processors: int = 4,
    graphs_per_point: int = 10,
    seed: int = 2003,
    heterogeneous: bool = False,
) -> list[AblationPoint]:
    """Quantify the design choices (E8).

    LIP duplication matters at high CCR on any tables; the
    processor-aware pressure only separates from the paper's formula on
    *heterogeneous* tables (on homogeneous ones every processor runs an
    operation in the same time, so both formulas rank identically).
    """
    variants = {
        "ftbar (paper: duplication, append-only links)": SchedulerOptions(),
        "no duplication": SchedulerOptions(duplication=False),
        "processor-aware pressure": SchedulerOptions(
            processor_aware_pressure=True
        ),
    }
    problems = [
        generate_problem(
            RandomWorkloadConfig(
                operations=operations,
                ccr=ccr,
                processors=processors,
                npf=1,
                heterogeneous=heterogeneous,
                seed=seed + 1000 * index,
            )
        )
        for index in range(graphs_per_point)
    ]
    non_ft_lengths = [
        schedule_non_fault_tolerant(problem).makespan for problem in problems
    ]
    points: list[AblationPoint] = []
    for label, options in variants.items():
        makespans: list[float] = []
        overheads: list[float] = []
        for problem, non_ft_length in zip(problems, non_ft_lengths):
            result = schedule_ftbar(problem, options)
            makespans.append(result.makespan)
            overheads.append(overhead_percent(result.makespan, non_ft_length))
        points.append(
            AblationPoint(
                label=label,
                makespan=_average(makespans),
                overhead=_average(overheads),
                graphs=graphs_per_point,
            )
        )
    return points
