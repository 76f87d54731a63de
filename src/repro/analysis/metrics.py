"""Evaluation metrics of section 6.2.

The central measure is the *fault-tolerance overhead*::

    Overheads = (FTSL - nonFTSL) / FTSL * 100

where ``FTSL`` is the fault-tolerant schedule length (possibly measured
in the presence of a failure, via the simulator) and ``nonFTSL`` is the
length produced by FTBAR with ``Npf = 0``.
"""

from __future__ import annotations

from typing import Mapping

from repro._record import FrozenRecord
from repro.exceptions import SimulationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.schedule import Schedule
from repro.simulation.compiled import COMPLETED, CompiledSchedule
from repro.simulation.failures import DetectionPolicy, FailureScenario


def overhead_percent(ft_length: float, non_ft_length: float) -> float:
    """The paper's overhead formula, as a percentage of the FT length."""
    if ft_length <= 0:
        raise ValueError(f"fault-tolerant length must be positive, got {ft_length}")
    return (ft_length - non_ft_length) / ft_length * 100.0


class ReplicationProfile(FrozenRecord):
    """How much redundancy a schedule carries."""

    _fields = ("operations", "replicas", "duplicated", "comms")

    def __init__(
        self, operations: int, replicas: int, duplicated: int, comms: int
    ) -> None:
        self.__dict__.update(
            operations=operations,
            replicas=replicas,
            duplicated=duplicated,
            comms=comms,
        )

    @property
    def average_replication(self) -> float:
        """Mean number of replicas per operation."""
        return self.replicas / self.operations if self.operations else 0.0


def replication_profile(schedule: Schedule) -> ReplicationProfile:
    """Measure the redundancy of a schedule."""
    return ReplicationProfile(
        operations=len(schedule.scheduled_operations()),
        replicas=schedule.replica_count(),
        duplicated=schedule.duplicated_count(),
        comms=schedule.comm_count(),
    )


def degraded_lengths(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    at: float = 0.0,
    detection: DetectionPolicy = DetectionPolicy.NONE,
    require_delivery: bool = True,
) -> dict[str, float]:
    """Schedule length when each processor crashes alone at ``at``.

    Returns ``{processor: makespan}``; the paper's Figure 8 experiment.
    With ``require_delivery`` (default) a missing output raises — under
    the schedule's failure hypothesis every single crash must be masked.
    """
    compiled = CompiledSchedule(schedule, algorithm)
    groups = dict(zip(algorithm.operation_names(), compiled.operation_groups))
    outputs = [groups[sink] for sink in algorithm.sinks()]
    lengths: dict[str, float] = {}
    for processor in schedule.processor_names():
        trace = compiled.replay(FailureScenario.crash(processor, at), detection)
        status = trace.op_status
        if require_delivery and not all(
            any(status[op] == COMPLETED for op in group) for group in outputs
        ):
            raise SimulationError(
                f"crash of {processor!r} at {at} is not masked by the schedule"
            )
        lengths[processor] = trace.makespan()
    return lengths


def worst_degraded_length(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    at: float = 0.0,
    detection: DetectionPolicy = DetectionPolicy.NONE,
) -> float:
    """Worst single-crash schedule length (max over processors)."""
    lengths = degraded_lengths(schedule, algorithm, at, detection)
    return max(lengths.values())


def presence_overheads(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    non_ft_length: float,
    at: float = 0.0,
    detection: DetectionPolicy = DetectionPolicy.NONE,
) -> dict[str, float]:
    """Per-crashed-processor overhead in the presence of one failure."""
    return {
        processor: overhead_percent(length, non_ft_length)
        for processor, length in degraded_lengths(
            schedule, algorithm, at, detection
        ).items()
    }


class OutputLatency(FrozenRecord):
    """Reaction latency of one output operation (sensor-to-actuator)."""

    _fields = (
        "operation", "nominal", "worst_single_crash", "worst_crashed_processor"
    )

    def __init__(
        self,
        operation: str,
        nominal: float,
        worst_single_crash: float,
        worst_crashed_processor: str | None,
    ) -> None:
        self.__dict__.update(
            operation=operation,
            nominal=nominal,
            worst_single_crash=worst_single_crash,
            worst_crashed_processor=worst_crashed_processor,
        )

    @property
    def degradation(self) -> float:
        """Extra latency the worst single crash costs."""
        return self.worst_single_crash - self.nominal


def output_latencies(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    detection: DetectionPolicy = DetectionPolicy.NONE,
) -> dict[str, OutputLatency]:
    """Per-output first-delivery latency, nominal and under one crash.

    For every sink of the algorithm: when does its *first* replica
    complete, in the nominal run and in the worst single-processor-crash
    run?  This is the end-to-end reaction latency a control engineer
    cares about (the paper's per-sub-task ``Rtc``), as opposed to the
    schedule length which also counts straggler replicas.
    """
    compiled = CompiledSchedule(schedule, algorithm)
    nominal = compiled.replay(None, detection).to_trace(compiled)
    results: dict[str, OutputLatency] = {}
    crash_traces = {
        processor: compiled.replay(
            FailureScenario.crash(processor), detection
        ).to_trace(compiled)
        for processor in schedule.processor_names()
    }
    for sink in algorithm.sinks():
        base = nominal.first_completion(sink)
        if base is None:  # pragma: no cover - nominal runs always complete
            raise SimulationError(f"output {sink!r} never completes nominally")
        worst = base
        culprit: str | None = None
        for processor, trace in crash_traces.items():
            first = trace.first_completion(sink)
            if first is None:
                raise SimulationError(
                    f"crash of {processor!r} loses output {sink!r}"
                )
            if first > worst:
                worst = first
                culprit = processor
        results[sink] = OutputLatency(
            operation=sink,
            nominal=base,
            worst_single_crash=worst,
            worst_crashed_processor=culprit,
        )
    return results


class LoadProfile(FrozenRecord):
    """Resource occupation of a schedule."""

    _fields = ("processor_busy", "link_busy", "makespan")

    def __init__(
        self,
        processor_busy: Mapping[str, float],
        link_busy: Mapping[str, float],
        makespan: float,
    ) -> None:
        self.__dict__.update(
            processor_busy=processor_busy,
            link_busy=link_busy,
            makespan=makespan,
        )

    def processor_utilization(self, processor: str) -> float:
        """Busy fraction of one processor over the schedule length."""
        if self.makespan == 0:
            return 0.0
        return self.processor_busy[processor] / self.makespan

    def link_utilization(self, link: str) -> float:
        """Busy fraction of one link over the schedule length."""
        if self.makespan == 0:
            return 0.0
        return self.link_busy[link] / self.makespan

    @property
    def balance(self) -> float:
        """Load balance: min/max processor busy time (1.0 = perfect)."""
        busiest = max(self.processor_busy.values(), default=0.0)
        if busiest == 0:
            return 1.0
        return min(self.processor_busy.values()) / busiest


def load_profile(schedule: Schedule) -> LoadProfile:
    """Measure busy time per processor and per link."""
    processor_busy = {
        processor: sum(e.duration for e in schedule.operations_on(processor))
        for processor in schedule.processor_names()
    }
    link_busy = {
        link: sum(c.duration for c in schedule.comms_on(link))
        for link in schedule.link_names()
    }
    return LoadProfile(
        processor_busy=processor_busy,
        link_busy=link_busy,
        makespan=schedule.makespan(),
    )
