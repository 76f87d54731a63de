"""FTBAR — distributed, fault-tolerant static scheduling.

A complete reproduction of *"An Algorithm for Automatically Obtaining
Distributed and Fault-Tolerant Static Schedules"* (Girault, Kalla,
Sighireanu, Sorel — DSN 2003): the FTBAR active-replication list
scheduler, its substrates (data-flow algorithm graphs, heterogeneous
architecture graphs, timing tables, static schedule model), the HBP
baseline, a fail-silent runtime simulator and the paper's evaluation
harness.

Quickstart
----------
>>> from repro import workloads, schedule_ftbar
>>> result = schedule_ftbar(workloads.build_problem())
>>> result.rtc_satisfied
True
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": (
        "HBPResult", "HBPScheduler", "schedule_basic", "schedule_hbp",
        "schedule_non_fault_tolerant",
    ),
    "core": (
        "FTBARResult", "FTBARScheduler", "FTBARStats", "SchedulerOptions",
        "schedule_ftbar",
    ),
    "exceptions": (
        "ArchitectureError", "ConstraintError", "GraphError",
        "InfeasibleReplicationError", "ReproError", "ScheduleValidationError",
        "SchedulingError", "SerializationError", "SimulationError",
        "TimingError",
    ),
    "graphs": (
        "AlgorithmGraph", "AlgorithmGraphBuilder", "Operation",
        "OperationKind",
    ),
    "hardware": ("Architecture", "Link", "LinkKind", "Processor"),
    "problem": ("ProblemSpec",),
    "schedule": (
        "Schedule", "ScheduledComm", "ScheduledOperation",
        "assert_valid_schedule", "render_gantt", "schedule_table",
        "validate_schedule",
    ),
    "simulation": (
        "BatchScenarioEngine", "DetectionPolicy", "EventStatus",
        "ExecutionTrace", "FailureScenario", "ProcessorFailure",
        "simulate",
    ),
    "timing": (
        "FORBIDDEN", "CommunicationTimes", "ExecutionTimes",
        "RealTimeConstraints", "RtcReport",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "AlgorithmGraph",
    "AlgorithmGraphBuilder",
    "Architecture",
    "ArchitectureError",
    "BatchScenarioEngine",
    "CommunicationTimes",
    "ConstraintError",
    "DetectionPolicy",
    "EventStatus",
    "ExecutionTimes",
    "ExecutionTrace",
    "FORBIDDEN",
    "FTBARResult",
    "FTBARScheduler",
    "FTBARStats",
    "FailureScenario",
    "GraphError",
    "HBPResult",
    "HBPScheduler",
    "InfeasibleReplicationError",
    "Link",
    "LinkKind",
    "Operation",
    "OperationKind",
    "ProblemSpec",
    "Processor",
    "ProcessorFailure",
    "RealTimeConstraints",
    "ReproError",
    "RtcReport",
    "Schedule",
    "ScheduleValidationError",
    "ScheduledComm",
    "ScheduledOperation",
    "SchedulerOptions",
    "SchedulingError",
    "SerializationError",
    "SimulationError",
    "TimingError",
    "analysis",
    "assert_valid_schedule",
    "baselines",
    "campaign",
    "graphs",
    "hardware",
    "obs",
    "render_gantt",
    "schedule",
    "schedule_basic",
    "schedule_ftbar",
    "schedule_hbp",
    "schedule_non_fault_tolerant",
    "schedule_table",
    "simulate",
    "simulation",
    "timing",
    "validate_schedule",
    "workloads",
]
