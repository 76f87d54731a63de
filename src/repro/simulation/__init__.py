"""Runtime behaviour: failure scenarios and schedule replay (section 5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "batch": ("BatchScenarioEngine", "BatchStats"),
    "compiled": ("CompiledSchedule", "CompiledTrace", "simulate"),
    "failures": (
        "DetectionPolicy", "FailureScenario", "LinkFailure",
        "ProcessorFailure",
    ),
    "iterative": (
        "IterationOutcome", "IterativeSimulator", "IterativeTrace",
        "simulate_iterations",
    ),
    "trace": (
        "EventStatus", "ExecutionTrace", "SimulatedComm", "SimulatedOperation",
    ),
})

__all__ = [
    "BatchScenarioEngine",
    "BatchStats",
    "CompiledSchedule",
    "CompiledTrace",
    "DetectionPolicy",
    "EventStatus",
    "ExecutionTrace",
    "FailureScenario",
    "IterationOutcome",
    "IterativeSimulator",
    "IterativeTrace",
    "LinkFailure",
    "ProcessorFailure",
    "SimulatedComm",
    "SimulatedOperation",
    "simulate",
    "simulate_iterations",
]
