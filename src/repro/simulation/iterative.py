"""Cyclic execution: the schedule runs once per input event (§3.2, §5).

The paper's algorithm model is reactive: "the algorithm is executed
repeatedly for each input event from the sensors".  This module replays
the static schedule over many iterations:

* iteration ``k`` nominally starts at ``k * period`` (the period
  defaults to the static makespan — back-to-back iterations); a
  degraded iteration that overruns delays the next one (the static
  executive cannot start a new reaction while busy);
* failure scenarios are expressed in *absolute* time and sliced per
  iteration, so a processor can crash mid-iteration 2 and an
  intermittent processor can recover in iteration 4;
* with :attr:`DetectionPolicy.TIMEOUT_ARRAY`, the faulty-processor
  arrays persist across iterations — once detected, a processor stops
  receiving traffic in every subsequent iteration, exactly the
  behaviour (and the recovery limitation) section 5 describes for
  option 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.schedule import Schedule
from repro.simulation.compiled import CompiledSchedule
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    ProcessorFailure,
)
from repro.simulation.trace import ExecutionTrace


@dataclass(frozen=True)
class IterationOutcome:
    """One reaction of the cyclic execution."""

    index: int
    offset: float
    trace: ExecutionTrace
    outputs_at: float | None

    @property
    def delivered(self) -> bool:
        """True when every output operation produced a value."""
        return self.outputs_at is not None

    @property
    def busy_until(self) -> float:
        """Absolute completion date of the iteration's last event."""
        return self.offset + self.trace.makespan()


class IterativeTrace:
    """All iterations of one cyclic run."""

    def __init__(self, iterations: list[IterationOutcome], period: float) -> None:
        self.iterations = tuple(iterations)
        self.period = period

    def __len__(self) -> int:
        return len(self.iterations)

    def delivered_count(self) -> int:
        """Number of iterations that produced every output."""
        return sum(1 for i in self.iterations if i.delivered)

    def missed(self) -> tuple[IterationOutcome, ...]:
        """Iterations that lost at least one output."""
        return tuple(i for i in self.iterations if not i.delivered)

    def total_time(self) -> float:
        """Absolute completion date of the whole run."""
        if not self.iterations:
            return 0.0
        return max(i.busy_until for i in self.iterations)

    def average_iteration_length(self) -> float:
        """Mean makespan over the iterations."""
        if not self.iterations:
            return 0.0
        return sum(i.trace.makespan() for i in self.iterations) / len(self.iterations)

    def overruns(self) -> tuple[IterationOutcome, ...]:
        """Iterations that ran past their nominal period."""
        return tuple(
            i for i in self.iterations if i.trace.makespan() > self.period + 1e-9
        )

    def summary(self) -> str:
        """One-line account of the run."""
        return (
            f"IterativeTrace({len(self.iterations)} iterations, "
            f"{self.delivered_count()} delivered, "
            f"{len(self.overruns())} overruns, "
            f"total time {self.total_time():g})"
        )

    def __repr__(self) -> str:
        return self.summary()


class IterativeSimulator:
    """Replays a static schedule over successive iterations."""

    def __init__(
        self,
        schedule: Schedule,
        algorithm: AlgorithmGraph,
        detection: DetectionPolicy = DetectionPolicy.NONE,
        period: float | None = None,
    ) -> None:
        self._algorithm = algorithm
        self._detection = DetectionPolicy(detection)
        self._compiled = CompiledSchedule(schedule, algorithm)
        nominal = schedule.makespan()
        self._period = nominal if period is None else period
        if self._period <= 0 and nominal > 0:
            raise SimulationError(f"period must be positive, got {period!r}")

    @property
    def period(self) -> float:
        """Nominal spacing between iteration start dates."""
        return self._period

    def run(
        self,
        iterations: int,
        scenario: FailureScenario | None = None,
    ) -> IterativeTrace:
        """Execute ``iterations`` reactions under an absolute-time scenario."""
        if iterations < 0:
            raise SimulationError("iterations must be >= 0")
        scenario = scenario or FailureScenario.none()
        outcomes: list[IterationOutcome] = []
        knowledge: dict[str, set[str]] = {}
        offset = 0.0
        for index in range(iterations):
            local_scenario = _shift_scenario(scenario, offset)
            trace = self._compiled.replay(
                local_scenario,
                self._detection,
                initial_knowledge=knowledge,
            ).to_trace(self._compiled)
            outputs = trace.outputs_completion(self._algorithm)
            outcomes.append(
                IterationOutcome(
                    index=index,
                    offset=offset,
                    trace=trace,
                    outputs_at=None if outputs is None else offset + outputs,
                )
            )
            if self._detection is DetectionPolicy.TIMEOUT_ARRAY:
                knowledge = _merge_knowledge(knowledge, trace.detections)
            # The next reaction starts at its period tick, or when the
            # executive finishes the current (possibly overrun) one.
            offset = max(offset + self._period, offset + trace.makespan())
        return IterativeTrace(outcomes, self._period)


def _shift_scenario(scenario: FailureScenario, offset: float) -> FailureScenario:
    """The scenario as seen from an iteration starting at ``offset``."""
    shifted: list = []
    for failure in scenario:
        if failure.until <= offset:
            continue  # recovered before this iteration
        shifted.append(
            ProcessorFailure(
                failure.processor,
                max(failure.at - offset, 0.0),
                failure.until - offset,
            )
        )
    for failure in scenario.link_failures():
        if failure.until <= offset:
            continue
        shifted.append(
            type(failure)(
                failure.link,
                max(failure.at - offset, 0.0),
                failure.until - offset,
            )
        )
    return FailureScenario(shifted)


def _merge_knowledge(
    accumulated: dict[str, set[str]],
    detections: dict[str, dict[str, float]],
) -> dict[str, set[str]]:
    """Carry every (observer, faulty) pair into the next iteration."""
    merged = {observer: set(faulty) for observer, faulty in accumulated.items()}
    for observer, known in detections.items():
        merged.setdefault(observer, set()).update(known)
    return merged


def simulate_iterations(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    iterations: int,
    scenario: FailureScenario | None = None,
    detection: DetectionPolicy = DetectionPolicy.NONE,
    period: float | None = None,
) -> IterativeTrace:
    """One-call API for the cyclic execution."""
    simulator = IterativeSimulator(schedule, algorithm, detection, period)
    return simulator.run(iterations, scenario)
