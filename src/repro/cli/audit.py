"""``ftbar simulate|report|iterate|validate``: schedule a problem file,
then crash, audit, iterate or re-check the schedule."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import add_detection_flag
from repro.exceptions import SimulationError


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("problem", type=Path)
    if command == "simulate":
        parser.add_argument(
            "--crash",
            action="append",
            default=[],
            metavar="PROC[@TIME]",
            help="crash PROC at TIME (default 0); repeatable",
        )
        add_detection_flag(parser)
    elif command == "iterate":
        parser.add_argument("--iterations", type=int, default=5)
        parser.add_argument(
            "--crash",
            action="append",
            default=[],
            metavar="PROC[@TIME]",
            help="crash PROC at absolute TIME (default 0); repeatable",
        )
        add_detection_flag(parser)
    elif command == "validate":
        parser.add_argument(
            "--direct-links",
            action="store_true",
            help="also reject multi-hop comms (strict FT guarantee)",
        )


def run(args: argparse.Namespace) -> int:
    return _RUN[args.command](args)


def _crash_scenario(specs: list[str], processors: tuple[str, ...]):
    """The ``--crash PROC[@TIME]`` options as one failure scenario.

    A malformed time or a processor the architecture lacks raises
    :class:`~repro.exceptions.SimulationError` (one ``error:`` line),
    never a traceback or a silently nominal run.
    """
    from repro.simulation.failures import FailureScenario, ProcessorFailure

    failures = []
    for spec in specs:
        processor, _, when = spec.partition("@")
        if processor not in processors:
            raise SimulationError(
                f"--crash {spec}: no processor {processor!r} in the "
                f"architecture ({', '.join(processors)})"
            )
        try:
            at = float(when) if when else 0.0
        except ValueError:
            raise SimulationError(
                f"--crash {spec}: crash time {when!r} is not a number"
            ) from None
        failures.append(ProcessorFailure(processor, at))
    return FailureScenario(failures)


def _simulate(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import degraded_lengths
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict
    from repro.simulation.compiled import simulate
    from repro.simulation.failures import DetectionPolicy

    problem = problem_from_dict(load_json(args.problem))
    scenario = _crash_scenario(
        args.crash, problem.architecture.processor_names()
    )
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    print(result.schedule.summary())
    if args.crash:
        trace = simulate(
            result.schedule,
            algorithm,
            scenario,
            DetectionPolicy(args.detection),
        )
        print(f"scenario: {scenario!r}")
        print(trace.summary())
        completion = trace.outputs_completion(algorithm)
        if completion is None:
            print("OUTPUTS LOST")
            return 1
        print(f"outputs delivered at {completion:g}")
    else:
        lengths = degraded_lengths(result.schedule, algorithm)
        print("single-crash schedule lengths:")
        for processor, length in sorted(lengths.items()):
            print(f"  {processor} fails at t=0 -> {length:g}")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.analysis.summary import audit_schedule, format_schedule_report
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict

    problem = problem_from_dict(load_json(args.problem))
    result = schedule_ftbar(problem)
    report = audit_schedule(result)
    print(format_schedule_report(report))
    return 0 if report.healthy else 1


def _iterate(args: argparse.Namespace) -> int:
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict
    from repro.simulation.failures import DetectionPolicy
    from repro.simulation.iterative import simulate_iterations

    problem = problem_from_dict(load_json(args.problem))
    scenario = _crash_scenario(
        args.crash, problem.architecture.processor_names()
    )
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    print(result.schedule.summary())
    run = simulate_iterations(
        result.schedule,
        algorithm,
        iterations=args.iterations,
        scenario=scenario,
        detection=DetectionPolicy(args.detection),
    )
    print(run.summary())
    for outcome in run.iterations:
        delivered = (
            f"outputs at {outcome.outputs_at:g}"
            if outcome.delivered
            else "OUTPUTS LOST"
        )
        print(
            f"  iteration {outcome.index}: starts {outcome.offset:g}, "
            f"length {outcome.trace.makespan():g}, {delivered}"
        )
    return 0 if run.delivered_count() == len(run) else 1


def _validate(args: argparse.Namespace) -> int:
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict
    from repro.schedule.validation import validate_schedule

    problem = problem_from_dict(load_json(args.problem))
    result = schedule_ftbar(problem)
    print(result.schedule.summary())
    report = validate_schedule(
        result.schedule,
        result.expanded_algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
        require_direct_links=args.direct_links,
    )
    print(report)
    return 0 if report.ok else 1


_RUN = {
    "simulate": _simulate,
    "report": _report,
    "iterate": _iterate,
    "validate": _validate,
}
