"""``ftbar schedule``: schedule a problem file."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import add_trace_flag


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("problem", type=Path)
    parser.add_argument("--npf", type=int, default=None, help="override the file's Npf")
    parser.add_argument(
        "--npl",
        type=int,
        default=None,
        help="override the file's Npl (link-failure tolerance)",
    )
    parser.add_argument("--no-duplication", action="store_true")
    parser.add_argument("--gantt", action="store_true")
    parser.add_argument("--output", type=Path, default=None, help="save schedule JSON")
    parser.add_argument(
        "--dot", type=Path, default=None, help="save a Graphviz DOT rendering"
    )
    add_trace_flag(parser)


def run(args: argparse.Namespace) -> int:
    from repro import obs

    with obs.span("cli.import"):
        from repro.core.ftbar import schedule_ftbar
        from repro.core.options import SchedulerOptions
        from repro.schedule.gantt import render_gantt, schedule_table
        from repro.schedule.serialization import (
            load_json,
            problem_from_dict,
            save_json,
            schedule_to_dict,
        )

    with obs.span("cli.load"):
        problem = problem_from_dict(load_json(args.problem))
        if args.npf is not None:
            problem.npf = args.npf
        if args.npl is not None:
            problem.npl = args.npl
    options = SchedulerOptions(duplication=not args.no_duplication)
    result = schedule_ftbar(problem, options)
    with obs.span("cli.emit"):
        print(result.schedule.summary())
        print(result.rtc_report)
        print()
        print(schedule_table(result.schedule))
        if args.gantt:
            print()
            print(render_gantt(result.schedule))
        if args.output is not None:
            save_json(schedule_to_dict(result.schedule), args.output)
            print(f"\nschedule written to {args.output}")
        if args.dot is not None:
            from repro.schedule.graphviz import schedule_to_dot

            args.dot.write_text(schedule_to_dot(result.schedule))
            print(f"DOT rendering written to {args.dot}")
    return 0
