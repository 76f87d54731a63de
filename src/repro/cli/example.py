"""``ftbar example``: the paper's worked example."""

from __future__ import annotations

import argparse


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--gantt", action="store_true", help="print the Gantt chart")


def run(args: argparse.Namespace) -> int:
    from repro.analysis.paper_example import run_paper_example
    from repro.analysis.reporting import format_paper_example
    from repro.workloads.paper_example import (
        PAPER_BASIC_LENGTH,
        PAPER_DEGRADED_LENGTHS,
        PAPER_FT_LENGTH,
        PAPER_OVERHEAD,
    )

    results = run_paper_example()
    references = {
        "ft_length": PAPER_FT_LENGTH,
        "basic_length": PAPER_BASIC_LENGTH,
        "overhead": PAPER_OVERHEAD,
        "degraded": PAPER_DEGRADED_LENGTHS,
    }
    print(format_paper_example(results, references))
    if args.gantt:
        from repro.core.ftbar import schedule_ftbar
        from repro.schedule.gantt import render_gantt
        from repro.workloads.paper_example import build_problem

        result = schedule_ftbar(build_problem())
        print()
        print(render_gantt(result.schedule))
    return 0
