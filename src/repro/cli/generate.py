"""``ftbar generate``: a random problem file."""

from __future__ import annotations

import argparse
from pathlib import Path


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("output", type=Path)
    parser.add_argument("--operations", type=int, default=20)
    parser.add_argument("--ccr", type=float, default=1.0)
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--npf", type=int, default=1)
    parser.add_argument("--heterogeneous", action="store_true")
    parser.add_argument("--seed", type=int, default=0)


def run(args: argparse.Namespace) -> int:
    from repro.schedule.serialization import problem_to_dict, save_json
    from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

    problem = generate_problem(
        RandomWorkloadConfig(
            operations=args.operations,
            ccr=args.ccr,
            processors=args.processors,
            npf=args.npf,
            heterogeneous=args.heterogeneous,
            seed=args.seed,
        )
    )
    save_json(problem_to_dict(problem), args.output)
    print(f"problem {problem.name!r} written to {args.output}")
    return 0
