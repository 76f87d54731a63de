"""``ftbar certify``: fault-tolerance certificate and reliability."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import add_detection_flag, add_trace_flag

#: Exit code of a ``certify`` verdict: 0 = proven, 1 = a breaking
#: subset exists, 2 = estimated only (sampled levels left the
#: hypothesis unproven but unrefuted).
_VERDICT_EXIT = {"certified": 0, "refuted": 1, "estimated": 2}


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument(
        "problem",
        type=Path,
        nargs="?",
        default=None,
        help="problem JSON file (default: the paper's worked example)",
    )
    add_detection_flag(parser)
    parser.add_argument(
        "--npl",
        type=int,
        default=None,
        help="override the problem's Npl before scheduling (the schedule "
        "replicates comms over Npl+1 link-disjoint routes)",
    )
    parser.add_argument(
        "--links",
        type=int,
        default=None,
        metavar="K",
        help="enumerate combined scenarios with up to K broken links "
        "(default: the schedule's own Npl)",
    )
    parser.add_argument(
        "--boundaries",
        action="store_true",
        help="crash at every static event boundary instead of t=0 only",
    )
    parser.add_argument(
        "--probability",
        type=float,
        action="append",
        default=[],
        metavar="Q",
        help="per-processor failure probability; repeatable, adds a "
        "reliability figure per value",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.99,
        metavar="C",
        help="confidence level of sampled levels' intervals (default 0.99)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="total random-sample budget of the adaptive path "
        "(default: 20000 for the certificate, 50000 per reliability)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="user seed of the deterministic sampling RNG streams "
        "(draws derive from SHA-256 over the schedule content hash, "
        "this seed and the stratum label)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the certificate document (method, samples, "
        "confidence, ci, per-level estimates) as JSON",
    )
    add_trace_flag(parser)


def run(args: argparse.Namespace) -> int:
    from repro import obs

    with obs.span("cli.import"):
        from repro.analysis.reliability import (
            event_boundary_times,
            fault_tolerance_certificate,
            mean_time_to_failure_iterations,
            schedule_reliability,
        )
        from repro.core.ftbar import schedule_ftbar
        from repro.schedule.serialization import (
            load_json,
            problem_from_dict,
            save_json,
        )
        from repro.simulation.batch import BatchScenarioEngine
        from repro.simulation.failures import DetectionPolicy

    with obs.span("cli.load"):
        if args.problem is not None:
            problem = problem_from_dict(load_json(args.problem))
        else:
            from repro.workloads.paper_example import build_problem

            problem = build_problem()
            print("(no problem file given — certifying the paper's example)")
        if args.npl is not None:
            problem.npl = args.npl
    result = schedule_ftbar(problem)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    print(schedule.summary())
    detection = DetectionPolicy(args.detection)
    times = event_boundary_times(schedule) if args.boundaries else (0.0,)
    engine = BatchScenarioEngine(schedule, algorithm, detection)
    knobs = {
        "confidence": args.confidence,
        "budget": args.budget,
        "seed": args.seed,
    }
    certificate = fault_tolerance_certificate(
        schedule,
        algorithm,
        crash_times=times,
        detection=detection,
        engine=engine,
        max_link_failures=args.links,
        **knobs,
    )
    reports = [
        schedule_reliability(
            schedule,
            algorithm,
            {p: q for p in schedule.processor_names()},
            crash_times=times,
            detection=detection,
            engine=engine,
            **knobs,
        )
        for q in args.probability
    ]
    with obs.span("cli.emit"):
        print(certificate)
        if args.json is not None:
            save_json(certificate.to_dict(), args.json)
            print(f"certificate document written to {args.json}")
        for probability, report in zip(args.probability, reports):
            mttf = mean_time_to_failure_iterations(report.reliability)
            print(f"q={probability:g}: {report}")
            print(f"  mean iterations to first unmasked failure: {mttf:g}")
        stats = engine.stats
        print(
            f"batch engine: {stats.scenarios} scenario verdicts — "
            f"{stats.simulated} simulated (verdict-only replays), "
            f"{stats.pruned_nominal} pruned as "
            f"nominal-equivalent, {stats.memo_hits} memo hits, "
            f"{stats.decisions} event decisions, {stats.copied} copied, "
            f"{stats.lanes} lanes in {stats.lane_passes} passes"
        )
    return _VERDICT_EXIT[certificate.verdict]
