"""Command-line interface of the FTBAR reproduction.

Sub-commands::

    ftbar example                    run the paper's worked example
    ftbar schedule  problem.json     schedule a problem file
    ftbar simulate  problem.json     schedule then crash processors
    ftbar generate  out.json         emit a random problem file
    ftbar bench     figure9|figure10|npf|runtime|ablation
    ftbar certify   [problem.json]   fault-tolerance certificate (+ reliability)
    ftbar campaign  run|status|report|heatmap spec.json
    ftbar campaign  init spec.json --dir D    prepare a campaign directory
    ftbar campaign  worker DIR                join it as a stealing worker
    ftbar campaign  merge INPUTS... -o OUT    canonical shard merge
    ftbar chaos     run spec.json --plan P    campaign under fault injection
    ftbar chaos     sites                     list the failpoint site catalog
    ftbar trace     trace.jsonl      render/validate a telemetry trace
    ftbar stats     [trace.jsonl]    render a trace's metrics snapshot

Telemetry: ``schedule``, ``certify``, ``bench``, ``campaign run``,
``campaign worker`` and ``campaign merge`` accept ``--trace [PATH]``
(or the ``REPRO_TRACE`` environment variable) to record a
span/event/metrics trace — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import obs
from repro.exceptions import ReproError, SimulationError


def _add_trace_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a telemetry trace JSONL "
        "(bare flag: repro-trace.jsonl; see docs/observability.md)",
    )


#: Values of :class:`repro.simulation.failures.DetectionPolicy`, spelled
#: out so that building the parser imports no simulation code.
_DETECTION_CHOICES = ("none", "timeout-array")


def _add_detection_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--detection", choices=_DETECTION_CHOICES, default="none"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftbar",
        description="Distributed fault-tolerant static scheduling (DSN 2003).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    example = commands.add_parser("example", help="run the paper's worked example")
    example.add_argument("--gantt", action="store_true", help="print the Gantt chart")

    sched = commands.add_parser("schedule", help="schedule a problem JSON file")
    sched.add_argument("problem", type=Path)
    sched.add_argument("--npf", type=int, default=None, help="override the file's Npf")
    sched.add_argument(
        "--npl",
        type=int,
        default=None,
        help="override the file's Npl (link-failure tolerance)",
    )
    sched.add_argument("--no-duplication", action="store_true")
    sched.add_argument("--gantt", action="store_true")
    sched.add_argument("--output", type=Path, default=None, help="save schedule JSON")
    sched.add_argument(
        "--dot", type=Path, default=None, help="save a Graphviz DOT rendering"
    )
    _add_trace_flag(sched)

    sim = commands.add_parser("simulate", help="schedule then inject crashes")
    sim.add_argument("problem", type=Path)
    sim.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="PROC[@TIME]",
        help="crash PROC at TIME (default 0); repeatable",
    )
    _add_detection_flag(sim)

    report = commands.add_parser(
        "report", help="full audit of the schedule of a problem"
    )
    report.add_argument("problem", type=Path)

    iterate = commands.add_parser(
        "iterate", help="cyclic execution: run the schedule over N iterations"
    )
    iterate.add_argument("problem", type=Path)
    iterate.add_argument("--iterations", type=int, default=5)
    iterate.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="PROC[@TIME]",
        help="crash PROC at absolute TIME (default 0); repeatable",
    )
    _add_detection_flag(iterate)

    validate = commands.add_parser(
        "validate", help="schedule a problem and re-check every invariant"
    )
    validate.add_argument("problem", type=Path)
    validate.add_argument(
        "--direct-links",
        action="store_true",
        help="also reject multi-hop comms (strict FT guarantee)",
    )

    certify = commands.add_parser(
        "certify",
        help="fault-tolerance certificate, optionally with reliability "
        "figures",
    )
    certify.add_argument(
        "problem",
        type=Path,
        nargs="?",
        default=None,
        help="problem JSON file (default: the paper's worked example)",
    )
    _add_detection_flag(certify)
    certify.add_argument(
        "--npl",
        type=int,
        default=None,
        help="override the problem's Npl before scheduling (the schedule "
        "replicates comms over Npl+1 link-disjoint routes)",
    )
    certify.add_argument(
        "--links",
        type=int,
        default=None,
        metavar="K",
        help="enumerate combined scenarios with up to K broken links "
        "(default: the schedule's own Npl)",
    )
    certify.add_argument(
        "--boundaries",
        action="store_true",
        help="crash at every static event boundary instead of t=0 only",
    )
    certify.add_argument(
        "--probability",
        type=float,
        action="append",
        default=[],
        metavar="Q",
        help="per-processor failure probability; repeatable, adds a "
        "reliability figure per value",
    )
    certify.add_argument(
        "--confidence",
        type=float,
        default=0.99,
        metavar="C",
        help="confidence level of sampled levels' intervals (default 0.99)",
    )
    certify.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="total random-sample budget of the adaptive path "
        "(default: 20000 for the certificate, 50000 per reliability)",
    )
    certify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="user seed of the deterministic sampling RNG streams "
        "(draws derive from SHA-256 over the schedule content hash, "
        "this seed and the stratum label)",
    )
    certify.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the certificate document (method, samples, "
        "confidence, ci, per-level estimates) as JSON",
    )
    _add_trace_flag(certify)

    gen = commands.add_parser("generate", help="emit a random problem JSON file")
    gen.add_argument("output", type=Path)
    gen.add_argument("--operations", type=int, default=20)
    gen.add_argument("--ccr", type=float, default=1.0)
    gen.add_argument("--processors", type=int, default=4)
    gen.add_argument("--npf", type=int, default=1)
    gen.add_argument("--heterogeneous", action="store_true")
    gen.add_argument("--seed", type=int, default=0)

    bench = commands.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument(
        "figure",
        nargs="?",
        default=None,
        choices=[
            "figure9",
            "figure10",
            "npf",
            "runtime",
            "ablation",
            "bus",
            "gap",
        ],
        help="paper figure to regenerate (omit with --profile/--smoke)",
    )
    bench.add_argument("--graphs", type=int, default=10, help="graphs per point")
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the overhead sweeps (0 = one per CPU); "
        "routes figure9/figure10 through the campaign pool",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one compiled scheduling run and record the top "
        "hotspots under the profile_top key of BENCH_runtime.json",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="schedule the pinned smoke problems with the compiled kernel "
        "and fail if any evaluation/decision counter moved (deterministic "
        "— counters, not wall clock)",
    )
    _add_trace_flag(bench)

    campaign = commands.add_parser(
        "campaign", help="run, inspect or aggregate an experiment campaign"
    )
    campaign_commands = campaign.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", type=Path, help="campaign spec JSON file")
        sub.add_argument(
            "--store",
            type=Path,
            default=None,
            help="result store JSONL (default: <spec stem>-results.jsonl)",
        )

    campaign_run = campaign_commands.add_parser("run", help="execute a campaign spec")
    _campaign_common(campaign_run)
    campaign_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = one per CPU)"
    )
    campaign_run.add_argument(
        "--backend",
        choices=["local", "serial", "directory"],
        default=None,
        help="execution backend (default: the spec's, usually 'local')",
    )
    campaign_run.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="campaign directory of the 'directory' backend "
        "(default: <spec stem>-campaign next to the spec)",
    )
    campaign_run.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="directory backend: seconds before an unrenewed job lease "
        "may be stolen (default: 30)",
    )
    campaign_run.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="content-addressed schedule cache dir "
        "(default: <spec dir>/.schedule-cache)",
    )
    campaign_run.add_argument(
        "--no-cache", action="store_true", help="disable the cache"
    )
    campaign_run.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs whose results the store already records",
    )
    campaign_run.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    _add_trace_flag(campaign_run)

    campaign_status_cmd = campaign_commands.add_parser(
        "status", help="progress of a campaign against its result store"
    )
    _campaign_common(campaign_status_cmd)
    campaign_status_cmd.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="also poll this campaign directory's shards and live claims",
    )
    campaign_status_cmd.add_argument(
        "--watch",
        action="store_true",
        help="repaint the progress line until the campaign completes",
    )
    campaign_status_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="--watch poll interval in seconds (default: 2)",
    )
    _campaign_common(
        campaign_commands.add_parser(
            "report", help="aggregate a campaign's recorded results"
        )
    )

    campaign_init = campaign_commands.add_parser(
        "init", help="initialize a campaign directory for detached workers"
    )
    campaign_init.add_argument("spec", type=Path, help="campaign spec JSON file")
    campaign_init.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="campaign directory to create "
        "(default: <spec stem>-campaign next to the spec)",
    )

    campaign_worker = campaign_commands.add_parser(
        "worker",
        help="join a campaign directory as one work-stealing worker",
    )
    campaign_worker.add_argument(
        "dir", type=Path, help="campaign directory (see 'campaign init')"
    )
    campaign_worker.add_argument(
        "--worker-id",
        default=None,
        help="worker identity for claims and the result shard "
        "(default: <host>-<pid>)",
    )
    campaign_worker.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before an unrenewed lease may be stolen (default: 30)",
    )
    campaign_worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="idle poll interval in seconds (default: 0.2)",
    )
    campaign_worker.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="dead leases per job before it is abandoned (default: 5)",
    )
    campaign_worker.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="fault-injection: sleep this long between claiming a job "
        "and executing it (holding the lease)",
    )
    campaign_worker.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the campaign directory's shared schedule cache",
    )
    campaign_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    _add_trace_flag(campaign_worker)

    campaign_merge = campaign_commands.add_parser(
        "merge",
        help="merge result shards into one canonical, diffable store",
    )
    campaign_merge.add_argument(
        "inputs",
        type=Path,
        nargs="+",
        help="store files, campaign directories, or directories of shards",
    )
    campaign_merge.add_argument(
        "--output",
        "-o",
        type=Path,
        default=None,
        help="merged store path (omit for a conflict-checking dry run)",
    )
    campaign_merge.add_argument(
        "--events",
        type=Path,
        default=None,
        help="worker-events sidecar path "
        "(default: <output stem>.events.jsonl)",
    )
    _add_trace_flag(campaign_merge)
    campaign_heatmap = campaign_commands.add_parser(
        "heatmap", help="render the npf x failure-probability heatmap"
    )
    _campaign_common(campaign_heatmap)
    campaign_heatmap.add_argument(
        "--value",
        choices=["reliability", "mttf", "certified"],
        default="reliability",
        help="cell quantity (default: reliability)",
    )

    trace_cmd = commands.add_parser(
        "trace", help="render or validate a recorded telemetry trace"
    )
    trace_cmd.add_argument(
        "trace_file",
        type=Path,
        help="trace JSONL written by --trace / REPRO_TRACE",
    )
    trace_cmd.add_argument(
        "--validate",
        action="store_true",
        help="check every line against the trace schema and the stream "
        "invariants; non-zero exit on violations",
    )
    trace_cmd.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail unless root spans cover at least this fraction of the "
        "trace's wall extent (e.g. 0.9)",
    )
    trace_cmd.add_argument(
        "--tree",
        action="store_true",
        help="print the span tree instead of the per-phase table",
    )

    stats_cmd = commands.add_parser(
        "stats", help="render the metrics snapshot of a recorded trace"
    )
    stats_cmd.add_argument(
        "trace_file",
        type=Path,
        nargs="?",
        default=None,
        help="trace JSONL (default: repro-trace.jsonl)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run a campaign under deterministic fault injection",
    )
    chaos_commands = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_commands.add_parser(
        "run",
        help="attack a campaign with an injection plan and verify the "
        "merged store is byte-identical to a clean serial run",
    )
    chaos_run.add_argument(
        "spec", type=Path, help="campaign spec JSON (see 'campaign run')"
    )
    chaos_run.add_argument(
        "--plan",
        type=Path,
        required=True,
        metavar="PLAN",
        help="fault-injection plan JSON (see docs/robustness.md)",
    )
    chaos_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the plan's seed (replays are (plan, seed)-exact)",
    )
    chaos_run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="chaos workers per round (default: 2)",
    )
    chaos_run.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="worker rounds before declaring the campaign incomplete "
        "(default: 5)",
    )
    chaos_run.add_argument(
        "--lease-ttl",
        type=float,
        default=2.0,
        help="campaign lease TTL in seconds (short: steals happen fast "
        "under injected stalls; default: 2.0)",
    )
    chaos_run.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="chaos_dir",
        help="scratch directory to use and keep "
        "(default: a fresh temp dir)",
    )
    chaos_run.add_argument(
        "--json",
        action="store_true",
        help="emit the full chaos report as JSON instead of the summary",
    )
    _add_trace_flag(chaos_run)
    chaos_commands.add_parser(
        "sites", help="list every failpoint site a plan may target"
    )
    return parser


def _cmd_example(args: argparse.Namespace) -> int:
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


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core.ftbar import schedule_ftbar
    from repro.core.options import SchedulerOptions
    from repro.schedule.gantt import render_gantt, schedule_table
    from repro.schedule.serialization import (
        load_json,
        problem_from_dict,
        save_json,
        schedule_to_dict,
    )

    problem = problem_from_dict(load_json(args.problem))
    if args.npf is not None:
        problem.npf = args.npf
    if args.npl is not None:
        problem.npl = args.npl
    options = SchedulerOptions(duplication=not args.no_duplication)
    result = schedule_ftbar(problem, options)
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


def _cmd_simulate(args: argparse.Namespace) -> int:
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


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.summary import audit_schedule, format_schedule_report
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict

    problem = problem_from_dict(load_json(args.problem))
    result = schedule_ftbar(problem)
    report = audit_schedule(result)
    print(format_schedule_report(report))
    return 0 if report.healthy else 1


def _cmd_iterate(args: argparse.Namespace) -> int:
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


def _cmd_validate(args: argparse.Namespace) -> int:
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


#: Exit code of a ``certify`` verdict: 0 = proven, 1 = a breaking
#: subset exists, 2 = estimated only (sampled levels left the
#: hypothesis unproven but unrefuted).
_VERDICT_EXIT = {"certified": 0, "refuted": 1, "estimated": 2}


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.reliability import (
        event_boundary_times,
        fault_tolerance_certificate,
        mean_time_to_failure_iterations,
        schedule_reliability,
    )
    from repro.core.ftbar import schedule_ftbar
    from repro.schedule.serialization import load_json, problem_from_dict, save_json
    from repro.simulation.batch import BatchScenarioEngine
    from repro.simulation.failures import DetectionPolicy

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
        f"{stats.simulated} simulated ({stats.simulated_cone} dirty-cone, "
        f"{stats.simulated_full} full), {stats.pruned_nominal} pruned as "
        f"nominal-equivalent, {stats.memo_hits} memo hits, "
        f"{stats.decisions} event decisions, {stats.copied} copied, "
        f"{stats.lanes} lanes in {stats.lane_passes} passes"
    )
    return _VERDICT_EXIT[certificate.verdict]


def _cmd_generate(args: argparse.Namespace) -> int:
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


#: Work counters of the compiled engines over the perf-smoke problems.
#: Wall clock is machine-dependent, the counters are not: any change
#: here is an algorithmic change (or a broken cache) and must be
#: reviewed, not absorbed.  After an intentional change, update the
#: pins from the values ``repro bench --smoke`` prints.
_PERF_SMOKE_PINS = {
    "ftbar-N40-npf1": {
        "steps": 40,
        "pressure_evaluations": 101,
        "cache_hits": 750,
        "duplication_attempts": 68,
        "symmetry_pruned": 861,
    },
    "ftbar-N24-npf2": {
        "steps": 24,
        "pressure_evaluations": 103,
        "cache_hits": 567,
        "duplication_attempts": 21,
        "symmetry_pruned": 66,
    },
    "hbp-N40-npf1": {
        "steps": 40,
        "pair_evaluations": 1716,
        "pair_cache_hits": 948,
    },
}


def _bench_smoke() -> int:
    """Schedule the pinned problems; fail on any counter drift."""
    from repro.baselines.hbp import schedule_hbp
    from repro.core.ftbar import schedule_ftbar
    from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

    problem_40 = generate_problem(
        RandomWorkloadConfig(operations=40, ccr=1.0, processors=4, npf=1, seed=2003)
    )
    problem_24 = generate_problem(
        RandomWorkloadConfig(operations=24, ccr=2.0, processors=4, npf=2, seed=7)
    )
    ftbar_40 = schedule_ftbar(problem_40)
    ftbar_24 = schedule_ftbar(problem_24)
    hbp_40 = schedule_hbp(problem_40)
    observed = {
        "ftbar-N40-npf1": {
            "steps": ftbar_40.stats.steps,
            "pressure_evaluations": ftbar_40.stats.pressure_evaluations,
            "cache_hits": ftbar_40.stats.cache_hits,
            "duplication_attempts": ftbar_40.stats.duplication.attempts,
            "symmetry_pruned": ftbar_40.stats.symmetry_pruned,
        },
        "ftbar-N24-npf2": {
            "steps": ftbar_24.stats.steps,
            "pressure_evaluations": ftbar_24.stats.pressure_evaluations,
            "cache_hits": ftbar_24.stats.cache_hits,
            "duplication_attempts": ftbar_24.stats.duplication.attempts,
            "symmetry_pruned": ftbar_24.stats.symmetry_pruned,
        },
        "hbp-N40-npf1": {
            "steps": hbp_40.stats.steps,
            "pair_evaluations": hbp_40.stats.pair_evaluations,
            "pair_cache_hits": hbp_40.stats.pair_cache_hits,
        },
    }
    failed = False
    for label, pinned in _PERF_SMOKE_PINS.items():
        for counter, expected in pinned.items():
            actual = observed[label][counter]
            status = "ok" if actual == expected else "REGRESSED"
            if actual != expected:
                failed = True
            print(f"  {label:16s} {counter:22s} {actual:>6} (pinned {expected}) {status}")
    if failed:
        print("perf smoke FAILED: counters drifted from the pinned values")
        return 1
    print("perf smoke ok: all compiled-kernel counters match the pins")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    graphs = args.graphs
    jobs = args.jobs  # 0 = one per CPU, resolved by the campaign pool
    if args.figure is not None and (args.smoke or args.profile):
        print(
            "error: --smoke/--profile run their own fixed workloads; "
            "drop the figure argument",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        return _bench_smoke()
    if args.profile:
        # The profile harness lives with the benches (a source-checkout
        # tool: it writes BENCH_runtime.json at the repository root).
        root = Path(__file__).resolve().parent.parent.parent
        if str(root) not in sys.path:
            sys.path.insert(0, str(root))
        try:
            from benchmarks.bench_runtime import _RESULT_PATH, run_profile
        except ModuleNotFoundError:
            print(
                "error: bench --profile needs the benchmarks/ directory "
                "of a source checkout",
                file=sys.stderr,
            )
            return 2
        record = run_profile()
        payload = (
            json.loads(_RESULT_PATH.read_text())
            if _RESULT_PATH.exists() else {}
        )
        payload["profile_top"] = record
        _RESULT_PATH.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(
            f"profiled one compiled N={record['operations']} run "
            f"({record['total_s']:.3f}s); top hotspots:"
        )
        for hotspot in record["hotspots"][:10]:
            print(
                f"  {hotspot['cumtime_s']:8.3f}s cum  "
                f"{hotspot['ncalls']:>7} calls  {hotspot['function']}"
            )
        print(f"recorded under profile_top in {_RESULT_PATH}")
        return 0
    if args.figure is None:
        print("error: a figure is required unless --profile/--smoke is given",
              file=sys.stderr)
        return 2
    from repro.analysis.experiments import (
        run_ablation,
        run_bus_comparison,
        run_npf_sweep,
        run_optimality_gap,
        run_overhead_vs_ccr,
        run_overhead_vs_operations,
        run_runtime_comparison,
    )
    from repro.analysis.reporting import (
        format_ablation,
        format_bus_comparison,
        format_npf_sweep,
        format_optimality_gap,
        format_overhead_sweep,
        format_runtime_comparison,
    )

    if args.figure == "figure9":
        sweep = run_overhead_vs_operations(graphs_per_point=graphs, jobs=jobs)
        print(format_overhead_sweep(sweep, "Figure 9 — overhead vs N (CCR=5, P=4)"))
    elif args.figure == "figure10":
        sweep = run_overhead_vs_ccr(graphs_per_point=graphs, jobs=jobs)
        print(format_overhead_sweep(sweep, "Figure 10 — overhead vs CCR (N=50, P=4)"))
    elif args.figure == "npf":
        print(format_npf_sweep(run_npf_sweep(graphs_per_point=graphs)))
    elif args.figure == "runtime":
        print(format_runtime_comparison(run_runtime_comparison(graphs_per_point=graphs)))
    elif args.figure == "bus":
        print(format_bus_comparison(run_bus_comparison(graphs_per_point=graphs)))
    elif args.figure == "gap":
        print(format_optimality_gap(run_optimality_gap(instances=graphs)))
    else:
        print(format_ablation(run_ablation(graphs_per_point=graphs)))
    return 0


def _campaign_paths(args: argparse.Namespace) -> tuple:
    """Resolve the spec, store and default cache paths of a campaign."""
    from repro.campaign.spec import load_campaign

    spec = load_campaign(args.spec)
    store_path = (
        args.store
        if args.store is not None
        else args.spec.with_name(f"{args.spec.stem}-results.jsonl")
    )
    return spec, store_path


def _default_campaign_dir(args: argparse.Namespace) -> Path:
    """The campaign directory next to the spec, unless ``--dir`` says."""
    if getattr(args, "campaign_dir", None) is not None:
        return args.campaign_dir
    return args.spec.with_name(f"{args.spec.stem}-campaign")


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaign.backends.directory import worker_loop

    report = worker_loop(
        args.dir,
        worker=args.worker_id,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        max_attempts=args.max_attempts,
        delay_s=args.delay,
        use_cache=not args.no_cache,
        progress=None if args.quiet else print,
    )
    print(report.summary())
    return 0 if not report.exhausted else 1


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.campaign.merge import merge_stores

    report = merge_stores(
        args.inputs, args.output, events_output=args.events
    )
    print(report.summary())
    if report.output is not None:
        print(f"merged store: {report.output}")
    if report.events_output is not None:
        print(f"worker events: {report.events_output}")
    if report.output is None:
        print("(dry run — pass --output to write the merged store)")
    return 0


def _cmd_campaign_status(args: argparse.Namespace, spec, store_path) -> int:
    import time as _time

    from repro.campaign.backends.directory import DirectoryCampaign
    from repro.campaign.runner import campaign_status
    from repro.campaign.store import ResultStore
    from repro.obs.render import progress_line

    campaign = (
        DirectoryCampaign(args.campaign_dir)
        if args.campaign_dir is not None
        else None
    )

    def snapshot() -> tuple[str, bool]:
        store = ResultStore(store_path)
        done = store.digests()
        corrupt = len(store.corrupt_lines)
        workers: dict[str, int] = {}
        if campaign is not None:
            for shard in campaign.shard_paths():
                worker = shard.stem
                shard_store = ResultStore(shard)
                digests = shard_store.digests()
                workers[worker] = len(digests)
                done |= digests
                corrupt += len(shard_store.corrupt_lines)
        from repro.campaign.jobs import expand_jobs

        total = {job.digest for job in expand_jobs(spec)}
        finished = len(done & total)
        line = progress_line(
            f"campaign {spec.name!r}", finished, len(total), workers=workers
        )
        if campaign is not None:
            claims = campaign.active_claims()
            if claims:
                line += f" — {len(claims)} live claims"
        if corrupt:
            line += f" — {corrupt} corrupt store lines skipped"
        return line, finished >= len(total)

    if not args.watch:
        status = campaign_status(spec, ResultStore(store_path))
        if campaign is None:
            print(status.summary())
        else:
            print(snapshot()[0])
        return 0
    while True:
        line, complete = snapshot()
        print(line, flush=True)
        if complete:
            return 0
        _time.sleep(args.interval)


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "worker":
        return _cmd_campaign_worker(args)
    if args.campaign_command == "merge":
        return _cmd_campaign_merge(args)

    from repro.campaign.runner import (
        campaign_report,
        reliability_heatmap,
        run_campaign,
    )
    from repro.campaign.store import ResultStore

    if args.campaign_command == "init":
        from repro.campaign.backends.directory import DirectoryCampaign
        from repro.campaign.spec import load_campaign

        spec = load_campaign(args.spec)
        campaign = DirectoryCampaign.initialize(spec, _default_campaign_dir(args))
        jobs = campaign.jobs()
        print(
            f"campaign {spec.name!r} initialized: {len(jobs)} jobs in "
            f"{campaign.root}"
        )
        print(f"join workers with: ftbar campaign worker {campaign.root}")
        return 0

    spec, store_path = _campaign_paths(args)
    if args.campaign_command == "status":
        return _cmd_campaign_status(args, spec, store_path)
    if args.campaign_command == "report":
        print(campaign_report(spec, ResultStore(store_path)))
        return 0
    if args.campaign_command == "heatmap":
        print(reliability_heatmap(spec, ResultStore(store_path), args.value))
        return 0

    cache_dir = None
    if not args.no_cache:
        cache_dir = (
            args.cache
            if args.cache is not None
            else args.spec.parent / ".schedule-cache"
        )
    backend = args.backend or spec.backend
    report = run_campaign(
        spec,
        jobs=args.jobs,  # 0 = one per available CPU, resolved by the pool
        store=store_path,
        cache=cache_dir,
        resume=args.resume,
        progress=None if args.quiet else print,
        backend=backend,
        directory=(
            _default_campaign_dir(args) if backend == "directory" else None
        ),
        lease_ttl_s=args.lease_ttl,
    )
    print(report.summary())
    print(f"results: {store_path}")
    if cache_dir is not None:
        print(f"cache: {cache_dir}")
    if backend == "directory":
        print(f"campaign dir: {_default_campaign_dir(args)}")
    return 0 if not report.interrupted else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.campaign.spec import load_campaign
    from repro.faultinject import FAILPOINT_SITES, load_plan
    from repro.faultinject.chaos import run_chaos

    if args.chaos_command == "sites":
        width = max(len(site) for site in FAILPOINT_SITES)
        for site, description in sorted(FAILPOINT_SITES.items()):
            print(f"{site:<{width}}  {description}")
        return 0

    spec = load_campaign(args.spec)
    plan = load_plan(args.plan, seed=args.seed)
    report = run_chaos(
        spec,
        plan,
        workers=args.workers,
        rounds=args.rounds,
        root=args.chaos_dir,
        lease_ttl_s=args.lease_ttl,
        # With --json, stdout is the report document; narrate on stderr.
        progress=(
            (lambda message: print(message, file=sys.stderr))
            if args.json
            else print
        ),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    if report.passed:
        return 0
    # Incomplete campaigns / failed merges are budget exhaustion (2);
    # a byte mismatch is the property under test failing (1).
    return 2 if not (report.complete and report.merge_ok) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render

    lines = obs.read_trace(args.trace_file)
    if not lines:
        print(
            f"error: empty or unreadable trace: {args.trace_file}",
            file=sys.stderr,
        )
        return 1
    failures: list[str] = []
    if args.validate:
        errors = obs.validate_trace(lines)
        if errors:
            for problem in errors[:20]:
                print(f"invalid: {problem}", file=sys.stderr)
            failures.append(f"{len(errors)} schema violations")
        else:
            print(
                f"trace OK: {len(lines)} lines valid against "
                f"{obs.SCHEMA_NAME}/{obs.SCHEMA_VERSION}"
            )
    print(
        render.render_tree(lines) if args.tree
        else render.render_phase_table(lines)
    )
    for extra in (render.render_events(lines),
                  render.campaign_progress(lines)):
        if extra:
            print(extra)
    if args.min_coverage is not None:
        covered = render.coverage(lines)
        if covered < args.min_coverage:
            failures.append(
                f"coverage {covered:.1%} < required {args.min_coverage:.1%}"
            )
    if failures:
        print("trace check failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import render

    path = args.trace_file or obs.default_trace_path()
    lines = obs.read_trace(path)
    if not lines:
        print(f"error: empty or unreadable trace: {path}", file=sys.stderr)
        return 1
    snapshot = render.last_snapshot(lines)
    if snapshot is None:
        print(
            f"error: no metrics snapshot in {path} — the producer did not "
            "close its tracer (obs.disable())",
            file=sys.stderr,
        )
        return 1
    print(render.render_snapshot(snapshot))
    progress = render.campaign_progress(lines)
    if progress:
        print(progress)
    return 0


_COMMANDS = {
    "example": _cmd_example,
    "schedule": _cmd_schedule,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "iterate": _cmd_iterate,
    "validate": _cmd_validate,
    "certify": _cmd_certify,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``ftbar`` console script.

    Telemetry is wired here, once, for every sub-command: ``--trace``
    (or ``REPRO_TRACE``) enables the process tracer, the command body
    runs under a ``cli.<command>`` root span, and the tracer is closed
    — flushing the final metrics snapshot line — before exit.  The
    ``trace`` / ``stats`` readers never trace themselves.
    """
    args = _build_parser().parse_args(argv)
    if args.command not in ("trace", "stats"):
        flag = getattr(args, "trace", None)
        if flag is not None:
            obs.enable(flag or None, meta={"command": args.command})
        else:
            obs.configure_from_env()
        # REPRO_FAULT_PLAN arms fault injection in any sub-command —
        # how chaos subprocesses and CI smoke runs inherit a plan.  Unset,
        # it arms nothing, so the injection runtime is not even imported.
        if os.environ.get("REPRO_FAULT_PLAN", "").strip():
            from repro.faultinject.runtime import configure_from_env

            configure_from_env()
    try:
        with obs.span(f"cli.{args.command}"):
            return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # A missing or unreadable input path: one line, no traceback.
        detail = (
            f"{error.strerror}: {error.filename}"
            if error.filename is not None
            else str(error)
        )
        print(f"error: {detail}", file=sys.stderr)
        return 1
    finally:
        obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
