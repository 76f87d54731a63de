"""``ftbar bench``: paper figures, the perf smoke and the profiler."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.common import add_trace_flag


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument(
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
    parser.add_argument("--graphs", type=int, default=10, help="graphs per point")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the overhead sweeps (0 = one per CPU); "
        "routes figure9/figure10 through the campaign runner",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one compiled scheduling run and record the top "
        "hotspots under the profile_top key of BENCH_runtime.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="schedule the pinned smoke problems with the compiled kernel "
        "and fail if any evaluation/decision counter moved (deterministic "
        "— counters, not wall clock)",
    )
    add_trace_flag(parser)


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
        "duplication_attempts": 16,
        "duplication_pruned": 38,
        "symmetry_pruned": 861,
    },
    "ftbar-N24-npf2": {
        "steps": 24,
        "pressure_evaluations": 103,
        "cache_hits": 567,
        "duplication_attempts": 5,
        "duplication_pruned": 10,
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
            "duplication_pruned": ftbar_40.stats.duplication.pruned,
            "symmetry_pruned": ftbar_40.stats.symmetry_pruned,
        },
        "ftbar-N24-npf2": {
            "steps": ftbar_24.stats.steps,
            "pressure_evaluations": ftbar_24.stats.pressure_evaluations,
            "cache_hits": ftbar_24.stats.cache_hits,
            "duplication_attempts": ftbar_24.stats.duplication.attempts,
            "duplication_pruned": ftbar_24.stats.duplication.pruned,
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


def run(args: argparse.Namespace) -> int:
    graphs = args.graphs
    jobs = args.jobs  # 0 = one per CPU, resolved by the campaign runner
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
        root = Path(__file__).resolve().parents[3]
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
