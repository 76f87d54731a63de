"""E10 — FTBAR's distance to the best replica assignment.

"Finding an algorithm that gives the best fault-tolerant schedule
w.r.t. the execution times is a well-known NP-hard problem.  Instead,
we provide a heuristic that gives one scheduling, possibly not the
best."  On tiny instances the assignment space *can* be enumerated;
this bench quantifies how far the heuristic typically lands from the
best ``Npf + 1``-processor assignment (it can even do better, thanks to
LIP duplication adding extra replicas the enumeration does not try).

The timed body is one exhaustive search over a 5-operation instance.
"""

from benchmarks.conftest import graphs_per_point
from repro.analysis.experiments import run_optimality_gap
from repro.analysis.reporting import format_optimality_gap
from repro.baselines.exhaustive import schedule_exhaustive
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

_PROBLEM = generate_problem(
    RandomWorkloadConfig(operations=5, ccr=1.0, processors=3, npf=1, seed=2003)
)


def bench_optimality_gap(benchmark, record_result):
    """Time one exhaustive search; record the gap table."""
    result = benchmark(schedule_exhaustive, _PROBLEM)
    assert result.assignments_total == 3 ** 5

    points = run_optimality_gap(
        operations=6,
        ccr=1.0,
        processors=3,
        instances=graphs_per_point(5, 15),
        seed=2003,
    )
    record_result(
        "optimality_gap",
        "E10 — FTBAR vs exhaustive best assignment "
        "(Npf=1, P=3, N=6, CCR=1)\n" + format_optimality_gap(points),
    )
    gaps = [p.gap_percent for p in points]
    assert sum(gaps) / len(gaps) < 25.0, "heuristic should be near-optimal"
