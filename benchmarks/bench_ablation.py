"""E8 — design-choice ablations of the FTBAR heuristic.

Quantifies the two design choices that separate FTBAR variants:

* ``Minimize_start_time`` LIP duplication (section 4.2 / Figure 4): at
  high CCR a duplicated predecessor replaces an expensive comm, so the
  paper variant should beat the no-duplication variant;
* the processor-aware pressure, which only separates from the paper's
  formula on heterogeneous tables.

Each variant is a separately timed benchmark on the same problem.
"""

import pytest

from benchmarks.conftest import graphs_per_point
from repro.analysis.experiments import run_ablation
from repro.analysis.reporting import format_ablation
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

_PROBLEM = generate_problem(
    RandomWorkloadConfig(operations=30, ccr=5.0, processors=4, npf=1, seed=2003)
)

_VARIANTS = {
    "paper": SchedulerOptions(),
    "no-duplication": SchedulerOptions(duplication=False),
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def bench_ablation_variant(benchmark, variant):
    """Time one scheduler variant on the shared N=30, CCR=5 problem."""
    options = _VARIANTS[variant]
    result = benchmark(schedule_ftbar, _PROBLEM, options)
    assert result.makespan > 0


def bench_ablation_table(benchmark, record_result):
    """Record the averaged ablation tables over several random graphs.

    Two settings: homogeneous tables at high CCR (where LIP duplication
    dominates) and heterogeneous tables at moderate CCR (where the
    processor-aware pressure separates from the paper's formula).
    """
    benchmark(schedule_ftbar, _PROBLEM)
    homogeneous = run_ablation(
        operations=30,
        ccr=5.0,
        processors=4,
        graphs_per_point=graphs_per_point(5, 10),
        seed=2003,
    )
    heterogeneous = run_ablation(
        operations=30,
        ccr=1.0,
        processors=4,
        graphs_per_point=graphs_per_point(5, 10),
        seed=2003,
        heterogeneous=True,
    )
    record_result(
        "ablation",
        "E8 — ablations (Npf=1, P=4, N=30)\n\n"
        "(a) homogeneous tables, CCR=5\n"
        + format_ablation(homogeneous)
        + "\n\n(b) heterogeneous tables, CCR=1\n"
        + format_ablation(heterogeneous),
    )
    by_label = {p.label: p for p in homogeneous}
    paper = by_label["ftbar (paper: duplication, append-only links)"]
    no_dup = by_label["no duplication"]
    assert paper.makespan <= no_dup.makespan, "duplication should help at CCR=5"
    hetero = {p.label: p for p in heterogeneous}
    aware = hetero["processor-aware pressure"]
    assert aware.makespan <= hetero[
        "ftbar (paper: duplication, append-only links)"
    ].makespan * 1.05, "aware pressure should not lose on heterogeneous tables"
