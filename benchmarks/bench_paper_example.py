"""E1 — the worked example (section 4.3/4.4, Figures 5-8).

Regenerates every number the paper reports for the Figure 2 problem:

* the fault-tolerant schedule length (paper: 15.05, Rtc = 16 satisfied),
* the basic non-fault-tolerant length (paper: 10.7) and the overhead
  (paper: 4.35),
* the degraded lengths when each processor crashes at t=0
  (paper: 15.35 / 15.05 / 12.6, Figure 8).

The timed body is one full FTBAR run on the example.
"""

from repro.analysis.paper_example import run_paper_example
from repro.analysis.reporting import format_paper_example
from repro.core.ftbar import schedule_ftbar
from repro.workloads.paper_example import (
    PAPER_BASIC_LENGTH,
    PAPER_DEGRADED_LENGTHS,
    PAPER_FT_LENGTH,
    PAPER_OVERHEAD,
    build_problem,
)

REFERENCES = {
    "ft_length": PAPER_FT_LENGTH,
    "basic_length": PAPER_BASIC_LENGTH,
    "overhead": PAPER_OVERHEAD,
    "degraded": PAPER_DEGRADED_LENGTHS,
}


def bench_paper_example_ftbar(benchmark, record_result):
    """Time FTBAR on the worked example; print measured vs paper numbers."""
    problem = build_problem()
    result = benchmark(schedule_ftbar, problem)
    assert abs(result.makespan - PAPER_FT_LENGTH) < 1e-9
    results = run_paper_example()
    record_result(
        "paper_example",
        "E1 — worked example (Tables 1-2, Figures 5-8)\n"
        + format_paper_example(results, REFERENCES),
    )
