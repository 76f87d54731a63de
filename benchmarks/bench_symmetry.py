"""Symmetry pruning grid: pruned vs ``symmetry=False``, cold and warm.

Symmetry pruning (``core/symmetry.py``) pays a verification cost once
per compiled problem — every candidate automorphism checked on its
support — and saves σ evaluations on every macro-step while its
generators stay live.  This bench records both sides over
P ∈ {4, 8, 16, 32} × {fully connected, bus, star, ring} on one
homogeneous random graph per point (N = 40, Npf = 1, CCR = 1, seed
2003, uniform link durations):

* **cold** — a fresh problem object after ``reset_compile_cache()``:
  compilation, symmetry verification and the run;
* **warm** — the same problem again with every memo warm.

Each leg keeps its best of ``repeats`` runs, or of as many as it takes
to accumulate ``_MIN_LEG_S`` of CPU on the small points; the legs
alternate so host drift hits both.

Times are process CPU seconds of one ``schedule_ftbar`` call.  One
untimed point runs before the grid, so no cold leg pays a process's
one-time imports.  Each point also records the verified
generator and orbit counts, the candidate verifications one build makes
and ``FTBARStats.symmetry_pruned``, and asserts the pruned and unpruned
schedules serialize to the same content hash before any time counts.

Results go to the ``symmetry_grid`` section of ``BENCH_runtime.json``;
no other section is touched.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_symmetry.py [--smoke]

``--smoke`` runs P ∈ {4, 8} with a floor of two repeats, checks
pruned == unpruned, and writes nothing, so it can never overwrite full-scale
data.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
from pathlib import Path

from repro.core.compile import CompiledProblem, reset_compile_cache
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.core.symmetry import build_symmetry
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.schedule.serialization import (
    content_hash,
    problem_from_dict,
    problem_to_dict,
    schedule_to_dict,
)
from repro.timing.comm_times import CommunicationTimes
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
_OPERATIONS = 40
_SEED = 2003
_TOPOLOGIES = {
    "fc": fully_connected,
    "bus": single_bus,
    "star": star,
    "ring": ring,
}
#: Minimum CPU seconds each leg of a point accumulates: a P=4 run takes
#: under 10 ms, where the best of a handful of runs still swings ±10%
#: with the host.
_MIN_LEG_S = 0.25
_LEGS = (("pruned", SchedulerOptions()),
         ("nosym", SchedulerOptions(symmetry=False)))


def grid_document(topology: str, processors: int) -> dict:
    """The point's problem as a document (rebuilt fresh per cold run)."""
    base = generate_problem(
        RandomWorkloadConfig(
            operations=_OPERATIONS, ccr=1.0, processors=processors,
            npf=1, seed=_SEED,
        )
    )
    architecture = _TOPOLOGIES[topology](processors)
    reference = base.architecture.link_names()[0]
    comm_times = CommunicationTimes()
    for edge in base.algorithm.dependencies():
        duration = base.comm_times.time_of(edge, reference)
        for link in architecture.link_names():
            comm_times.set(edge, link, duration)
    return problem_to_dict(ProblemSpec(
        algorithm=base.algorithm,
        architecture=architecture,
        exec_times=base.exec_times,
        comm_times=comm_times,
        npf=1,
        name=f"symmetry-{topology}{processors}",
    ))


def _cpu(call):
    gc.collect()
    started = time.process_time()
    result = call()
    return time.process_time() - started, result


def measure_point(topology: str, processors: int, repeats: int) -> dict:
    """Cold and warm CPU seconds of both legs on one grid point."""
    document = grid_document(topology, processors)
    point: dict = {f"cold_{name}_s": float("inf") for name, _ in _LEGS}
    problems = {}
    hashes = set()
    # Cold: best of ``repeats`` fresh runs per leg, legs alternating —
    # more on small points, until each leg has run ``_MIN_LEG_S``.
    rounds = repeats
    done = 0
    while done < rounds:
        done += 1
        for name, options in _LEGS:
            problems[name] = problem = problem_from_dict(document)
            reset_compile_cache()
            cold_s, result = _cpu(lambda: schedule_ftbar(problem, options))
            hashes.add(
                content_hash("schedule", schedule_to_dict(result.schedule))
            )
            point[f"cold_{name}_s"] = min(point[f"cold_{name}_s"], cold_s)
            if name == "pruned":
                point["symmetry_pruned"] = result.stats.symmetry_pruned
                point["pressure_evaluations"] = (
                    result.stats.pressure_evaluations
                )
                point["makespan"] = result.makespan
        if done == 1:
            rounds = max(
                repeats, math.ceil(_MIN_LEG_S / point["cold_nosym_s"])
            )
    assert len(hashes) == 1, f"{topology}{processors}: pruned != unpruned"
    # Warm: one untimed pass refills the memos the other leg's cold
    # reset dropped, then the legs alternate so host drift hits both.
    for name, options in _LEGS:
        schedule_ftbar(problems[name], options)
        point[f"warm_{name}_s"] = float("inf")
    for _ in range(rounds):
        for name, options in _LEGS:
            seconds, _ = _cpu(lambda: schedule_ftbar(problems[name], options))
            point[f"warm_{name}_s"] = min(point[f"warm_{name}_s"], seconds)
    problem = problems["pruned"]
    group = build_symmetry(CompiledProblem(
        problem.algorithm, problem.architecture, problem.exec_times,
        problem.comm_times, problem.npf, problem.npl,
    ))
    point["generators"] = len(group.generators)
    point["orbits"] = group.orbit_count()
    point["verifications"] = group.verifications
    point["rounds"] = rounds
    for phase in ("cold", "warm"):
        point[f"{phase}_ratio"] = (
            point[f"{phase}_pruned_s"] / point[f"{phase}_nosym_s"]
        )
    return point


def run_grid(processors=(4, 8, 16, 32), repeats: int = 9) -> dict:
    # Pay the one-time costs of a process untimed, so no cold leg
    # carries them: the kernel modules the first run imports.
    measure_point(next(iter(_TOPOLOGIES)), min(processors), 1)
    return {
        f"{topology}-P{count}": measure_point(topology, count, repeats)
        for count in processors
        for topology in _TOPOLOGIES
    }


def write_grid(grid: dict, repeats: int) -> None:
    """Replace the ``symmetry_grid`` section only."""
    payload = (
        json.loads(_RESULT_PATH.read_text()) if _RESULT_PATH.exists() else {}
    )
    payload["symmetry_grid"] = {
        "generated_by": "benchmarks/bench_symmetry.py",
        "config": {
            "operations": _OPERATIONS, "npf": 1, "ccr": 1.0, "seed": _SEED,
            "repeats": repeats, "min_leg_s": _MIN_LEG_S,
            "clock": "process_time",
        },
        "points": grid,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    repeats = 2 if smoke else 9
    grid = run_grid((4, 8) if smoke else (4, 8, 16, 32), repeats)
    print(f"{'point':10s} {'gens':>5s} {'verif':>5s} {'orbits':>6s} "
          f"{'cold pruned/nosym':>22s} {'warm pruned/nosym':>22s}")
    for label, point in grid.items():
        print(
            f"{label:10s} {point['generators']:5d} "
            f"{point['verifications']:5d} {point['orbits']:6d} "
            f"{point['cold_pruned_s']:9.4f}/{point['cold_nosym_s']:<8.4f}"
            f"({point['cold_ratio']:4.2f}x) "
            f"{point['warm_pruned_s']:9.4f}/{point['warm_nosym_s']:<8.4f}"
            f"({point['warm_ratio']:4.2f}x)"
        )
    if smoke:
        print("smoke ok: pruned and unpruned schedules identical "
              "(nothing written)")
    else:
        write_grid(grid, repeats)
        print(f"recorded in {_RESULT_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
