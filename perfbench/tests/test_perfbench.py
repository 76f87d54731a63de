"""Tests of the benchmark's own code: statistics, checks, generation.

Run with ``python -m pytest perfbench/tests`` from the repository root.
None of these tests import the program: the benchmark's checker and
generator must stand on their own.
"""

import copy
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [20, 21, 37, 96, 100, 288])
def test_tail_keeps_ten_samples_beyond(n):
    values = random.Random(n).sample(range(10_000), n)
    value, percentile, beyond = stats.tail(values)
    assert beyond == stats.TAIL_BEYOND
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - stats.TAIL_BEYOND) / n)


def test_tail_of_100_samples_is_p90():
    value, percentile, _ = stats.tail(list(range(1, 101)))
    assert (value, percentile) == (90, 90.0)


@pytest.mark.parametrize("n", [1, 5, 12, 19])
def test_tail_never_reads_below_the_median(n):
    values = list(range(n))
    value, percentile, beyond = stats.tail(values)
    assert value == stats.median(values)
    assert percentile == 50.0
    assert beyond == n // 2


# ----------------------------------------------------------------------
# lower bound and replica checker
# ----------------------------------------------------------------------

def _problem(npf=1, seed=0):
    return gen.problem(
        random.Random(seed), 14, 3, "fully_connected",
        heterogeneous=True, npf=npf, name="t",
    )


def _serial_schedule(problem):
    """Every replica back to back in topological order: trivially valid."""
    exe = {
        (e["operation"], e["processor"]): e["time"]
        for e in problem["exec_times"]["entries"]
    }
    procs = problem["architecture"]["processors"]
    now = 0.0
    events = []
    for op in (o["name"] for o in problem["algorithm"]["operations"]):
        for replica in range(problem["npf"] + 1):
            proc = procs[replica]
            events.append({
                "operation": op, "replica": replica, "processor": proc,
                "start": now, "end": now + exe[op, proc], "duplicated": False,
            })
            now += exe[op, proc]
    return {"operations": events, "comms": []}


def test_lower_bound_is_the_min_exec_critical_path():
    problem = {
        "algorithm": {
            "operations": [{"name": n} for n in "abc"],
            "dependencies": [
                {"source": "a", "target": "b"}, {"source": "b", "target": "c"},
            ],
        },
        "exec_times": {"entries": [
            {"operation": o, "processor": p, "time": t}
            for o, p, t in [
                ("a", "P1", 2), ("a", "P2", 3), ("b", "P1", "inf"),
                ("b", "P2", 5), ("c", "P1", 1), ("c", "P2", 4),
            ]
        ]},
    }
    assert checks.lower_bound(problem) == 8.0


def test_checker_accepts_a_valid_schedule():
    problem = _problem()
    assert checks.check_schedule(problem, _serial_schedule(problem)) == []


def test_checker_rejects_a_missing_replica():
    problem = _problem()
    schedule = _serial_schedule(problem)
    del schedule["operations"][3]
    assert any("replicas" in e for e in checks.check_schedule(problem, schedule))


def test_checker_rejects_replicas_sharing_a_processor():
    problem = _problem()
    schedule = _serial_schedule(problem)
    first, second = schedule["operations"][0], schedule["operations"][1]
    second["processor"] = first["processor"]
    errors = checks.check_schedule(problem, schedule)
    assert any("distinct" in e for e in errors)


def test_checker_rejects_a_start_before_every_predecessor_ended():
    problem = _problem()
    schedule = _serial_schedule(problem)
    dep = problem["algorithm"]["dependencies"][0]
    for event in schedule["operations"]:
        if event["operation"] == dep["target"]:
            length = event["end"] - event["start"]
            event["start"], event["end"] = 0.0, length
    errors = checks.check_schedule(problem, schedule)
    assert any("before any replica" in e for e in errors)


def test_checker_rejects_a_makespan_below_the_lower_bound():
    problem = _problem()
    schedule = _serial_schedule(problem)
    bound = checks.lower_bound(problem)
    assert checks.check_schedule(problem, schedule, bound) == []
    squeezed = copy.deepcopy(schedule)
    for event in squeezed["operations"]:
        event["start"], event["end"] = 0.0, 0.0
    errors = checks.check_schedule(problem, squeezed, bound)
    assert any("below the lower bound" in e for e in errors)
    assert any("duration" in e for e in errors)


def test_example_check_pins_the_paper_length():
    line = "     fault-tolerant schedule length     15.05  15.05\n"
    assert checks.check_example_output(line) == []
    assert checks.check_example_output(line.replace("15.05  ", "15.06  "))
    assert checks.check_example_output("nothing here")


def test_verdict_check_scope():
    assert checks.check_verdict("fully_connected", "certified") == []
    assert checks.check_verdict("single_bus", "refuted")
    assert checks.check_verdict("star", "refuted") == []


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_generation_is_deterministic_per_seed(workload):
    first = gen.requests(workload, 7)
    assert first == gen.requests(workload, 7)
    other = gen.requests(workload, 8)
    assert other != first
    # Same shapes, different values.
    assert [d["name"] for d in other] == [d["name"] for d in first]
    assert [len(d["algorithm"]["operations"]) for d in other] == [
        len(d["algorithm"]["operations"]) for d in first
    ]


def test_campaign_spec_is_deterministic_per_seed():
    assert gen.campaign_spec(3) == gen.campaign_spec(3)
    assert gen.campaign_spec(3) != gen.campaign_spec(4)


def test_generated_dags_are_acyclic():
    for doc in gen.requests("design-loop", 1):
        assert checks.lower_bound(doc) > 0


# ----------------------------------------------------------------------
# error accounting and tracing
# ----------------------------------------------------------------------

def test_errors_are_counted_against_attempts(tmp_path):
    run = workloads.Run("wide-arch", False, tmp_path)

    def boom():
        raise RuntimeError("broken")

    run.request("ok", lambda: 1, lambda out: [], n=5)
    run.request("raises", boom, n=5)
    run.request("bad output", lambda: 2, lambda out: ["wrong"], n=5)
    run.request("warm ok", lambda: 3, warm=True)
    assert run.attempted == 4
    assert run.failed == 2
    assert len(run.cold) == 3 and len(run.warm) == 1
    assert any("RuntimeError" in e for e in run.errors)
    assert any("wrong" in e for e in run.errors)


def test_self_times_subtract_children():
    spans = [
        ["request", 0.0, 10.0, -1],
        ["ftbar.run", 1.0, 7.0, 0],
        ["symmetry", 2.0, 5.0, 1],
        ["validation", 8.0, 9.0, 0],
        ["outside", 11.0, 12.0, -1],
    ]
    own = tracer.self_times(spans)
    assert own == {
        "request": 3.0, "ftbar.run": 3.0, "symmetry": 3.0,
        "validation": 1.0, "outside": 1.0,
    }
    inside = tracer.self_times(spans, root="request")
    assert "outside" not in inside
    assert sum(inside.values()) == 10.0
