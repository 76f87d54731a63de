"""The benchmark's own correctness checks, on plain JSON documents.

Nothing here imports ``repro``: the checks read the problem documents the
benchmark generated and the schedule / certificate documents the program
produced, so a scheduler bug cannot also blind its checker.
"""

from __future__ import annotations

import math
import re

#: The paper's fault-tolerant schedule length of its worked example
#: (Girault et al., DSN 2003, section 5); ``repro example`` must print it.
PAPER_FT_LENGTH = 15.05

#: Topologies inside the paper's theorem: every FTBAR schedule on them
#: masks any ``npf`` processor crashes, so the certificate must say so.
CERTIFIED_TOPOLOGIES = ("fully_connected", "single_bus")

_EPS = 1e-6


def _exec_table(problem: dict) -> dict[tuple[str, str], float]:
    table = {}
    for entry in problem["exec_times"]["entries"]:
        time = entry["time"]
        table[entry["operation"], entry["processor"]] = (
            math.inf if time == "inf" else float(time)
        )
    return table


def lower_bound(problem: dict) -> float:
    """Critical path over minimum execution times, ignoring comms."""
    ops = [op["name"] for op in problem["algorithm"]["operations"]]
    exe = _exec_table(problem)
    fastest = {op: math.inf for op in ops}
    for (op, _), time in exe.items():
        fastest[op] = min(fastest[op], time)
    preds: dict[str, list[str]] = {op: [] for op in ops}
    succs: dict[str, list[str]] = {op: [] for op in ops}
    for dep in problem["algorithm"]["dependencies"]:
        preds[dep["target"]].append(dep["source"])
        succs[dep["source"]].append(dep["target"])
    # Kahn order, so arbitrary document order is fine.
    pending = {op: len(preds[op]) for op in ops}
    ready = [op for op in ops if not pending[op]]
    finish: dict[str, float] = {}
    while ready:
        op = ready.pop()
        start = max((finish[p] for p in preds[op]), default=0.0)
        finish[op] = start + fastest[op]
        for succ in succs[op]:
            pending[succ] -= 1
            if not pending[succ]:
                ready.append(succ)
    if len(finish) != len(ops):
        raise ValueError("problem graph has a cycle")
    return max(finish.values(), default=0.0)


def makespan(schedule: dict) -> float:
    ends = [e["end"] for e in schedule["operations"]]
    ends += [c["end"] for c in schedule.get("comms", [])]
    return max(ends, default=0.0)


def check_schedule(problem: dict, schedule: dict, bound: float | None = None) -> list[str]:
    """Violations of the replication, timing and precedence invariants.

    * every operation has at least ``npf + 1`` replicas, on distinct
      processors;
    * each replica lasts exactly its execution time on its processor;
    * no replica starts before some replica of each predecessor ended;
    * the makespan is at least the critical-path lower bound.
    """
    errors: list[str] = []
    npf = int(problem.get("npf", 0))
    exe = _exec_table(problem)
    replicas: dict[str, list[dict]] = {}
    for event in schedule["operations"]:
        replicas.setdefault(event["operation"], []).append(event)
    for op in (o["name"] for o in problem["algorithm"]["operations"]):
        events = replicas.get(op, [])
        procs = {e["processor"] for e in events}
        if len(procs) < npf + 1 or len(procs) != len(events):
            errors.append(
                f"{op}: {len(events)} replicas on {len(procs)} distinct "
                f"processors, need >= {npf + 1} distinct"
            )
        for event in events:
            expected = exe.get((op, event["processor"]), math.inf)
            if abs(event["end"] - event["start"] - expected) > _EPS:
                errors.append(
                    f"{op} on {event['processor']}: duration "
                    f"{event['end'] - event['start']:g} != {expected:g}"
                )
    for dep in problem["algorithm"]["dependencies"]:
        sources = replicas.get(dep["source"], [])
        first_end = min((e["end"] for e in sources), default=math.inf)
        for event in replicas.get(dep["target"], []):
            if event["start"] < first_end - _EPS:
                errors.append(
                    f"{dep['target']} starts at {event['start']:g} before any "
                    f"replica of {dep['source']} ended ({first_end:g})"
                )
    if bound is None:
        bound = lower_bound(problem)
    length = makespan(schedule)
    if length < bound - _EPS:
        errors.append(f"makespan {length:g} below the lower bound {bound:g}")
    return errors


def check_verdict(topology: str, verdict: str) -> list[str]:
    """Certificates inside the theorem's scope must be ``certified``."""
    if topology in CERTIFIED_TOPOLOGIES and verdict != "certified":
        return [f"{topology} schedule not certified (verdict {verdict!r})"]
    return []


_FT_LINE = re.compile(r"fault-tolerant schedule length\s+([0-9.]+)")


def check_example_output(stdout: str) -> list[str]:
    """``repro example`` must report the paper's FT length."""
    match = _FT_LINE.search(stdout)
    if match is None:
        return ["example output lacks the fault-tolerant schedule length"]
    if abs(float(match.group(1)) - PAPER_FT_LENGTH) > 1e-9:
        return [
            f"example FT length {match.group(1)} != paper {PAPER_FT_LENGTH}"
        ]
    return []
