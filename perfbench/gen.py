"""Seeded input generation for the benchmark.

Everything here is plain Python with no import of ``repro``: the
benchmark builds its problems as JSON documents (the format
``repro schedule`` reads) from ``random.Random(seed)``, so the inputs of a
workload do not change when the program's own generators change, and the
program only ever receives the finished documents.

The same seed gives the same documents; another seed gives documents of
the same shape (sizes, topologies, hypotheses) with different graphs and
timing values.
"""

from __future__ import annotations

import random

#: Mean execution time of an operation; comm means are ``ccr * MEAN_EXEC``.
MEAN_EXEC = 10.0


def _uniform(rng: random.Random, mean: float) -> float:
    # Two decimals keep the documents short and the arithmetic exact
    # enough for the benchmark's own lower-bound checks.
    return round(rng.uniform(0.5 * mean, 1.5 * mean), 2)


def dag(rng: random.Random, n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A layered random DAG of ``n`` operations in ``sqrt(n)``-ish layers.

    The layers have equal sizes and every operation past the first layer
    has exactly two predecessors: one in the layer just below and one in
    any earlier layer.  The seed picks which operations are joined, never
    how many layers or edges there are, so the work a problem holds does
    not swing from one seed to the next.
    """
    names = [f"t{i:04d}" for i in range(n)]
    layers = max(2, round(n ** 0.5))
    bounds = [round(k * n / layers) for k in range(layers + 1)]
    edges: list[tuple[str, str]] = []
    for k in range(1, layers):
        below = names[bounds[k - 1]:bounds[k]]
        earlier = names[:bounds[k]]
        for name in names[bounds[k]:bounds[k + 1]]:
            preds = {rng.choice(below)}
            while len(preds) < min(2, len(earlier)):
                preds.add(rng.choice(earlier))
            edges.extend((p, name) for p in sorted(preds))
    return names, edges


def architecture(topology: str, p: int) -> dict:
    """Architecture document with the program's naming conventions."""
    procs = [f"P{i + 1}" for i in range(p)]
    links: list[dict] = []

    def wire(i: int, j: int) -> None:
        lo, hi = sorted((i, j))
        links.append({
            "name": f"L{lo + 1}.{hi + 1}",
            "endpoints": [procs[lo], procs[hi]],
            "kind": "point-to-point",
        })

    if topology == "fully_connected":
        for i in range(p):
            for j in range(i + 1, p):
                wire(i, j)
    elif topology == "single_bus":
        links.append({"name": "BUS", "endpoints": procs, "kind": "bus"})
    elif topology == "ring":
        for i in range(p):
            wire(i, (i + 1) % p)
    elif topology == "star":
        for i in range(1, p):
            links.append({
                "name": f"L{procs[0]}.{procs[i]}",
                "endpoints": [procs[0], procs[i]],
                "kind": "point-to-point",
            })
    else:
        raise ValueError(f"unknown topology {topology!r}")
    links.sort(key=lambda link: link["name"])
    return {"name": topology, "processors": procs, "links": links}


def problem(
    rng: random.Random,
    n: int,
    p: int,
    topology: str,
    *,
    heterogeneous: bool,
    npf: int,
    npl: int = 0,
    ccr: float = 1.0,
    name: str = "problem",
) -> dict:
    """One problem document: DAG, architecture and both timing tables."""
    ops, edges = dag(rng, n)
    arch = architecture(topology, p)
    procs = arch["processors"]
    link_names = [link["name"] for link in arch["links"]]
    exec_entries = []
    for op in ops:
        shared = _uniform(rng, MEAN_EXEC)
        for proc in procs:
            time = _uniform(rng, MEAN_EXEC) if heterogeneous else shared
            exec_entries.append({"operation": op, "processor": proc, "time": time})
    comm_entries = []
    for source, target in edges:
        shared = _uniform(rng, ccr * MEAN_EXEC)
        for link in link_names:
            time = _uniform(rng, ccr * MEAN_EXEC) if heterogeneous else shared
            comm_entries.append(
                {"source": source, "target": target, "link": link, "time": time}
            )
    document = {
        "format_version": 1,
        "name": name,
        "npf": npf,
        "algorithm": {
            "name": name,
            "operations": [{"name": op, "kind": "comp"} for op in ops],
            "dependencies": [
                {"source": s, "target": t, "data_size": 1.0} for s, t in edges
            ],
        },
        "architecture": arch,
        "exec_times": {"entries": exec_entries},
        "comm_times": {"entries": comm_entries},
        "rtc": {"global_deadline": None, "operation_deadlines": {}},
    }
    if npl:
        document["npl"] = npl
    return document


# ----------------------------------------------------------------------
# workload shapes
# ----------------------------------------------------------------------

#: ``(n, p, topology, heterogeneous, npf, npl)`` per request, in order.
#: The shapes are fixed; the seed only draws graphs and timing values.
SHAPES: dict[str, list[tuple]] = {
    "design-loop": [
        (40, 4, "fully_connected", False, 1, 0),
        (100, 8, "single_bus", True, 1, 0),
        (300, 4, "single_bus", False, 1, 0),
        (100, 8, "fully_connected", True, 1, 0),
    ],
    "wide-arch": [
        (n, p, topology, False, npf, 0)
        for n, p, topology, npf in (
            (40, 16, "fully_connected", 1),
            (40, 16, "single_bus", 2),
            (40, 16, "star", 2),
            (20, 32, "fully_connected", 1),
            (20, 32, "single_bus", 1),
            (40, 16, "fully_connected", 1),
            (40, 16, "single_bus", 2),
            (40, 16, "star", 2),
        )
    ] + [(30, 8, "fully_connected", False, 1, 1)] * 2,
}


def requests(workload: str, seed: int) -> list[dict]:
    """The workload's request list: one problem document per shape."""
    rng = random.Random(f"{workload}:{seed}")
    docs = []
    for index, (n, p, topology, het, npf, npl) in enumerate(SHAPES[workload]):
        tag = "het" if het else "hom"
        name = f"{workload}-{index:02d}-{topology}-N{n}-P{p}-{tag}-npf{npf}"
        if npl:
            name += f"-npl{npl}"
        docs.append(problem(
            rng, n, p, topology,
            heterogeneous=het, npf=npf, npl=npl, name=name,
        ))
    return docs


def campaign_spec(seed: int) -> dict:
    """The campaign-grid spec document: 48 jobs, drawn from ``seed``."""
    return {
        "format_version": 1,
        "name": f"bench-grid-{seed}",
        "workloads": [
            {"family": "random", "size": 60, "arity": 2,
             "heterogeneous": False, "max_predecessors": 3},
            {"family": "gauss", "size": 8, "arity": 2,
             "heterogeneous": False, "max_predecessors": 3},
            {"family": "butterfly", "size": 3, "arity": 2,
             "heterogeneous": False, "max_predecessors": 3},
        ],
        "topologies": ["fully_connected", "ring"],
        "processors": [4, 6],
        "npfs": [1, 2],
        "npls": [0],
        "ccrs": [1.0, 5.0],
        "seeds": [seed],
        "failures": [],
        "measures": ["ftbar", "non_ft", "reliability"],
        "mean_execution": MEAN_EXEC,
        "options": {},
        "reliability": {"probabilities": [0.01]},
        "backend": "serial",
    }
