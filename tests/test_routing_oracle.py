"""The route planner against its rebuild-per-query oracle.

:class:`~repro.hardware.routing.RoutePlanner` builds its flow network
once per planner and copies only the capacities per max-flow query;
``tests/routing_oracle.py`` rebuilds the network for every query.  Both
must answer every Menger bound and every disjoint-route query — routes,
route order and error text — identically, and the counters of the
``routing`` metrics collector must show one network build per planner.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.core.compile import reset_compile_cache
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import ArchitectureError
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link
from repro.hardware.routing import RoutePlanner, routing_stats
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.obs.metrics import registry
from repro.schedule.serialization import load_json, problem_from_dict
from tests.routing_oracle import OracleRoutePlanner

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def two_bus(count: int) -> Architecture:
    """Bus A joins every processor, bus B all but the last one."""
    arc = Architecture("two-bus")
    names = [f"P{i + 1}" for i in range(count)]
    for name in names:
        arc.add_processor(name)
    arc.add_link(Link.bus("BUS.A", names))
    arc.add_link(Link.bus("BUS.B", names[:-1] if count > 2 else names))
    return arc


TOPOLOGIES = {
    "fully_connected": fully_connected,
    "ring": ring,
    "star": star,
    "single_bus": single_bus,
    "two_bus": two_bus,
}


def _answer(query):
    """A query's result, or its ``ArchitectureError`` text."""
    try:
        return query()
    except ArchitectureError as error:
        return f"ArchitectureError: {error}"


@pytest.mark.parametrize("processors", range(2, 9))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_planner_matches_the_oracle(topology, processors):
    arc = TOPOLOGIES[topology](processors)
    planner, oracle = RoutePlanner(arc), OracleRoutePlanner(arc)
    names = arc.processor_names()
    # Every ordered pair of a small architecture; from 6 processors on,
    # the pairs from two sources keep the sweep within seconds.
    sources = names if processors <= 5 else names[:1] + names[-1:]
    for source in sources:
        for target in names:
            if source == target:
                continue
            bound = oracle.menger_bound(source, target)
            assert planner.menger_bound(source, target) == bound
            others = [n for n in names if n not in (source, target)]
            avoids = [
                frozenset(avoid)
                for size in range(3)
                for avoid in itertools.combinations(others, size)
            ]
            # One count past the bound diffs the error text as well.
            for count in range(1, bound + 2):
                for avoid in avoids:
                    expected = _answer(
                        lambda: oracle.disjoint_routes(source, target, count, avoid)
                    )
                    assert _answer(
                        lambda: planner.disjoint_routes(source, target, count, avoid)
                    ) == expected, (source, target, count, sorted(avoid))


def test_a_link_added_after_a_query_changes_the_next_answer():
    arc = ring(4)
    assert arc.menger_bound("P1", "P3") == 2
    with pytest.raises(ArchitectureError, match="only 2 link-disjoint"):
        arc.disjoint_route_hops("P1", "P3", 3)
    arc.add_link(Link.between("L1.3", "P1", "P3"))
    assert arc.menger_bound("P1", "P3") == 3
    routes = arc.disjoint_route_hops("P1", "P3", 3)
    assert routes == OracleRoutePlanner(arc).disjoint_routes("P1", "P3", 3)
    assert [link.name for _, link, _ in routes[0]] == ["L1.3"]


def test_one_network_per_planner_and_the_pinned_max_flow_count():
    problem = problem_from_dict(load_json(EXAMPLES / "problem_fc4_npf1_npl1.json"))
    reset_compile_cache()  # the validation and route memos would answer
    before = routing_stats()
    schedule_ftbar(problem)
    after = routing_stats()
    delta = {key: after[key] - before[key] for key in before}
    assert delta["network_builds"] == 1
    assert delta["max_flows"] == 48
    assert registry.snapshot()["collected"]["routing"] == after
