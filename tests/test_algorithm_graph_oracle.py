"""Differential test: ``AlgorithmGraph`` against a networkx oracle.

``AlgorithmGraph`` keeps its own adjacency dicts; networkx is only an
optional export.  Seeded random graphs — DAGs, graphs whose cycles pass
through a ``mem`` (register cycles) and graphs with combinational
cycles — are built twice, once as an ``AlgorithmGraph`` and once as an
``nx.DiGraph``, and every structural query must agree.
"""

import random

import pytest

from repro.exceptions import GraphError
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.operations import (
    OperationKind,
    memory_read_name,
    memory_write_name,
)

nx = pytest.importorskip("networkx")

SEEDS = range(40)
SHAPES = ("dag", "register", "combinational")


def random_graph(rng: random.Random, shape: str):
    """An ``(AlgorithmGraph, nx.DiGraph)`` pair of one random shape.

    ``dag`` has forward edges only; ``register`` adds back edges into a
    ``mem`` operation (every cycle then runs through a memory);
    ``combinational`` adds back edges between plain computations.
    """
    size = rng.randint(1, 14)
    names = [f"v{index:02d}" for index in rng.sample(range(100), size)]
    memories = {name for name in names if rng.random() < 0.25}
    graph = AlgorithmGraph(shape)
    oracle = nx.DiGraph()
    for name in rng.sample(names, size):
        kind = OperationKind.MEMORY if name in memories else OperationKind.COMPUTATION
        graph.add_operation(name, kind)
        oracle.add_node(name, memory=name in memories)

    def link(source: str, target: str) -> None:
        size = float(rng.randint(1, 5))
        graph.add_dependency(source, target, size)
        oracle.add_edge(source, target, data_size=size)

    for i, source in enumerate(names):
        for target in names[i + 1:]:
            if rng.random() < 0.3:
                link(source, target)
    back = [(b, a) for i, a in enumerate(names) for b in names[i + 1:]]
    rng.shuffle(back)
    if shape == "register":
        back = [(s, t) for s, t in back if t in memories]
    elif shape == "combinational":
        back = [(s, t) for s, t in back if not {s, t} & memories]
    else:
        back = []
    for source, target in back[:3]:
        link(source, target)
    # Re-adding an edge updates its data size, as networkx does.
    if graph.dependencies():
        source, target = rng.choice(graph.dependencies())
        link(source, target)
    return graph, oracle


def expected_validation(oracle) -> bool:
    """Valid when every simple cycle touches a memory."""
    return all(
        any(oracle.nodes[node]["memory"] for node in cycle)
        for cycle in nx.simple_cycles(oracle)
    )


def expected_expansion(oracle):
    """The register expansion of ``oracle``, built independently."""
    expanded = nx.DiGraph()

    def half(name: str, which: int) -> str:
        if not oracle.nodes[name]["memory"]:
            return name
        return (memory_read_name, memory_write_name)[which](name)

    for name in oracle.nodes:
        if oracle.nodes[name]["memory"]:
            expanded.add_node(memory_read_name(name))
            expanded.add_node(memory_write_name(name))
        else:
            expanded.add_node(name)
    for source, target, size in oracle.edges(data="data_size"):
        expanded.add_edge(half(source, 0), half(target, 1), data_size=size)
    return expanded


@pytest.mark.parametrize("shape", SHAPES)
def test_queries_match_networkx(shape):
    for seed in SEEDS:
        check_queries(*random_graph(random.Random(f"{shape}-{seed}"), shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_validation_and_expansion_match_networkx(shape):
    for seed in SEEDS:
        check_validation_and_expansion(
            *random_graph(random.Random(f"{shape}-{seed}"), shape)
        )


def check_queries(graph, oracle):
    """Adjacency, reachability and ordering queries agree."""
    assert graph.operation_names() == tuple(sorted(oracle.nodes))
    assert graph.dependencies() == tuple(sorted(oracle.edges))
    assert graph.number_of_dependencies() == oracle.number_of_edges()
    for source, target, size in oracle.edges(data="data_size"):
        assert graph.data_size(source, target) == size
    assert graph.sources() == tuple(
        sorted(n for n in oracle.nodes if oracle.in_degree(n) == 0)
    )
    assert graph.sinks() == tuple(
        sorted(n for n in oracle.nodes if oracle.out_degree(n) == 0)
    )
    for name in oracle.nodes:
        assert graph.ancestors(name) == frozenset(nx.ancestors(oracle, name))
        assert graph.descendants(name) == frozenset(nx.descendants(oracle, name))
        assert graph.predecessors(name) == tuple(sorted(oracle.predecessors(name)))
        assert graph.successors(name) == tuple(sorted(oracle.successors(name)))

    acyclic = nx.is_directed_acyclic_graph(oracle)
    assert graph.is_acyclic() == acyclic
    if acyclic:
        assert graph.topological_order() == tuple(
            nx.lexicographical_topological_sort(oracle)
        )
    else:
        with pytest.raises(GraphError, match="cycle"):
            graph.topological_order()


def check_validation_and_expansion(graph, oracle):
    """``validate`` accepts exactly the oracle-valid graphs, which then
    expand like the oracle's own register expansion."""
    if expected_validation(oracle):
        graph.validate()
    else:
        with pytest.raises(GraphError, match="combinational cycle") as caught:
            graph.validate()
        # The reported cycle is a real cycle of plain computations.
        cycle = str(caught.value).split("combinational cycle ")[1]
        cycle = cycle.split(" in graph ")[0].split(" -> ")
        for source, target in zip(cycle, cycle[1:] + cycle[:1]):
            assert oracle.has_edge(source, target)
            assert not oracle.nodes[source]["memory"]
        return

    expanded, pairs = graph.expand_memories()
    reference = expected_expansion(oracle)
    assert expanded.operation_names() == tuple(sorted(reference.nodes))
    assert expanded.dependencies() == tuple(sorted(reference.edges))
    for source, target, size in reference.edges(data="data_size"):
        assert expanded.data_size(source, target) == size
    assert expanded.is_acyclic()
    assert expanded.topological_order() == tuple(
        nx.lexicographical_topological_sort(reference)
    )
    assert pairs == {
        name: (memory_read_name(name), memory_write_name(name))
        for name in oracle.nodes
        if oracle.nodes[name]["memory"]
    }


def test_to_networkx_round_trip():
    graph, oracle = random_graph(random.Random("export"), "register")
    exported = graph.to_networkx()
    assert set(exported.nodes) == set(oracle.nodes)
    assert {
        (s, t, size) for s, t, size in exported.edges(data="data_size")
    } == {(s, t, size) for s, t, size in oracle.edges(data="data_size")}
    for name in exported.nodes:
        assert exported.nodes[name]["operation"] == graph.operation(name)
