"""Unit tests for the data-flow graph model (repro.graphs.algorithm)."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.algorithm import AlgorithmGraph, from_dependencies
from repro.graphs.operations import Operation, OperationKind


def diamond() -> AlgorithmGraph:
    return from_dependencies([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


class TestConstruction:
    def test_add_operation_returns_stored_object(self):
        graph = AlgorithmGraph()
        op = graph.add_operation("A")
        assert op == Operation("A")
        assert "A" in graph

    def test_add_operation_idempotent(self):
        graph = AlgorithmGraph()
        graph.add_operation("A")
        graph.add_operation("A")
        assert len(graph) == 1

    def test_re_adding_with_other_kind_rejected(self):
        graph = AlgorithmGraph()
        graph.add_operation("A", OperationKind.COMPUTATION)
        with pytest.raises(GraphError, match="already exists"):
            graph.add_operation("A", OperationKind.MEMORY)

    def test_add_operation_accepts_operation_object(self):
        graph = AlgorithmGraph()
        graph.add_operation(Operation("M", OperationKind.MEMORY))
        assert graph.operation("M").is_memory()

    def test_dependency_requires_known_endpoints(self):
        graph = AlgorithmGraph()
        graph.add_operation("A")
        with pytest.raises(GraphError, match="unknown operation"):
            graph.add_dependency("A", "B")
        with pytest.raises(GraphError, match="unknown operation"):
            graph.add_dependency("Z", "A")

    def test_self_dependency_rejected(self):
        graph = AlgorithmGraph()
        graph.add_operation("A")
        with pytest.raises(GraphError, match="self dependency"):
            graph.add_dependency("A", "A")

    def test_non_positive_data_size_rejected(self):
        graph = AlgorithmGraph()
        graph.add_operation("A")
        graph.add_operation("B")
        with pytest.raises(GraphError, match="data_size"):
            graph.add_dependency("A", "B", data_size=0)

    def test_data_size_stored(self):
        graph = AlgorithmGraph()
        graph.add_operation("A")
        graph.add_operation("B")
        graph.add_dependency("A", "B", data_size=3.5)
        assert graph.data_size("A", "B") == 3.5

    def test_data_size_of_unknown_edge(self):
        with pytest.raises(GraphError, match="unknown dependency"):
            diamond().data_size("A", "D")


class TestQueries:
    def test_operation_names_sorted(self):
        graph = AlgorithmGraph()
        for name in ("C", "A", "B"):
            graph.add_operation(name)
        assert graph.operation_names() == ("A", "B", "C")

    def test_unknown_operation_raises(self):
        with pytest.raises(GraphError):
            AlgorithmGraph().operation("A")

    def test_predecessors_and_successors_sorted(self):
        graph = diamond()
        assert graph.predecessors("D") == ("B", "C")
        assert graph.successors("A") == ("B", "C")

    def test_predecessors_of_unknown_operation(self):
        with pytest.raises(GraphError):
            diamond().predecessors("Z")

    def test_sources_and_sinks(self):
        graph = diamond()
        assert graph.sources() == ("A",)
        assert graph.sinks() == ("D",)

    def test_has_dependency(self):
        graph = diamond()
        assert graph.has_dependency("A", "B")
        assert not graph.has_dependency("B", "A")

    def test_dependencies_sorted(self):
        assert diamond().dependencies() == (
            ("A", "B"),
            ("A", "C"),
            ("B", "D"),
            ("C", "D"),
        )

    def test_len_and_iter(self):
        graph = diamond()
        assert len(graph) == 4
        assert list(graph) == ["A", "B", "C", "D"]

    def test_number_of_dependencies(self):
        assert diamond().number_of_dependencies() == 4

    def test_descendants_and_ancestors(self):
        graph = diamond()
        assert graph.descendants("A") == {"B", "C", "D"}
        assert graph.ancestors("D") == {"A", "B", "C"}
        assert graph.descendants("D") == frozenset()


class TestStructure:
    def test_topological_order_respects_edges(self):
        graph = diamond()
        order = graph.topological_order()
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_topological_order_deterministic(self):
        assert diamond().topological_order() == diamond().topological_order()

    def test_topological_order_rejects_cycle(self):
        graph = from_dependencies([("A", "B"), ("B", "A")])
        with pytest.raises(GraphError, match="cycle"):
            graph.topological_order()

    def test_levels(self):
        assert dict(diamond().levels()) == {"A": 0, "B": 1, "C": 1, "D": 2}

    def test_heights(self):
        assert dict(diamond().heights()) == {"A": 2, "B": 1, "C": 1, "D": 0}

    def test_validate_empty_graph(self):
        with pytest.raises(GraphError, match="empty"):
            AlgorithmGraph().validate()

    def test_validate_accepts_dag(self):
        diamond().validate()

    def test_validate_rejects_combinational_cycle(self):
        graph = from_dependencies([("A", "B"), ("B", "A")])
        with pytest.raises(GraphError, match="combinational cycle"):
            graph.validate()

    def test_validate_accepts_cycle_through_memory(self):
        graph = AlgorithmGraph()
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_dependency("M", "A")
        graph.add_dependency("A", "M")
        graph.validate()


class TestMemoryExpansion:
    def build_register_loop(self) -> AlgorithmGraph:
        graph = AlgorithmGraph("loop")
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_dependency("M", "A", data_size=2.0)
        graph.add_dependency("A", "M", data_size=3.0)
        return graph

    def test_no_memory_returns_same_object(self):
        graph = diamond()
        expanded, pairs = graph.expand_memories()
        assert expanded is graph
        assert pairs == {}

    def test_expansion_splits_memory(self):
        expanded, pairs = self.build_register_loop().expand_memories()
        assert pairs == {"M": ("M#read", "M#write")}
        assert set(expanded.operation_names()) == {"A", "M#read", "M#write"}

    def test_expansion_breaks_cycle(self):
        expanded, _ = self.build_register_loop().expand_memories()
        assert expanded.is_acyclic()
        assert expanded.has_dependency("M#read", "A")
        assert expanded.has_dependency("A", "M#write")

    def test_expansion_preserves_data_sizes(self):
        expanded, _ = self.build_register_loop().expand_memories()
        assert expanded.data_size("M#read", "A") == 2.0
        assert expanded.data_size("A", "M#write") == 3.0

    def test_expansion_keeps_kinds(self):
        expanded, _ = self.build_register_loop().expand_memories()
        assert expanded.operation("M#read").is_memory()
        assert expanded.operation("M#write").is_memory()
        assert expanded.operation("A").is_computation()

    def test_memory_operations_listing(self):
        assert self.build_register_loop().memory_operations() == ("M",)


class TestCopyAndExport:
    def test_copy_is_independent(self):
        graph = diamond()
        clone = graph.copy()
        clone.add_operation("E")
        assert "E" in clone
        assert "E" not in graph

    def test_copy_edges_are_independent(self):
        graph = diamond()
        clone = graph.copy()
        clone.add_dependency("B", "C", 3.0)
        assert clone.has_dependency("B", "C")
        assert not graph.has_dependency("B", "C")
        assert graph.successors("B") == ("D",)

    def test_to_networkx_is_a_copy(self):
        pytest.importorskip("networkx")  # an optional, export-only dependency
        graph = diamond()
        nx_graph = graph.to_networkx()
        nx_graph.add_node("Z")
        assert "Z" not in graph

    def test_repr_mentions_counts(self):
        assert "operations=4" in repr(diamond())


class TestFromDependencies:
    def test_kinds_override(self):
        graph = from_dependencies(
            [("I", "A"), ("A", "O")],
            kinds={"I": OperationKind.EXTERNAL_IO, "O": "extio"},
        )
        assert graph.operation("I").is_external_io()
        assert graph.operation("O").is_external_io()
        assert graph.operation("A").is_computation()
