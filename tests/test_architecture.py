"""Unit tests for the Architecture graph and its routing."""

import pytest

from repro.exceptions import ArchitectureError
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link


def line_of_three() -> Architecture:
    arc = Architecture("line")
    for name in ("P1", "P2", "P3"):
        arc.add_processor(name)
    arc.add_link(Link.between("L1.2", "P1", "P2"))
    arc.add_link(Link.between("L2.3", "P2", "P3"))
    return arc


def triangle() -> Architecture:
    arc = line_of_three()
    arc.add_link(Link.between("L1.3", "P1", "P3"))
    return arc


class TestConstruction:
    def test_add_processor_idempotent(self):
        arc = Architecture()
        arc.add_processor("P1")
        arc.add_processor("P1")
        assert len(arc) == 1

    def test_add_link_by_name_and_endpoints(self):
        arc = Architecture()
        arc.add_processor("P1")
        arc.add_processor("P2")
        link = arc.add_link("L", ["P1", "P2"])
        assert link.is_point_to_point()

    def test_add_link_infers_bus_for_three_endpoints(self):
        arc = Architecture()
        for name in ("P1", "P2", "P3"):
            arc.add_processor(name)
        link = arc.add_link("B", ["P1", "P2", "P3"])
        assert link.is_bus()

    def test_add_link_requires_endpoints(self):
        arc = Architecture()
        with pytest.raises(ArchitectureError, match="endpoints required"):
            arc.add_link("L")

    def test_link_to_unknown_processor_rejected(self):
        arc = Architecture()
        arc.add_processor("P1")
        with pytest.raises(ArchitectureError, match="unknown processor"):
            arc.add_link(Link.between("L", "P1", "P9"))

    def test_duplicate_link_name_rejected(self):
        arc = line_of_three()
        with pytest.raises(ArchitectureError, match="duplicate link"):
            arc.add_link(Link.between("L1.2", "P1", "P3"))


class TestQueries:
    def test_processor_lookup(self):
        arc = line_of_three()
        assert arc.processor("P1").name == "P1"
        with pytest.raises(ArchitectureError):
            arc.processor("P9")

    def test_link_lookup(self):
        arc = line_of_three()
        assert arc.link("L1.2").name == "L1.2"
        with pytest.raises(ArchitectureError):
            arc.link("L9")

    def test_names_sorted(self):
        arc = triangle()
        assert arc.processor_names() == ("P1", "P2", "P3")
        assert arc.link_names() == ("L1.2", "L1.3", "L2.3")

    def test_links_of(self):
        arc = line_of_three()
        assert [l.name for l in arc.links_of("P2")] == ["L1.2", "L2.3"]

    def test_links_between(self):
        arc = line_of_three()
        assert [l.name for l in arc.links_between("P1", "P2")] == ["L1.2"]
        assert arc.links_between("P1", "P3") == ()

    def test_links_between_same_processor_empty(self):
        assert line_of_three().links_between("P1", "P1") == ()

    def test_parallel_links_all_returned(self):
        arc = line_of_three()
        arc.add_link(Link.between("L1.2bis", "P1", "P2"))
        assert [l.name for l in arc.links_between("P1", "P2")] == ["L1.2", "L1.2bis"]

    def test_link_indexes_follow_mutations(self):
        arc = line_of_three()
        assert arc.links_between("P1", "P3") == ()
        assert [l.name for l in arc.links_of("P1")] == ["L1.2"]
        arc.add_link(Link.bus("B", ["P1", "P2", "P3"]))
        arc.add_link(Link.between("A1.3", "P1", "P3"))
        assert [l.name for l in arc.links_between("P3", "P1")] == ["A1.3", "B"]
        assert [l.name for l in arc.links_of("P1")] == ["A1.3", "B", "L1.2"]
        arc.add_processor("P4")
        assert arc.links_of("P4") == ()
        assert arc.links_between("P1", "P4") == ()

    def test_link_queries_reject_unknown_processors(self):
        arc = line_of_three()
        with pytest.raises(ArchitectureError):
            arc.links_of("P9")
        with pytest.raises(ArchitectureError):
            arc.links_between("P1", "P9")

    def test_neighbors(self):
        arc = line_of_three()
        assert arc.neighbors("P2") == ("P1", "P3")
        assert arc.neighbors("P1") == ("P2",)

    def test_is_fully_connected(self):
        assert triangle().is_fully_connected()
        assert not line_of_three().is_fully_connected()

    def test_iteration(self):
        assert list(line_of_three()) == ["P1", "P2", "P3"]


class TestRouting:
    def test_direct_route(self):
        arc = triangle()
        assert [l.name for l in arc.route("P1", "P3")] == ["L1.3"]

    def test_two_hop_route(self):
        arc = line_of_three()
        assert [l.name for l in arc.route("P1", "P3")] == ["L1.2", "L2.3"]

    def test_route_to_self_is_empty(self):
        assert triangle().route("P1", "P1") == ()

    def test_route_unreachable(self):
        arc = Architecture()
        arc.add_processor("P1")
        arc.add_processor("P2")
        with pytest.raises(ArchitectureError, match="no route"):
            arc.route("P1", "P2")

    def test_route_hops_node_sequence(self):
        arc = line_of_three()
        hops = arc.route_hops("P1", "P3")
        assert [(a, l.name, b) for a, l, b in hops] == [
            ("P1", "L1.2", "P2"),
            ("P2", "L2.3", "P3"),
        ]

    def test_route_hops_empty_for_self(self):
        assert triangle().route_hops("P1", "P1") == ()

    def test_hop_count(self):
        arc = line_of_three()
        assert arc.hop_count("P1", "P2") == 1
        assert arc.hop_count("P1", "P3") == 2

    def test_route_through_bus(self):
        arc = Architecture()
        for name in ("P1", "P2", "P3"):
            arc.add_processor(name)
        arc.add_link(Link.bus("BUS", ["P1", "P2", "P3"]))
        assert [l.name for l in arc.route("P1", "P3")] == ["BUS"]

    def test_route_hops_across_two_buses(self):
        arc = Architecture("buses")
        for name in ("P1", "P2", "P3", "P4"):
            arc.add_processor(name)
        arc.add_link(Link.bus("BUSA", ["P1", "P2", "P3"]))
        arc.add_link(Link.bus("BUSB", ["P3", "P4"]))
        hops = arc.route_hops("P1", "P4")
        assert [(a, l.name, b) for a, l, b in hops] == [
            ("P1", "BUSA", "P3"),
            ("P3", "BUSB", "P4"),
        ]

    def test_route_cache_invalidated_by_new_link(self):
        arc = line_of_three()
        assert arc.hop_count("P1", "P3") == 2
        arc.add_link(Link.between("L1.3", "P1", "P3"))
        assert arc.hop_count("P1", "P3") == 1


class TestValidation:
    def test_empty_architecture_rejected(self):
        with pytest.raises(ArchitectureError, match="no processor"):
            Architecture().validate()

    def test_single_processor_valid(self):
        arc = Architecture()
        arc.add_processor("P1")
        arc.validate()

    def test_disconnected_rejected(self):
        arc = Architecture()
        arc.add_processor("P1")
        arc.add_processor("P2")
        with pytest.raises(ArchitectureError, match="disconnected"):
            arc.validate()

    def test_connected_accepted(self):
        line_of_three().validate()

    def test_to_networkx(self):
        pytest.importorskip("networkx")  # an optional, export-only dependency
        graph = triangle().to_networkx()
        assert set(graph.nodes) == {"P1", "P2", "P3"}
        assert graph.number_of_edges() == 3

    def test_repr(self):
        assert "processors=3" in repr(line_of_three())
