"""Tests for the exhaustive best-assignment baseline and the E10 gap."""

import pytest

from repro.analysis.experiments import run_optimality_gap
from repro.baselines.exhaustive import ExhaustiveScheduler, schedule_exhaustive
from repro.campaign.jobs import build_problem
from repro.campaign.spec import WorkloadSpec
from repro.core.ftbar import schedule_ftbar
from repro.core.kernel import SchedulingKernel
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.builder import diamond, linear_chain
from repro.graphs.operations import OperationKind
from repro.schedule.serialization import schedule_to_dict
from repro.schedule.validation import validate_schedule
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

from tests.ftbar_oracle import exhaustive_reference
from tests.util import uniform_problem

#: ``(seed, best_makespan, assignments_total)`` of ``run_optimality_gap()``
#: at its defaults, recorded on the object-planner enumeration (the
#: search before it ran on the scheduling kernel).
E10_DEFAULTS = [
    (2003, 47.467003265410966, 729),
    (3003, 56.28778151660418, 729),
    (4003, 41.57731767477641, 729),
    (5003, 39.91930243027039, 729),
    (6003, 48.40040038743955, 729),
    (7003, 56.553639927730195, 729),
    (8003, 35.82791694906197, 729),
    (9003, 49.86974860824226, 729),
    (10003, 61.51938743900617, 729),
    (11003, 51.29250264239006, 729),
]


class TestExhaustiveScheduler:
    def test_single_operation_optimum(self):
        graph = AlgorithmGraph("one")
        graph.add_operation("A")
        problem = uniform_problem(graph, processors=3, npf=1)
        result = schedule_exhaustive(problem)
        assert result.makespan == pytest.approx(1.0)
        assert result.assignments_total == 3  # C(3,2)

    def test_enumerates_the_whole_space(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        result = schedule_exhaustive(problem)
        assert result.assignments_total == 27  # C(3,2)^3

    def test_result_schedule_is_valid(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        result = schedule_exhaustive(problem)
        report = validate_schedule(
            result.schedule,
            problem.algorithm,
            problem.architecture,
            problem.exec_times,
            problem.comm_times,
        )
        assert report.ok, str(report)

    def test_never_worse_than_ftbar_without_duplication(self):
        from repro.core.options import SchedulerOptions

        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        plain = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        best = schedule_exhaustive(problem)
        assert best.makespan <= plain.makespan + 1e-9

    def test_space_bound_enforced(self):
        problem = uniform_problem(linear_chain(8), processors=4, npf=1)
        with pytest.raises(SchedulingError, match="assignment space"):
            ExhaustiveScheduler(problem, max_assignments=100)

    def test_rejects_memories(self):
        graph = AlgorithmGraph("m")
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_dependency("M", "A")
        problem = uniform_problem(graph, processors=3, npf=1)
        with pytest.raises(SchedulingError, match="memory"):
            ExhaustiveScheduler(problem)

    def test_infeasible_replication_rejected(self):
        problem = uniform_problem(linear_chain(2), processors=3, npf=1)
        problem.exec_times.forbid("T0", "P1")
        problem.exec_times.forbid("T0", "P2")
        with pytest.raises(InfeasibleReplicationError):
            ExhaustiveScheduler(problem)

    def test_respects_distribution_constraints(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        problem.exec_times.forbid("B", "P1")
        result = schedule_exhaustive(problem)
        assert result.schedule.replica_on("B", "P1") is None


class TestOptimalityGap:
    def test_gap_points_structure(self):
        points = run_optimality_gap(
            operations=4, processors=3, instances=3, seed=77
        )
        assert len(points) == 3
        for point in points:
            assert point.best_makespan > 0
            assert point.assignments > 0

    def test_ftbar_close_to_best_assignment(self):
        points = run_optimality_gap(
            operations=5, processors=3, instances=5, seed=101
        )
        gaps = [p.gap_percent for p in points]
        # The heuristic should stay within a reasonable factor of the
        # best assignment on tiny instances (and may beat it thanks to
        # duplication).
        assert max(gaps) < 50.0
        assert sum(gaps) / len(gaps) < 25.0

    def test_random_instances_best_not_above_ftbar_by_construction(self):
        # The exhaustive search covers FTBAR's own assignment when
        # FTBAR does not duplicate, so best <= ftbar then.
        from repro.core.options import SchedulerOptions

        problem = generate_problem(
            RandomWorkloadConfig(operations=5, ccr=1.0, processors=3,
                                 npf=1, seed=5)
        )
        plain = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        best = schedule_exhaustive(problem)
        assert best.makespan <= plain.makespan + 1e-9

    def test_defaults_pinned(self):
        points = run_optimality_gap()
        assert [
            (p.seed, p.best_makespan, p.assignments) for p in points
        ] == E10_DEFAULTS

    def test_shared_prefixes_are_placed_once(self, monkeypatch):
        # 6 operations x 3 pairs: the prefix walk places at most
        # 2 * (3 + 9 + ... + 729) = 2,184 replicas, plus 12 to replay
        # the winner; re-placing every assignment would need 8,748.
        calls = []
        place = SchedulingKernel.place

        def counting(kernel, operation, processor):
            calls.append(operation)
            return place(kernel, operation, processor)

        monkeypatch.setattr(SchedulingKernel, "place", counting)
        problem = generate_problem(
            RandomWorkloadConfig(operations=6, ccr=1.0, processors=3,
                                 npf=1, seed=2003)
        )
        result = schedule_exhaustive(problem)
        assert result.assignments_total == 3 ** 6
        assert len(calls) <= 2 * sum(3 ** d for d in range(1, 7)) + 12


def _gen_problem(topology, processors=4, npf=1, npl=0, size=4):
    return build_problem(
        WorkloadSpec(family="random", size=size, heterogeneous=True),
        topology, processors, npf, 1.0, 11, npl=npl,
    )


@pytest.mark.parametrize(
    "topology,processors,npf",
    [
        ("fully_connected", 4, 1),
        ("single_bus", 4, 1),
        ("ring", 4, 1),
        ("star", 4, 1),
        ("fully_connected", 4, 2),
    ],
)
def test_kernel_exhaustive_matches_object_oracle(topology, processors, npf):
    """The kernel search equals the enumeration over the object planner.

    Same winning schedule (bit for bit), makespan and assignment
    space: pruning on the kernel's running makespan skips only
    assignments that could not have won.
    """
    problem = _gen_problem(topology, processors, npf)
    result = schedule_exhaustive(problem)
    oracle = exhaustive_reference(problem)
    assert schedule_to_dict(result.schedule) == schedule_to_dict(oracle.schedule)
    assert result.makespan == oracle.makespan
    assert result.assignments_total == oracle.assignments_total


def test_exhaustive_plans_single_routes_whatever_npl():
    """An ``npl: 1`` problem gives the result of its ``npl: 0`` twin."""
    with_links = _gen_problem("fully_connected", npl=1)
    assert with_links.npl == 1
    twin = _gen_problem("fully_connected", npl=0)
    result = schedule_exhaustive(with_links)
    baseline = schedule_exhaustive(twin)
    assert schedule_to_dict(result.schedule) == schedule_to_dict(
        baseline.schedule
    )
    assert result.makespan == baseline.makespan
    assert result.assignments_total == baseline.assignments_total
