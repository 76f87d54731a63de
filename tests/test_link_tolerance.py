"""End-to-end tests of Npl+1 disjoint-route comm replication.

Covers the acceptance criteria of the unified resource-failure model:

* ``npl = 0`` is bit-identical to the paper-era engine (no ``npl`` /
  ``route`` keys in serialized documents, same schedules from the
  compiled kernel and the reference engine — the golden corpus of
  ``test_engine_equivalence.py`` pins the rest);
* ``npl >= 1`` schedules place every inter-processor transfer on
  ``Npl + 1`` pairwise link-disjoint routes and pass the independent
  structural validator;
* the certifier's batch engine proves combined masking — every subset
  of ≤ ``Npf`` processor crashes and ≤ ``Npl`` link failures — on ring,
  (reinforced) star and fully-connected topologies, bit-identically to
  the per-scenario oracle (``tests/certify_oracle.py``);
* infeasible hypotheses (a plain star at ``npl = 1``) fail with a clear
  error naming the achievable bound.
"""

import itertools

import pytest

from repro.analysis.reliability import (
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.campaign.jobs import build_problem
from repro.campaign.spec import WorkloadSpec
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.exceptions import ArchitectureError
from repro.graphs.builder import diamond, fork_join
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link
from repro.hardware.topologies import fully_connected, ring, star
from repro.problem import ProblemSpec
from repro.schedule.serialization import (
    problem_content_hash,
    problem_from_dict,
    problem_to_dict,
    schedule_content_hash,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedule.validation import validate_schedule
from repro.simulation.batch import BatchScenarioEngine
from repro.simulation.compiled import simulate
from repro.simulation.failures import FailureScenario
from repro.simulation.trace import EventStatus
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests import certify_oracle
from tests.ftbar_oracle import ftbar_reference
from tests.simulation_oracle import ScheduleSimulator


def _uniform(algorithm, architecture, npf=0, npl=0, exec_time=1.0, comm=0.5):
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=ExecutionTimes.uniform(
            algorithm.operation_names(), architecture.processor_names(), exec_time
        ),
        comm_times=CommunicationTimes.uniform(
            algorithm.dependencies(), architecture.link_names(), comm
        ),
        npf=npf,
        npl=npl,
        name="link-tolerance-test",
    )


def _reinforced_star(count):
    """A star with doubled spokes: Menger bound 2 between any pair."""
    arc = Architecture("reinforced-star")
    names = [f"P{i + 1}" for i in range(count)]
    for name in names:
        arc.add_processor(name)
    for leaf in names[1:]:
        arc.add_link(Link.between(f"LA.{names[0]}.{leaf}", names[0], leaf))
        arc.add_link(Link.between(f"LB.{names[0]}.{leaf}", names[0], leaf))
    return arc


def _assert_combined_masking(problem, crash_times=(0.0,)):
    """Certify every (≤ npf, ≤ npl) combined subset through both engines."""
    result = schedule_ftbar(problem)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    report = validate_schedule(
        schedule, algorithm, problem.architecture,
        # The scheduler expands memories; these workloads have none, so
        # the problem tables apply directly.
        problem.exec_times, problem.comm_times,
    )
    assert report.ok, str(report)
    engine = BatchScenarioEngine(schedule, algorithm)
    simulator = ScheduleSimulator(schedule, algorithm)
    processors, links = schedule.processor_names(), schedule.link_names()
    for n_procs in range(problem.npf + 1):
        for n_links in range(problem.npl + 1):
            for procs in itertools.combinations(processors, n_procs):
                for broken in itertools.combinations(links, n_links):
                    batched = engine.crash_subset_masked(
                        procs, crash_times, links=broken
                    )
                    legacy = all(
                        simulator.run(
                            FailureScenario.resource_crashes(procs, broken, at)
                        ).all_operations_delivered(algorithm)
                        for at in crash_times
                    )
                    assert batched == legacy, (procs, broken)
                    assert batched, f"not masked: {procs} + links {broken}"
    return result


class TestNplZeroBitIdentity:
    def test_documents_carry_no_new_keys(self):
        problem = _uniform(diamond(), fully_connected(3), npf=1)
        result = schedule_ftbar(problem)
        document = schedule_to_dict(result.schedule)
        assert "npl" not in document
        assert all("route" not in comm for comm in document["comms"])
        assert "npl" not in problem_to_dict(problem)

    def test_content_hashes_unchanged_at_npl_zero(self):
        problem = _uniform(diamond(), fully_connected(3), npf=1)
        document = problem_to_dict(problem)
        # The npl = 0 document is exactly the pre-link-tolerance one, so
        # its hash (and every campaign cache entry keyed by it) is too.
        rebuilt = problem_from_dict(document)
        assert rebuilt.npl == 0
        assert problem_content_hash(rebuilt) == problem_content_hash(problem)

    def test_npl_changes_problem_and_schedule_hashes(self):
        plain = _uniform(diamond(), fully_connected(3), npf=1, npl=0)
        tolerant = _uniform(diamond(), fully_connected(3), npf=1, npl=1)
        assert problem_content_hash(plain) != problem_content_hash(tolerant)
        assert schedule_content_hash(
            schedule_ftbar(plain).schedule
        ) != schedule_content_hash(schedule_ftbar(tolerant).schedule)

    def test_options_npl_none_keeps_problem_value(self):
        problem = _uniform(diamond(), fully_connected(3), npf=1, npl=1)
        result = schedule_ftbar(problem, SchedulerOptions())
        assert result.schedule.npl == 1


class TestNplScheduling:
    def test_route_copies_are_link_disjoint_in_the_schedule(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=12),
            "fully_connected", 4, 1, 0.5, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        chains: dict[tuple, set[str]] = {}
        for comm in result.schedule.all_comms():
            key = (
                comm.source, comm.target,
                comm.source_replica, comm.target_replica,
            )
            chains.setdefault(key, set())
        routes: dict[tuple, dict[int, set[str]]] = {}
        for comm in result.schedule.all_comms():
            key = (
                comm.source, comm.target,
                comm.source_replica, comm.target_replica,
            )
            routes.setdefault(key, {}).setdefault(comm.route, set()).add(comm.link)
        assert result.schedule.comm_count() > 0
        for key, by_route in routes.items():
            assert set(by_route) == {0, 1}, f"{key} missing a route copy"
            assert not (by_route[0] & by_route[1]), f"{key} routes share a link"

    def test_problem_npl_replicates_without_duplication(self):
        problem = _uniform(fork_join(3), fully_connected(4), npf=1, npl=1)
        result = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        assert result.schedule.npl == 1
        assert any(c.route == 1 for c in result.schedule.all_comms())

    def test_incremental_and_legacy_engines_identical_at_npl_one(self):
        """The compiled kernel equals the reference engine at npl = 1."""
        for seed in (0, 1):
            problem = build_problem(
                WorkloadSpec(family="random", size=12),
                "fully_connected", 4, 1, 0.5, seed, npl=1,
            )
            fast = schedule_ftbar(problem)
            slow = ftbar_reference(problem)
            assert schedule_to_dict(fast.schedule) == schedule_to_dict(slow.schedule)

    def test_schedule_round_trips_with_routes(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 0, 0.3, 0, npl=1,
        )
        schedule = schedule_ftbar(problem).schedule
        document = schedule_to_dict(schedule)
        assert document["npl"] == 1
        assert any(comm.get("route") == 1 for comm in document["comms"])
        rebuilt = schedule_from_dict(document)
        assert schedule_to_dict(rebuilt) == document
        assert rebuilt.npl == 1

    def test_star_npl_one_is_rejected_with_a_clear_error(self):
        problem = _uniform(diamond(), star(4), npf=0, npl=1)
        with pytest.raises(ArchitectureError, match="only 1 link-disjoint"):
            problem.validate()
        with pytest.raises(ArchitectureError, match="Npl"):
            schedule_ftbar(problem)

    def test_negative_npl_rejected(self):
        from repro.exceptions import SchedulingError

        with pytest.raises(SchedulingError, match="npl"):
            _uniform(diamond(), fully_connected(3), npl=-1)


class TestCombinedCertification:
    """The joint (≤ Npf crashes, ≤ Npl broken links) masking guarantee."""

    def test_fully_connected_combined_npf1_npl1(self):
        for seed in (0, 1, 2):
            problem = build_problem(
                WorkloadSpec(family="random", size=12),
                "fully_connected", 4, 1, 0.5, seed, npl=1,
            )
            result = _assert_combined_masking(problem, crash_times=(0.0, 3.0))
            assert result.schedule.comm_count() > 0 or seed != 0

    def test_ring_link_tolerance_npl1(self):
        for seed in (0, 1):
            problem = build_problem(
                WorkloadSpec(family="random", size=10),
                "ring", 4, 0, 0.3, seed, npl=1,
            )
            result = _assert_combined_masking(problem, crash_times=(0.0, 5.0))
            if seed == 0:
                assert result.schedule.comm_count() > 0

    def test_ring_combined_npf1_npl1_colocated(self):
        # With load-bearing cross-processor comms a 4-ring cannot mask
        # one crash plus one link failure (the pair saturates its Menger
        # bound and isolates a processor); co-location-heavy schedules
        # still certify, which is exactly what the certifier proves.
        problem = _uniform(fork_join(3), ring(4), npf=1, npl=1, comm=2.0)
        _assert_combined_masking(problem)

    def test_reinforced_star_link_tolerance(self):
        problem = _uniform(
            fork_join(3), _reinforced_star(4), npf=0, npl=1, comm=0.4
        )
        result = _assert_combined_masking(problem)
        assert result.schedule.comm_count() > 0

    def test_single_link_failure_is_survived_by_the_backup_route(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 0, 0.3, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        lost_somewhere = False
        for link in schedule.link_names():
            trace = simulate(
                schedule, algorithm, FailureScenario.link_down(link, at=0.0)
            )
            assert trace.all_operations_delivered(algorithm)
            lost_somewhere |= any(
                c.status is EventStatus.LOST for c in trace.comms
            )
        assert lost_somewhere  # the failure really suppressed copies


class TestCombinedCertificateApi:
    def test_certificate_reports_joint_levels_and_verdict(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=12),
            "fully_connected", 4, 1, 0.5, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert certificate.npl == 1
        assert certificate.certified
        level = certificate.level(1, link_failures=1)
        assert level.fully_masked
        assert level.total_subsets == 4 * 6  # C(4,1) procs x C(6,1) links
        assert certificate.level(0, link_failures=0).total_subsets == 1
        with pytest.raises(KeyError):
            certificate.level(0, link_failures=9)

    def test_breaking_combined_subsets_are_reported(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 1, 0.2, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert not certificate.certified
        assert certificate.breaking_combined
        procs, links = certificate.breaking_combined[0]
        assert links  # the link component is what broke it
        assert "link" in str(certificate)

    def test_certificate_batched_matches_legacy_combined(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 1, 0.3, 1, npl=1,
        )
        result = schedule_ftbar(problem)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        batched = fault_tolerance_certificate(schedule, algorithm)
        oracle = certify_oracle.certificate(schedule, algorithm)
        assert batched.to_dict() == oracle.to_dict()
        assert batched.breaking_combined == oracle.breaking_combined

    def test_capped_link_bound_weakens_the_verified_hypothesis(self):
        # --links 0 on an npl=1 schedule enumerates no link scenarios:
        # the certificate must not claim the npl=1 promise vacuously.
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 0, 0.3, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        capped = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, max_link_failures=0
        )
        assert capped.npl == 0
        assert "npl=1" not in str(capped)
        full = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert full.npl == 1

    def test_npl_zero_certificate_shape_is_unchanged(self):
        problem = _uniform(diamond(), fully_connected(3), npf=1)
        result = schedule_ftbar(problem)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert certificate.npl == 0
        assert [level.link_failures for level in certificate.levels] == [0, 0, 0]
        assert "npl" not in str(certificate)


class TestLinkReliability:
    def test_link_probabilities_extend_the_sum(self):
        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 0, 0.3, 0, npl=1,
        )
        result = schedule_ftbar(problem)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        probabilities = {p: 0.02 for p in schedule.processor_names()}
        link_probabilities = {l: 0.05 for l in schedule.link_names()}
        combined = schedule_reliability(
            schedule, algorithm, probabilities,
            link_failure_probabilities=link_probabilities,
        )
        oracle = certify_oracle.reliability(
            schedule, algorithm, probabilities,
            link_failure_probabilities=link_probabilities,
        )
        assert combined.reliability == oracle.reliability
        assert combined.masked_probability_mass == oracle.masked_probability_mass
        assert combined.evaluated_subsets == 2 ** 4 * 2 ** 4
        # Certified npl=1 schedule: reliability covers at least the
        # guaranteed (≤ npf crashes, ≤ npl links) probability mass.
        assert combined.reliability >= combined.guaranteed_lower_bound

    def test_none_keeps_the_processor_only_sum(self):
        problem = _uniform(diamond(), fully_connected(3), npf=1)
        result = schedule_ftbar(problem)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        probabilities = {p: 0.1 for p in schedule.processor_names()}
        with_links_off = schedule_reliability(schedule, algorithm, probabilities)
        assert with_links_off.evaluated_subsets == 2 ** 3
