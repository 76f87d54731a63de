"""Adaptive sampled certification agrees with exhaustive truth.

The tentpole contract of the sampled certifier (``analysis/sampling.py``
behind ``fault_tolerance_certificate`` / ``schedule_reliability``):

* on every small instance the auto path is *bit-identical* to the
  exhaustive per-scenario oracle (``tests/certify_oracle.py``);
* sampling (forced by lowering the exact caps to 0) never
  contradicts exhaustive truth — same
  refuted-or-not verdict, and the exhaustive masked fraction /
  reliability lies inside every reported confidence interval;
* closed-form bounds are tight on the structured topologies
  (fc / ring / star): ``min_replicas = npf + 1`` for an FTBAR schedule,
  so level ``npf + 1`` of a targeted hypothesis is refuted without a
  single simulation;
* same seed ⇒ byte-identical certificates at any worker count (the RNG
  streams derive from the schedule content hash, the user seed and the
  stratum label — never from process or host state).
"""

from __future__ import annotations

import math
import random
import warnings

import pytest

from repro.analysis import sampling
from repro.analysis.reliability import (
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.analysis.sampling import (
    ConditionalSubsetSampler,
    analytic_fault_bounds,
    derive_rng,
    poisson_binomial,
    wilson_interval,
)
from repro.core.ftbar import schedule_ftbar
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.simulation.batch import BatchScenarioEngine
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests import certify_oracle
from tests.test_wide_certification_pinned import wide_schedule


def _schedule(processors: int, npf: int = 1, seed: int = 2003,
              operations: int = 12):
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=operations,
            ccr=1.0,
            processors=processors,
            npf=npf,
            seed=seed,
        )
    )
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def _wide_schedule(processors: int, npf: int = 1):
    """A tiny chain on a wide single bus — P far past the cap, cheaply."""
    algorithm = from_dependencies([("I", "A"), ("A", "O")])
    architecture = single_bus(processors)
    problem = ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=ExecutionTimes.uniform(
            algorithm.operation_names(), architecture.processor_names(), 2.0
        ),
        comm_times=CommunicationTimes.uniform(
            algorithm.dependencies(), architecture.link_names(), 1.0
        ),
        npf=npf,
        name=f"wide-{processors}",
    )
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def _levels(certificate):
    return [
        (level.failures, level.link_failures,
         level.masked_subsets, level.total_subsets)
        for level in certificate.levels
    ]


# ----------------------------------------------------------------------
# statistical primitives
# ----------------------------------------------------------------------

class TestIntervals:
    def test_wilson_contains_the_point_estimate(self):
        lo, hi = wilson_interval(90, 100, 0.95)
        assert lo < 0.9 < hi
        assert 0.0 <= lo < hi <= 1.0

    def test_wilson_boundary_counts_stay_nondegenerate(self):
        lo, hi = wilson_interval(100, 100, 0.99)
        assert hi == pytest.approx(1.0) and lo < 1.0
        lo, hi = wilson_interval(0, 100, 0.99)
        assert lo == pytest.approx(0.0) and hi > 0.0

    def test_wilson_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0, 0.99) == (0.0, 1.0)

    def test_higher_confidence_widens(self):
        narrow = wilson_interval(50, 100, 0.90)
        wide = wilson_interval(50, 100, 0.999)
        assert wide[0] < narrow[0] and narrow[1] < wide[1]

    def test_normal_quantile_matches_known_values(self):
        assert sampling.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert sampling.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_poisson_binomial_sums_to_one_and_matches_binomial(self):
        mass = poisson_binomial([0.3] * 5)
        assert sum(mass) == pytest.approx(1.0)
        for k, m in enumerate(mass):
            assert m == pytest.approx(
                math.comb(5, k) * 0.3 ** k * 0.7 ** (5 - k)
            )

    def test_conditional_sampler_draws_exactly_k(self):
        sampler = ConditionalSubsetSampler([0.5, 1.0, 2.0, 0.25, 3.0])
        rng = random.Random(7)
        for k in (1, 2, 3):
            for _ in range(50):
                draw = sampler.draw(k, rng)
                assert len(draw) == k
                assert len(set(draw)) == k

    def test_conditional_sampler_matches_conditional_distribution(self):
        # With odds o_i, P(S | |S|=k) ∝ prod_{i in S} o_i: check the
        # empirical frequencies of all 2-subsets of 4 items.
        odds = [1.0, 2.0, 0.5, 1.5]
        sampler = ConditionalSubsetSampler(odds)
        rng = random.Random(11)
        counts: dict[tuple[int, ...], int] = {}
        trials = 20000
        for _ in range(trials):
            draw = sampler.draw(2, rng)
            counts[draw] = counts.get(draw, 0) + 1
        weights = {
            (i, j): odds[i] * odds[j]
            for i in range(4)
            for j in range(i + 1, 4)
        }
        total = sum(weights.values())
        for subset, weight in weights.items():
            expected = weight / total
            observed = counts.get(subset, 0) / trials
            assert observed == pytest.approx(expected, abs=0.02)

    def test_derive_rng_streams_are_stable_and_distinct(self):
        a = derive_rng("hash", 0, "level:1:0").random()
        b = derive_rng("hash", 0, "level:1:0").random()
        assert a == b
        assert derive_rng("hash", 0, "level:2:0").random() != a
        assert derive_rng("hash", 1, "level:1:0").random() != a
        assert derive_rng("other", 0, "level:1:0").random() != a


# ----------------------------------------------------------------------
# closed-form bounds
# ----------------------------------------------------------------------

class TestAnalyticBounds:
    @pytest.mark.parametrize("topology", [fully_connected, ring, star])
    @pytest.mark.parametrize("npf", [0, 1, 2])
    def test_min_replicas_is_npf_plus_one(self, topology, npf):
        processors = max(4, npf + 2)
        architecture = topology(processors)
        algorithm = from_dependencies([("I", "A"), ("A", "O")])
        problem = ProblemSpec(
            algorithm=algorithm,
            architecture=architecture,
            exec_times=ExecutionTimes.uniform(
                algorithm.operation_names(),
                architecture.processor_names(),
                2.0,
            ),
            comm_times=CommunicationTimes.uniform(
                algorithm.dependencies(), architecture.link_names(), 1.0
            ),
            npf=npf,
            name=f"bounds-{topology.__name__}-{npf}",
        )
        result = schedule_ftbar(problem)
        bounds = analytic_fault_bounds(result.schedule)
        # FTBAR places exactly npf + 1 replicas of every operation on
        # distinct processors — the bound is tight.
        assert bounds.min_replicas == npf + 1
        assert bounds.max_tolerable_processor_faults == npf
        assert len(bounds.processor_witness) == npf + 1
        assert bounds.witness_operation

    def test_witness_subset_actually_breaks_the_schedule(self):
        schedule, algorithm = _schedule(5, npf=1)
        bounds = analytic_fault_bounds(schedule)
        engine = BatchScenarioEngine(schedule, algorithm)
        assert not engine.crash_subset_masked(
            bounds.processor_witness, (0.0,)
        )

    def test_involvement_counts(self):
        schedule, _ = _wide_schedule(20)
        bounds = analytic_fault_bounds(schedule)
        assert bounds.total_processors == 20
        assert bounds.involved_processors <= 20
        assert bounds.involved_processors >= bounds.min_replicas


# ----------------------------------------------------------------------
# exhaustive vs adaptive agreement (the P <= 6 corpus)
# ----------------------------------------------------------------------

CORPUS = [
    (3, 1, 2003), (4, 1, 2003), (4, 2, 7), (5, 1, 7), (6, 1, 2003),
    (6, 2, 11),
]


class TestSmallInstanceAgreement:
    @pytest.mark.parametrize("processors,npf,seed", CORPUS)
    def test_auto_is_bit_identical_to_exact(self, processors, npf, seed):
        schedule, algorithm = _schedule(processors, npf=npf, seed=seed)
        auto = fault_tolerance_certificate(schedule, algorithm)
        exact = certify_oracle.certificate(schedule, algorithm)
        assert auto.to_dict() == exact.to_dict()
        assert auto.breaking_subsets == exact.breaking_subsets
        assert auto.breaking_combined == exact.breaking_combined
        assert auto.method == "exact"
        assert all(level.method == "exact" for level in auto.levels)

    @pytest.mark.parametrize("processors,npf,seed", CORPUS)
    def test_sampled_verdict_agrees_with_exhaustive(
        self, processors, npf, seed
    ):
        schedule, algorithm = _schedule(processors, npf=npf, seed=seed)
        exact = certify_oracle.certificate(schedule, algorithm)
        with certify_oracle.sampled_certificates():
            sampled = fault_tolerance_certificate(schedule, algorithm, seed=1)
        assert (sampled.verdict == "refuted") == (exact.verdict == "refuted")
        # Every exhaustive masked fraction lies inside the level's ci.
        for level in sampled.levels:
            if level.ci is None:
                continue
            truth = exact.level(
                level.failures, level.link_failures
            ).masked_fraction
            assert level.ci[0] - 1e-12 <= truth <= level.ci[1] + 1e-12

    @pytest.mark.parametrize("processors,npf,seed", CORPUS)
    def test_exhaustive_reliability_inside_sampled_ci(
        self, processors, npf, seed
    ):
        schedule, algorithm = _schedule(processors, npf=npf, seed=seed)
        engine = BatchScenarioEngine(schedule, algorithm)
        probabilities = {p: 0.05 for p in schedule.processor_names()}
        exact = schedule_reliability(
            schedule, algorithm, probabilities, engine=engine
        )
        with certify_oracle.sampled_reliability():
            sampled = schedule_reliability(
                schedule, algorithm, probabilities, engine=engine, seed=1
            )
        assert exact.method == "exact" and sampled.method == "sampled"
        lo, hi = sampled.ci
        assert lo - 1e-12 <= exact.reliability <= hi + 1e-12
        assert sampled.exhaustive_subsets == 2 ** processors
        assert (
            sampled.guaranteed_lower_bound
            == pytest.approx(exact.guaranteed_lower_bound)
        )


class TestSampledReliabilityDraws:
    """With ``EXACT_CELL_CAP`` at 0 a ``P <= 12`` reliability sum draws
    samples in every stratum (the default cap enumerates them all)."""

    @pytest.mark.parametrize("processors,npf,seed", [
        (4, 2, 7), (8, 1, 5), (12, 1, 2003),
    ])
    @pytest.mark.parametrize("user_seed", [0, 1, 2])
    def test_draws_are_seeded_and_bracket_the_exact_sum(
        self, monkeypatch, processors, npf, seed, user_seed
    ):
        schedule, algorithm = _schedule(processors, npf=npf, seed=seed)
        probabilities = {p: 0.05 for p in schedule.processor_names()}
        exact = schedule_reliability(schedule, algorithm, probabilities)
        monkeypatch.setattr(sampling, "EXACT_CELL_CAP", 0)
        with certify_oracle.sampled_reliability():
            first, second = (
                schedule_reliability(
                    schedule, algorithm, probabilities, seed=user_seed
                )
                for _ in range(2)
            )
        assert first.method == "sampled" and first.samples > 0
        assert first == second
        lo, hi = first.ci
        assert lo <= exact.reliability <= hi


# ----------------------------------------------------------------------
# past the cap: no warning, quantified output
# ----------------------------------------------------------------------

class TestBeyondTheCap:
    def test_auto_emits_no_cap_warning(self):
        schedule, algorithm = _wide_schedule(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certificate = fault_tolerance_certificate(schedule, algorithm)
        assert certificate.verdict in ("certified", "refuted", "estimated")

    def test_projection_matches_capless_truth(self):
        # P = 16 but only a handful involved: the projected counts must
        # equal what uncapped exhaustive enumeration would find.
        schedule, algorithm = _wide_schedule(16)
        certificate = fault_tolerance_certificate(schedule, algorithm)
        engine = BatchScenarioEngine(schedule, algorithm)
        import itertools
        processors = schedule.processor_names()
        for level in certificate.levels:
            if level.method not in ("exact", "projected"):
                continue
            if math.comb(len(processors), level.failures) > 3000:
                continue
            truth = sum(
                1
                for subset in itertools.combinations(
                    processors, level.failures
                )
                if engine.crash_subset_masked(subset, (0.0,))
            )
            assert level.masked_subsets == truth
            assert level.total_subsets == math.comb(
                len(processors), level.failures
            )

    def test_big_levels_resolved_without_enumeration(self):
        schedule, algorithm = _wide_schedule(40)
        certificate = fault_tolerance_certificate(
            schedule, algorithm, max_failures=3
        )
        populations = {
            level.failures: level.population or level.total_subsets
            for level in certificate.levels
        }
        assert populations[3] == math.comb(40, 3)
        # Every level answered: projected (tiny involved core), bounds
        # (past min_replicas) or sampled — never silently truncated.
        assert all(
            level.method in ("exact", "projected", "bounds", "sampled")
            for level in certificate.levels
        )
        assert certificate.verdict in ("certified", "refuted", "estimated")

    def test_bounds_refute_past_min_replicas_without_simulation(self):
        schedule, algorithm = _wide_schedule(40, npf=1)
        engine = BatchScenarioEngine(schedule, algorithm)
        certificate = fault_tolerance_certificate(
            schedule, algorithm, max_failures=3, engine=engine
        )
        level3 = certificate.level(3)
        if level3.method == "bounds":
            assert level3.refuted
            assert not level3.fully_masked

    def test_sampled_reliability_auto_kicks_in_past_the_cap(self):
        schedule, algorithm = _wide_schedule(16)
        probabilities = {p: 0.01 for p in schedule.processor_names()}
        report = schedule_reliability(schedule, algorithm, probabilities)
        assert report.method == "sampled"
        assert report.ci is not None
        assert report.exhaustive_subsets == 2 ** 16
        lo, hi = report.ci
        assert lo <= report.reliability <= hi
        assert report.guaranteed_lower_bound <= hi + 1e-12



# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_same_certificate(self):
        schedule, algorithm = _schedule(6, npf=1)
        with certify_oracle.sampled_certificates():
            runs = [
                fault_tolerance_certificate(schedule, algorithm, seed=5)
                for _ in range(2)
            ]
        assert _levels(runs[0]) == _levels(runs[1])
        assert [l.ci for l in runs[0].levels] == [l.ci for l in runs[1].levels]
        assert runs[0].breaking_subsets == runs[1].breaking_subsets
        assert runs[0].samples == runs[1].samples
        assert runs[0].to_dict() == runs[1].to_dict()

    def test_different_seed_different_draws(self):
        schedule, algorithm = _schedule(6, npf=1)
        with certify_oracle.sampled_reliability():
            a, b = (
                schedule_reliability(
                    schedule, algorithm,
                    {p: 0.05 for p in schedule.processor_names()},
                    seed=seed, budget=256,
                )
                for seed in (0, 1)
            )
        # Both bracket the truth; the draws (and hence the point
        # estimates) are independent replications.
        assert a.ci is not None and b.ci is not None

    def test_sampled_certificate_reports_the_contract_fields(self):
        schedule, algorithm = _schedule(5, npf=1)
        with certify_oracle.sampled_certificates():
            certificate = fault_tolerance_certificate(
                schedule, algorithm, seed=2, confidence=0.95
            )
        document = certificate.to_dict()
        assert document["method"] == "sampled"
        assert document["confidence"] == 0.95
        assert document["seed"] == 2
        assert document["samples"] == certificate.samples
        assert "ci" in document
        assert any("ci" in level for level in document["levels"])


def _budget_spent_certificate():
    """random_dag P10 npf 2 at ``budget=600``: level 1 spends it all."""
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=12, ccr=1.0, processors=10, npf=2, seed=3
        )
    )
    result = schedule_ftbar(problem)
    with certify_oracle.sampled_certificates():
        return fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, budget=600, seed=0,
        )


class TestBudgetAndMethodLabel:
    def test_certificate_never_draws_past_its_budget(self):
        certificate = _budget_spent_certificate()
        assert certificate.samples == 600
        # Level 1 spends the whole budget; the sampled levels after it
        # draw nothing at all.
        assert [level.samples for level in certificate.levels] == [
            0, 600, 0, 0,
        ]
        assert certificate.levels[2].method == "sampled"
        assert certificate.levels[2].total_subsets == 0

    def test_an_undrawn_level_reports_no_estimate(self):
        """A level the budget never reached has an interval, not a
        made-up point estimate."""
        certificate = _budget_spent_certificate()
        undrawn = certificate.levels[2]
        assert undrawn.samples == 0
        assert undrawn.estimate is None
        assert undrawn.ci == (0.0, 1.0)
        assert certificate.levels[1].estimate == 1.0
        document = certificate.to_dict()["levels"][2]
        assert "estimate" not in document
        assert document["ci"] == [0.0, 1.0]
        assert str(certificate).splitlines()[3] == (
            "  2 crash(es): not sampled (budget spent; sampled 0 of 45 "
            "subsets, ci [0.0000, 1.0000])"
        )
        assert "~50.00%" not in str(certificate)

    def test_exact_and_projected_levels_are_labelled_exact(self):
        schedule, algorithm = _wide_schedule(16, npf=4)
        certificate = fault_tolerance_certificate(schedule, algorithm)
        assert [level.method for level in certificate.levels] == (
            ["exact"] * 5 + ["projected"]
        )
        assert certificate.method == "exact"
        document = certificate.to_dict()
        assert document["method"] == "exact"
        assert "samples" not in document and "seed" not in document
        assert str(certificate).splitlines()[0].endswith(": CERTIFIED")

    def test_a_bounds_level_keeps_the_sampled_label(self):
        # Every processor is involved, so level 3 (C(32, 3) subsets)
        # cannot be projected and the minimum-replica bound refutes it.
        schedule, algorithm = wide_schedule("fully_connected", 32, 2, 0, 48)
        certificate = fault_tolerance_certificate(schedule, algorithm)
        assert certificate.level(3).method == "bounds"
        assert certificate.method == "sampled"
        assert certificate.to_dict()["samples"] == 0


class TestLazyContentHash:
    """The schedule is hashed only when a stream draws a sample."""

    def test_exactly_resolved_p16_requests_never_hash(self, monkeypatch):
        def refuse(schedule):
            raise AssertionError("hashed a schedule no sample needed")

        monkeypatch.setattr(sampling, "schedule_content_hash", refuse)
        # C(16, 5) = 4368 subsets put level 5 past the cap: the
        # certificate takes the sampling path and resolves it by
        # projection; P = 16 > 12 sends the reliability sum there too.
        schedule, algorithm = _wide_schedule(16, npf=4)
        certificate = fault_tolerance_certificate(schedule, algorithm)
        assert certificate.verdict == "certified"
        assert certificate.levels[-1].method == "projected"
        assert certificate.samples == 0
        report = schedule_reliability(
            schedule, algorithm,
            {p: 0.01 for p in schedule.processor_names()},
        )
        assert report.method == "sampled"
        assert report.samples == 0

    def test_drawing_hashes_the_schedule_once(self, monkeypatch):
        calls = []
        real = sampling.schedule_content_hash

        def spy(schedule):
            calls.append(schedule)
            return real(schedule)

        monkeypatch.setattr(sampling, "schedule_content_hash", spy)
        schedule, algorithm = _schedule(6, npf=1)
        with certify_oracle.sampled_certificates():
            certificate = fault_tolerance_certificate(
                schedule, algorithm, seed=5
            )
        assert certificate.samples > 0
        assert calls == [schedule]
