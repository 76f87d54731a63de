"""One problem per campaign grid point.

The coordinates of a campaign grid that differ only in ``npf`` schedule
the same graph and timing tables.  Expansion builds and encodes each
grid point's problem once and splices each sibling's name and npf into
the canonical text; execution shares one built problem between the
siblings through a bounded per-process memo.  These tests pin the
spliced digests to :func:`job_digest` (and the two-pass oracle), the
build counts, and the memo's bound and sharing.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, WorkloadSpec, run_campaign
from repro.campaign import jobs as jobs_module
from repro.campaign.jobs import (
    GridPoint,
    _job_document,
    build_problem,
    expand_jobs,
    job_digest,
    job_problem,
)
from repro.campaign.spec import FailureSpec, ReliabilitySpec
from repro.core import compile as compile_module
from repro.core.compile import compile_cache_stats, reset_compile_cache
from repro.schedule.serialization import problem_to_dict

from tests.content_hash_oracle import oracle_content_hash


@pytest.fixture(autouse=True)
def cold_memo():
    reset_compile_cache()
    yield
    reset_compile_cache()


def reference_jobs(spec: CampaignSpec, oracle: bool = False) -> list[tuple]:
    """One build and one encoding per coordinate: the plain expansion."""
    reliability = spec.reliability if "reliability" in spec.measures else None
    jobs, seen = [], set()
    for index, coordinate in enumerate(spec.coordinates()):
        workload, topology, processors, npf, npl, ccr, seed = coordinate
        problem = build_problem(
            workload, topology, processors, npf, ccr, seed,
            spec.mean_execution, npl=npl,
        )
        args = (problem, spec.options, spec.measures, spec.failures, reliability)
        digest = job_digest(*args)
        if oracle:
            assert digest == oracle_content_hash("job", _job_document(*args))
        if digest in seen:
            continue
        seen.add(digest)
        jobs.append((index, npf, digest))
    return jobs


def mixed_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="mixed",
        workloads=(
            WorkloadSpec(family="random", size=6),
            WorkloadSpec(family="random", size=5, heterogeneous=True),
            WorkloadSpec(family="gauss", size=3),
            WorkloadSpec(family="in_tree", size=2),
        ),
        topologies=("fully_connected", "ring", "star", "single_bus"),
        processors=(3,),
        npfs=(0, 1, 2),
        npls=(0, 1),
        ccrs=(1.0, 2.5),
        seeds=(7,),
        measures=("ftbar", "non_ft", "reliability"),
        failures=(FailureSpec(processors=(0,), at=1.5),),
        reliability=ReliabilitySpec(),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


RELIABILITY = {
    "defaults": ReliabilitySpec(),
    "off-defaults": ReliabilitySpec(
        probabilities=(0.01, 0.1), crash_times="boundaries",
        max_link_failures=1, link_probability=0.001,
        confidence=0.95, budget=500, seed=3,
    ),
    "absent": None,
}


class TestSplicedDigests:
    @pytest.mark.parametrize("reliability", list(RELIABILITY), ids=list(RELIABILITY))
    def test_equal_job_digest_over_a_mixed_grid(self, reliability):
        spec = mixed_spec(
            reliability=RELIABILITY[reliability],
            measures=(
                ("ftbar", "non_ft")
                if RELIABILITY[reliability] is None
                else ("ftbar", "non_ft", "reliability")
            ),
            options={"duplication": reliability != "defaults"},
        )
        expanded = [(job.index, job.npf, job.digest) for job in expand_jobs(spec)]
        assert expanded == reference_jobs(spec)
        assert len(expanded) == 4 * 4 * 3 * 2 * 2

    def test_equal_the_two_pass_oracle(self):
        spec = mixed_spec(
            workloads=(WorkloadSpec(family="random", size=4),
                       WorkloadSpec(family="butterfly", size=2)),
            topologies=("fully_connected", "star"),
            ccrs=(1.0,),
        )
        expanded = [(job.index, job.npf, job.digest) for job in expand_jobs(spec)]
        assert expanded == reference_jobs(spec, oracle=True)

    def test_duplicate_coordinates_still_collapse(self):
        spec = mixed_spec(
            workloads=(WorkloadSpec(family="gauss", size=3),),
            topologies=("ring",), npls=(0,), ccrs=(1.0,),
            seeds=(7, 7),
        )
        expanded = [(job.index, job.npf, job.digest) for job in expand_jobs(spec)]
        assert expanded == reference_jobs(spec)
        assert [index for index, _, _ in expanded] == [0, 2, 4]

    def test_a_sibling_equals_its_own_build(self):
        point = GridPoint(
            WorkloadSpec(family="gauss", size=3), "star", 4, 1, 2.5, 9, 10.0
        )
        built = point.build(1)
        for npf in (0, 2, 3):
            sibling = point.at_npf(built, npf)
            assert problem_to_dict(sibling) == problem_to_dict(point.build(npf))
            assert sibling.exec_times is built.exec_times


def grid_shaped_spec() -> CampaignSpec:
    """The campaign-grid shape: 48 coordinates, 24 grid points."""
    return CampaignSpec(
        name="grid-shape",
        workloads=(
            WorkloadSpec(family="random", size=10),
            WorkloadSpec(family="gauss", size=4),
            WorkloadSpec(family="butterfly", size=2),
        ),
        topologies=("fully_connected", "ring"),
        processors=(4, 6),
        npfs=(1, 2),
        ccrs=(1.0, 5.0),
        seeds=(1,),
        measures=("ftbar", "non_ft", "reliability"),
        reliability=ReliabilitySpec(),
    )


@pytest.fixture
def build_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(jobs_module, "build_problem", counting)
    return calls


class TestBuildCounts:
    def test_expansion_builds_each_grid_point_once(self, build_calls):
        jobs = expand_jobs(grid_shaped_spec())
        assert len(jobs) == 48
        assert len(build_calls) == 24

    def test_cold_run_builds_each_grid_point_once_per_phase(self, build_calls):
        report = run_campaign(grid_shaped_spec(), backend="serial")
        assert report.executed == 48
        # 24 at expansion, 24 at execution: each npf sibling shares.
        assert len(build_calls) == 48
        stats = compile_cache_stats()
        assert (stats["problem_misses"], stats["problem_hits"]) == (24, 24)


class TestProblemMemo:
    def test_npf_siblings_share_one_table_object(self):
        first, second = (
            job for job in expand_jobs(grid_shaped_spec())
            if job.workload.family == "gauss" and job.topology == "ring"
            and job.processors == 4 and job.ccr == 5.0
        )
        assert (first.npf, second.npf) == (1, 2)
        one, two = job_problem(first), job_problem(second)
        assert one is not two
        assert (one.npf, two.npf) == (1, 2)
        assert one.exec_times is two.exec_times
        assert one.comm_times is two.comm_times
        assert one.algorithm is two.algorithm
        assert problem_to_dict(two) == problem_to_dict(
            build_problem(
                second.workload, second.topology, second.processors,
                second.npf, second.ccr, second.seed, npl=second.npl,
            )
        )

    def test_memo_is_bounded(self):
        cap = compile_module._PROBLEM_CAP
        jobs = expand_jobs(grid_shaped_spec())
        for job in jobs:
            job_problem(job)
            assert len(compile_module._PROBLEM_MEMO) <= cap
        assert len(compile_module._PROBLEM_MEMO) == cap
        reset_compile_cache()
        assert len(compile_module._PROBLEM_MEMO) == 0
