"""The non-FT baseline memo: FTBAR at ``Npf = 0`` runs once per content.

The baseline of section 6.2 depends on the problem's content, not on
its ``Npf``, so :func:`non_fault_tolerant_makespan` keeps its makespan
per (content key, effective npf/npl, options).  These tests pin that a
memoized value always equals a fresh :func:`schedule_non_fault_tolerant`
run, that a campaign's npf axis computes it once, and that every input
the baseline depends on keys it.
"""

import statistics

import pytest

from repro import obs
from repro.analysis.experiments import NpfPoint, overhead_percent, run_npf_sweep
from repro.baselines.list_scheduler import (
    non_fault_tolerant_makespan,
    schedule_non_fault_tolerant,
)
from repro.campaign import (
    CampaignSpec,
    WorkloadSpec,
    expand_jobs,
    job_problem,
    run_campaign,
)
from repro.campaign.jobs import _execute, build_problem
from repro.core.compile import compile_cache_stats, reset_compile_cache
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem


@pytest.fixture(autouse=True)
def cold_memo():
    reset_compile_cache()
    yield
    reset_compile_cache()


def memo_counts() -> tuple[int, int]:
    stats = compile_cache_stats()
    return stats["baseline_misses"], stats["baseline_hits"]


def problem(topology="fully_connected", npf=1, ccr=1.0, seed=3, npl=0):
    return build_problem(
        WorkloadSpec(family="random", size=12), topology, 4, npf, ccr, seed,
        npl=npl,
    )


class TestCampaignRecords:
    @pytest.mark.parametrize("duplication", [True, False], ids=["dup", "nodup"])
    def test_records_equal_fresh_runs(self, duplication):
        spec = CampaignSpec(
            name="baseline-memo",
            workloads=(
                WorkloadSpec(family="random", size=12),
                WorkloadSpec(family="gauss", size=4),
            ),
            topologies=("fully_connected", "ring"),
            processors=(4,),
            npfs=(1, 2),
            ccrs=(1.0, 5.0),
            seeds=(5,),
            measures=("ftbar", "non_ft"),
            options={"duplication": duplication},
        )
        report = run_campaign(spec, backend="serial")
        assert report.completed == len(report.jobs) == 16
        assert memo_counts() == (8, 8)
        for job, record in zip(report.jobs, report.records_in_order()):
            reset_compile_cache()
            fresh = schedule_non_fault_tolerant(
                job_problem(job), job.scheduler_options()
            )
            assert record["non_ft"]["makespan"] == fresh.makespan

    def test_grid_shaped_run_shares_the_npf_axis(self):
        # The campaign-grid shape: 3 workloads x 2 topologies x 2
        # processor counts x 2 ccrs x npfs {1, 2} = 48 jobs, 24 contents.
        spec = CampaignSpec(
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
            measures=("ftbar", "non_ft"),
        )
        report = run_campaign(spec, backend="serial")
        assert report.completed == 48
        assert memo_counts() == (24, 24)

    def test_job_baseline_span_names_the_memo_outcome(self):
        spec = CampaignSpec(
            name="span-attr",
            workloads=(WorkloadSpec(family="random", size=10),),
            topologies=("fully_connected",),
            processors=(4,),
            npfs=(1, 2),
            ccrs=(1.0,),
            seeds=(2,),
            measures=("ftbar", "non_ft"),
        )
        outcomes = []
        for job in expand_jobs(spec):
            exporter = obs.ListExporter()
            tracer = obs.Tracer(exporter, meta={})
            with obs.scoped(tracer):
                _execute(job, tracer)
            (span,) = [
                line for line in exporter.lines
                if line.get("name") == "job.baseline"
            ]
            assert span["attrs"]["kind"] == "non_ft"
            outcomes.append(span["attrs"]["memo"])
        assert outcomes == ["miss", "hit"]


class TestKey:
    def test_npf_and_rebuilt_objects_hit(self):
        first = non_fault_tolerant_makespan(problem(npf=1))
        assert non_fault_tolerant_makespan(problem(npf=2)) == first
        assert non_fault_tolerant_makespan(problem(npf=1)) == first
        assert memo_counts() == (1, 2)

    @pytest.mark.parametrize(
        "variant",
        [
            lambda: (problem(), SchedulerOptions(duplication=False)),
            lambda: (problem(), SchedulerOptions(processor_aware_pressure=True)),
            lambda: (problem(topology="ring"), None),
            lambda: (problem(ccr=5.0), None),
            lambda: (problem(seed=4), None),
        ],
        ids=["duplication", "aware", "topology", "ccr", "seed"],
    )
    def test_each_input_misses(self, variant):
        non_fault_tolerant_makespan(problem())
        assert memo_counts() == (1, 0)
        variant_problem, options = variant()
        value = non_fault_tolerant_makespan(variant_problem, options)
        assert memo_counts() == (2, 0)
        reset_compile_cache()
        assert value == schedule_non_fault_tolerant(
            variant_problem, options
        ).makespan

    def test_effective_npl_keys_the_memo(self):
        # The baseline runs at npl 0: a problem with npl 1 shares the
        # plain problem's entry and its value.
        base = non_fault_tolerant_makespan(problem())
        assert non_fault_tolerant_makespan(problem(npl=1)) == base
        assert memo_counts() == (1, 1)
        reset_compile_cache()
        fresh = schedule_non_fault_tolerant(problem(npl=1))
        assert fresh.makespan == base == 56.41018271295942

    def test_reset_empties_the_memo(self):
        non_fault_tolerant_makespan(problem())
        non_fault_tolerant_makespan(problem())
        assert memo_counts() == (1, 1)
        reset_compile_cache()
        assert memo_counts() == (0, 0)
        non_fault_tolerant_makespan(problem())
        assert memo_counts() == (1, 0)

    def test_full_result_stays_fresh(self):
        value = non_fault_tolerant_makespan(problem())
        first = schedule_non_fault_tolerant(problem())
        second = schedule_non_fault_tolerant(problem())
        assert first.schedule is not second.schedule
        assert first.makespan == second.makespan == value
        assert memo_counts() == (1, 0)


class TestNpfSweep:
    def test_output_unchanged_with_one_baseline_per_graph(self):
        npfs, graphs = (0, 1, 2), 3
        kwargs = dict(operations=10, processors=4, graphs_per_point=graphs)
        points = run_npf_sweep(npfs, **kwargs)
        assert memo_counts() == (graphs, graphs * (len(npfs) - 1))
        expected = []
        for npf in npfs:
            overheads, makespans = [], []
            for index in range(graphs):
                generated = generate_problem(
                    RandomWorkloadConfig(
                        operations=10, ccr=1.0, processors=4, npf=npf,
                        heterogeneous=True, seed=2003 + 1000 * index,
                    )
                )
                reset_compile_cache()
                non_ft = schedule_non_fault_tolerant(generated).makespan
                result = schedule_ftbar(generated)
                overheads.append(overhead_percent(result.makespan, non_ft))
                makespans.append(result.makespan)
            expected.append(
                NpfPoint(
                    npf=npf,
                    overhead=statistics.fmean(overheads),
                    makespan=statistics.fmean(makespans),
                    graphs=graphs,
                )
            )
        assert points == expected


def _baseline_corpus():
    """Memories, npl 1 and every topology, npf 1 and 2."""
    from repro.workloads.paper_example import build_problem as paper_problem

    yield "paper-memories", paper_problem()
    yield "paper-memories-npf2", paper_problem(npf=2)
    cases = [
        ("random", "fully_connected", 1, 0),
        ("random", "fully_connected", 2, 1),
        ("gauss", "ring", 1, 1),
        ("random", "ring", 2, 0),
        ("butterfly", "star", 1, 0),
        ("random", "single_bus", 2, 0),
    ]
    for index, (family, topology, npf, npl) in enumerate(cases):
        workload = WorkloadSpec(family=family, size=10 if family == "random" else 3)
        yield (
            f"{family}-{topology}-npf{npf}-npl{npl}",
            build_problem(workload, topology, 4, npf, 2.0, 60 + index, npl=npl),
        )


class TestMakespanOnly:
    """The memoized baseline reads the kernel's makespan: no events."""

    @pytest.mark.parametrize(
        "options",
        [None, SchedulerOptions(duplication=False)],
        ids=["default", "nodup"],
    )
    def test_equals_the_full_run_and_places_no_event(self, monkeypatch, options):
        from repro.schedule.schedule import Schedule

        def refuse(*args, **kwargs):
            raise AssertionError("the baseline placed a Schedule event")

        corpus = list(_baseline_corpus())
        values = {}
        with monkeypatch.context() as patch:
            patch.setattr(Schedule, "place_operation", refuse)
            patch.setattr(Schedule, "place_comm", refuse)
            for label, problem in corpus:
                values[label] = non_fault_tolerant_makespan(problem, options)
        for label, problem in corpus:
            reset_compile_cache()
            assert values[label] == schedule_non_fault_tolerant(
                problem, options
            ).makespan, label
