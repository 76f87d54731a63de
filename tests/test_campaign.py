"""Campaign subsystem: determinism, caching, resumability, CLI.

The two properties the subsystem promises (and the ISSUE pins):

* a killed-then-resumed campaign's JSONL store is byte-identical —
  modulo the volatile envelope (timestamps, wall clock, provenance) —
  to an uninterrupted run's store;
* ``jobs=1`` and ``jobs=4`` produce identical result sets on the golden
  corpus seeds, and re-running against the same cache reports 100%
  cache hits without recomputing anything.
"""

import re

import pytest

from repro.analysis.experiments import run_overhead_vs_operations
from repro.campaign import (
    CampaignSpec,
    FailureSpec,
    ResultStore,
    ScheduleCache,
    WorkloadSpec,
    build_problem,
    campaign_from_dict,
    campaign_status,
    campaign_to_dict,
    campaign_report,
    expand_jobs,
    load_campaign,
    run_campaign,
    save_campaign,
)
from repro.cli import main
from repro.exceptions import SerializationError
from repro.schedule.serialization import (
    problem_content_hash,
    schedule_content_hash,
)
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests.experiments_oracle import overheads_for_problem


def golden_spec(**overrides) -> CampaignSpec:
    """Three workload families x two topologies x the golden corpus seeds."""
    values = dict(
        name="golden",
        workloads=(
            WorkloadSpec(family="random", size=18),
            WorkloadSpec(family="in_tree", size=2),
            WorkloadSpec(family="gauss", size=3),
        ),
        topologies=("fully_connected", "single_bus"),
        processors=(4,),
        npfs=(1,),
        ccrs=(1.0,),
        seeds=(1, 2, 3),
        measures=("ftbar", "non_ft", "degraded"),
        failures=(FailureSpec(processors=(0,)),),
    )
    values.update(overrides)
    return CampaignSpec(**values)


class TestSpec:
    def test_round_trip(self, tmp_path):
        spec = golden_spec()
        path = tmp_path / "spec.json"
        save_campaign(spec, path)
        assert load_campaign(path) == spec

    def test_dict_round_trip_preserves_failures_and_options(self):
        spec = golden_spec(options={"duplication": False})
        rebuilt = campaign_from_dict(campaign_to_dict(spec))
        assert rebuilt.failures == spec.failures
        assert not rebuilt.scheduler_options().duplication

    def test_unknown_family_rejected(self):
        with pytest.raises(SerializationError):
            WorkloadSpec(family="mystery", size=4)

    def test_unknown_topology_rejected(self):
        with pytest.raises(SerializationError):
            golden_spec(topologies=("torus",))

    def test_unknown_measure_rejected(self):
        with pytest.raises(SerializationError):
            golden_spec(measures=("ftbar", "latency"))

    def test_unknown_scheduler_option_rejected(self):
        with pytest.raises(SerializationError):
            golden_spec(options={"turbo": True})

    @pytest.mark.parametrize(
        "option", ["incremental", "compiled", "link_insertion", "sweep_workers"]
    )
    def test_removed_engine_switches_rejected(self, option):
        # The engine follows from the input; the old switches are
        # unknown options, not a TypeError from SchedulerOptions.
        document = campaign_to_dict(golden_spec())
        document["options"] = {option: False}
        with pytest.raises(
            SerializationError,
            match=rf"^unknown scheduler options: \['{option}'\]$",
        ):
            campaign_from_dict(document)

    @pytest.mark.parametrize(
        "value",
        [1, 0, None, "1", True, -1],
        ids=["one", "zero", "null", "string", "bool", "negative"],
    )
    def test_npl_option_rejected(self, value):
        # Npl is part of the problem (the npls axis), not an option.
        document = campaign_to_dict(golden_spec())
        document["options"] = {"npl": value, "symmetry": False}
        with pytest.raises(
            SerializationError,
            match=r"^unknown scheduler options: \['npl'\]$",
        ):
            campaign_from_dict(document)

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"processor_aware_pressure": 1},
             "'options.processor_aware_pressure' must be a boolean, got 1"),
            ({"processor_aware_pressure": None},
             "'options.processor_aware_pressure' must be a boolean, got None"),
            ({"symmetry": "yes"},
             "'options.symmetry' must be a boolean, got 'yes'"),
            ({"duplication": "no"},
             "'options.duplication' must be a boolean, got 'no'"),
            ({"symmetry": 0}, "'options.symmetry' must be a boolean, got 0"),
        ],
    )
    def test_option_values_type_checked(self, options, message):
        document = campaign_to_dict(golden_spec())
        document["options"] = options
        with pytest.raises(SerializationError, match=re.escape(message)):
            campaign_from_dict(document)

    def test_gauss_size_one_rejected(self):
        # gauss needs a >= 2x2 matrix; clamping would silently collapse
        # the size=1 and size=2 grid points into one job.
        with pytest.raises(SerializationError):
            WorkloadSpec(family="gauss", size=1)

    def test_grid_size(self):
        assert golden_spec().grid_size == 3 * 2 * 1 * 1 * 1 * 3


class TestContentHash:
    def test_problem_hash_insensitive_to_insertion_order(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=6, ccr=1.0, processors=3, npf=1, seed=7)
        )
        # Rebuild the same problem with operations/timing inserted in
        # reverse order: the dumps differ byte-wise, the hashes must not.
        from repro.graphs.algorithm import AlgorithmGraph
        from repro.problem import ProblemSpec
        from repro.timing.comm_times import CommunicationTimes
        from repro.timing.exec_times import ExecutionTimes

        algorithm = AlgorithmGraph(problem.algorithm.name)
        for name in reversed(problem.algorithm.operation_names()):
            algorithm.add_operation(name)
        for source, target in reversed(problem.algorithm.dependencies()):
            algorithm.add_dependency(
                source, target, problem.algorithm.data_size(source, target)
            )
        exec_times = ExecutionTimes()
        for (op, proc), t in reversed(list(problem.exec_times.entries().items())):
            exec_times.set(op, proc, t)
        comm_times = CommunicationTimes()
        for (edge, link), t in reversed(list(problem.comm_times.entries().items())):
            comm_times.set(edge, link, t)
        shuffled = ProblemSpec(
            algorithm=algorithm,
            architecture=problem.architecture,
            exec_times=exec_times,
            comm_times=comm_times,
            npf=problem.npf,
            rtc=problem.rtc,
            name=problem.name,
        )
        assert problem_content_hash(shuffled) == problem_content_hash(problem)

    def test_problem_hash_sensitive_to_content(self):
        one = generate_problem(
            RandomWorkloadConfig(operations=6, ccr=1.0, processors=3, npf=1, seed=7)
        )
        other = generate_problem(
            RandomWorkloadConfig(operations=6, ccr=1.0, processors=3, npf=2, seed=7)
        )
        assert problem_content_hash(one) != problem_content_hash(other)

    def test_schedule_hash_is_hex_sha256(self):
        from repro.core.ftbar import schedule_ftbar

        problem = build_problem(WorkloadSpec("in_tree", 2), "fully_connected", 3, 1, 1.0, 0)
        digest = schedule_content_hash(schedule_ftbar(problem).schedule)
        assert len(digest) == 64
        int(digest, 16)


class TestExpansion:
    def test_deterministic_order_and_digests(self):
        jobs_a = expand_jobs(golden_spec())
        jobs_b = expand_jobs(golden_spec())
        assert [j.digest for j in jobs_a] == [j.digest for j in jobs_b]
        assert [j.index for j in jobs_a] == sorted(j.index for j in jobs_a)

    def test_duplicate_grid_points_collapse(self):
        spec = golden_spec(seeds=(1, 1, 2))
        jobs = expand_jobs(spec)
        assert spec.grid_size == 3 * 2 * 3
        assert len(jobs) == 3 * 2 * 2  # the repeated seed never runs twice

    def test_random_fully_connected_matches_legacy_generator(self):
        job_problem = build_problem(
            WorkloadSpec(family="random", size=18), "fully_connected", 4, 1, 1.0, 2
        )
        legacy = generate_problem(
            RandomWorkloadConfig(operations=18, ccr=1.0, processors=4, npf=1, seed=2)
        )
        assert problem_content_hash(job_problem) == problem_content_hash(legacy)


class TestRunDeterminism:
    @pytest.fixture(scope="class")
    def runs(self):
        spec = golden_spec()
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=4)
        return spec, serial, parallel

    def test_jobs1_and_jobs4_identical_result_sets(self, runs):
        _, serial, parallel = runs
        assert serial.records == parallel.records
        assert serial.executed == parallel.executed == serial.total_jobs

    def test_failure_injection_is_masked_under_npf1(self, runs):
        _, serial, _ = runs
        for record in serial.records.values():
            for entry in record["failures"]:
                assert entry["delivered"] is True

    def test_out_of_range_failure_scenario_is_skipped_whole(self):
        # A scenario naming a processor the architecture lacks must be
        # skipped, not silently weakened to its in-range subset.
        spec = golden_spec(
            workloads=(WorkloadSpec(family="in_tree", size=2),),
            topologies=("fully_connected",),
            seeds=(1,),
            failures=(FailureSpec(processors=(0, 7)),),
        )
        report = run_campaign(spec, jobs=1)
        (record,) = report.records.values()
        (entry,) = record["failures"]
        assert entry["skipped"] is True
        assert entry["processors"] == []
        assert entry["delivered"] is None

    def test_records_in_order_follow_grid(self, runs):
        spec, serial, _ = runs
        names = [r["problem"] for r in serial.records_in_order()]
        assert len(names) == len(expand_jobs(spec))


class TestStoreAndResume:
    def test_killed_then_resumed_store_matches_uninterrupted(self, tmp_path):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="random", size=10),),
            topologies=("fully_connected",),
        )
        full_store = ResultStore(tmp_path / "full.jsonl")
        run_campaign(spec, jobs=1, store=full_store)

        # Simulate a kill after 1 completed job: truncate, then resume.
        lines = (tmp_path / "full.jsonl").read_text().splitlines(keepends=True)
        resumed_path = tmp_path / "resumed.jsonl"
        resumed_path.write_text("".join(lines[:1]))
        report = run_campaign(
            spec, jobs=1, store=ResultStore(resumed_path), resume=True
        )
        assert report.resumed == 1
        assert report.executed == len(lines) - 1
        assert (
            ResultStore(resumed_path).diffable_lines()
            == full_store.diffable_lines()
        )

    def test_torn_tail_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append("a" * 64, {"problem": "x"})
        with open(store.path, "a") as handle:
            handle.write('{"digest": "b", "rec')  # the kill landed mid-write
        assert store.digests() == {"a" * 64}

    def test_append_after_torn_tail_repairs_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append("a" * 64, {"problem": "x"})
        with open(store.path, "a") as handle:
            handle.write('{"digest": "b", "rec')
        store.append("c" * 64, {"problem": "y"})
        store.append("d" * 64, {"problem": "z"})
        # The torn fragment is gone, every surviving line readable.
        assert store.digests() == {"a" * 64, "c" * 64, "d" * 64}
        assert len(list(store.lines())) == 3

    def test_corrupt_middle_line_skipped_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append("a" * 64, {"problem": "x"})
        with open(store.path, "a") as handle:
            handle.write("garbage\n")
        store.append("b" * 64, {"problem": "y"})
        lines = list(store.lines())
        assert [line["digest"] for line in lines] == ["a" * 64, "b" * 64]
        assert store.corrupt_lines == [{"line": 2, "chars": len("garbage")}]
        assert store.digests() == {"a" * 64, "b" * 64}

    def test_resume_without_prior_store_runs_everything(self, tmp_path):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="in_tree", size=2),),
            topologies=("fully_connected",),
            seeds=(1,),
        )
        report = run_campaign(
            spec, jobs=1, store=tmp_path / "s.jsonl", resume=True
        )
        assert report.resumed == 0 and report.executed == 1


class TestCache:
    def test_second_run_is_all_cache_hits_with_identical_store(self, tmp_path):
        spec = golden_spec()
        cache = ScheduleCache(tmp_path / "cache")
        first = run_campaign(spec, jobs=2, store=tmp_path / "a.jsonl", cache=cache)
        second = run_campaign(spec, jobs=2, store=tmp_path / "b.jsonl", cache=cache)
        assert first.executed == first.total_jobs
        assert second.cache_hits == second.total_jobs
        assert second.executed == 0
        assert ResultStore(tmp_path / "a.jsonl").load() == ResultStore(
            tmp_path / "b.jsonl"
        ).load()

    def test_cache_entry_contains_schedule(self, tmp_path):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="gauss", size=3),),
            topologies=("fully_connected",),
            seeds=(1,),
        )
        cache = ScheduleCache(tmp_path / "cache")
        report = run_campaign(spec, jobs=1, cache=cache)
        (digest,) = report.records
        entry = cache.get(digest)
        assert entry["schedule"]["operations"]
        assert entry["record"] == report.records[digest]

    def test_corrupt_entry_is_a_miss_and_recomputed(self, tmp_path):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="in_tree", size=2),),
            topologies=("fully_connected",),
            seeds=(1,),
        )
        cache = ScheduleCache(tmp_path / "cache")
        report = run_campaign(spec, jobs=1, cache=cache)
        (digest,) = report.records
        cache.path_for(digest).write_text("{ torn")
        again = run_campaign(spec, jobs=1, cache=cache)
        assert again.executed == 1 and again.cache_hits == 0
        assert cache.get(digest)["record"] == report.records[digest]

    def test_len_counts_entries(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        assert len(cache) == 0
        cache.put("ab" + "0" * 62, {"digest": "ab" + "0" * 62})
        assert len(cache) == 1


class TestStatusAndReport:
    def test_status_counts_pending(self, tmp_path):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="random", size=8),),
            topologies=("fully_connected",),
        )
        store = ResultStore(tmp_path / "s.jsonl")
        status = campaign_status(spec, store)
        assert status.done == 0 and status.pending == 3
        run_campaign(spec, jobs=1, store=store)
        status = campaign_status(spec, store)
        assert status.done == 3 and status.pending == 0
        assert "3/3" in status.summary()

    def test_report_aggregates_by_family_and_topology(self, tmp_path):
        spec = golden_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(spec, jobs=1, store=store)
        text = campaign_report(spec, store)
        for family in ("random", "in_tree", "gauss"):
            assert family in text
        for topology in ("fully_connected", "single_bus"):
            assert topology in text
        assert "delivered" in text

    def test_report_on_empty_store(self, tmp_path):
        spec = golden_spec()
        text = campaign_report(spec, ResultStore(tmp_path / "none.jsonl"))
        assert "no recorded results" in text


class TestSweepsThroughCampaign:
    def test_figure9_point_matches_direct_measurement(self):
        """The campaign path reproduces the legacy per-graph numbers."""
        counts, graphs, seed = (8,), 2, 11
        sweep = run_overhead_vs_operations(
            operation_counts=counts, ccr=5.0, graphs_per_point=graphs, seed=seed
        )
        direct = [
            overheads_for_problem(
                generate_problem(
                    RandomWorkloadConfig(
                        operations=8, ccr=5.0, processors=4, npf=1,
                        seed=seed + 1000 * index + 8,
                    )
                )
            )
            for index in range(graphs)
        ]
        point = sweep.points[0]
        assert point.ftbar_absence == pytest.approx(
            sum(m.ftbar_absence for m in direct) / graphs, abs=0
        )
        assert point.hbp_absence == pytest.approx(
            sum(m.hbp_absence for m in direct) / graphs, abs=0
        )

    def test_figure9_jobs_parameter_changes_nothing(self):
        kwargs = dict(
            operation_counts=(8,), ccr=5.0, graphs_per_point=2, seed=11
        )
        assert run_overhead_vs_operations(**kwargs) == run_overhead_vs_operations(
            **kwargs, jobs=3
        )

    def test_interrupted_campaign_aborts_the_sweep(self, monkeypatch):
        from repro.campaign import runner

        def interrupted(spec, **kwargs):
            report = runner.CampaignReport(
                name=spec.name, grid_size=spec.grid_size, total_jobs=1
            )
            report.interrupted = True
            return report

        monkeypatch.setattr(runner, "run_campaign", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_overhead_vs_operations(
                operation_counts=(8,), graphs_per_point=1, seed=11
            )

    def test_jobs_zero_resolves_to_cpu_count(self):
        spec = golden_spec(
            workloads=(WorkloadSpec(family="in_tree", size=2),),
            topologies=("fully_connected",),
            seeds=(1,),
        )
        report = run_campaign(spec, jobs=0)
        assert report.executed == 1


class TestCampaignCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        save_campaign(
            golden_spec(
                workloads=(WorkloadSpec(family="random", size=8),),
                topologies=("fully_connected",),
                seeds=(1, 2),
                measures=("ftbar", "non_ft"),
                failures=(),
            ),
            path,
        )
        return path

    def test_run_status_report(self, spec_path, capsys):
        assert main(["campaign", "run", str(spec_path), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2/2 jobs" in out
        assert (spec_path.parent / "spec-results.jsonl").exists()

        assert main(["campaign", "status", str(spec_path)]) == 0
        assert "2/2 jobs done" in capsys.readouterr().out

        assert main(["campaign", "report", str(spec_path)]) == 0
        assert "random" in capsys.readouterr().out

    def test_second_run_reports_full_cache_hits(self, spec_path, capsys):
        main(["campaign", "run", str(spec_path), "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "run", str(spec_path), "--quiet"]) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out
        # Cache-served reruns must not grow the result store.
        store = spec_path.parent / "spec-results.jsonl"
        assert len(store.read_text().splitlines()) == 2
        main(["campaign", "run", str(spec_path), "--quiet"])
        assert len(store.read_text().splitlines()) == 2

    def test_no_cache_flag_recomputes(self, spec_path, capsys):
        main(["campaign", "run", str(spec_path), "--quiet", "--no-cache"])
        capsys.readouterr()
        main(["campaign", "run", str(spec_path), "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert "cache hits: 0/2" in out
        assert not (spec_path.parent / ".schedule-cache").exists()

    def test_resume_skips_recorded_jobs(self, spec_path, capsys):
        main(["campaign", "run", str(spec_path), "--quiet", "--no-cache"])
        capsys.readouterr()
        assert (
            main(["campaign", "run", str(spec_path), "--quiet", "--no-cache", "--resume"])
            == 0
        )
        assert "resumed: 2" in capsys.readouterr().out

    def test_bench_jobs_flag(self, capsys):
        assert main(["bench", "figure9", "--graphs", "1", "--jobs", "2"]) == 0
        assert "Figure 9" in capsys.readouterr().out


class TestExampleSpecs:
    @pytest.mark.parametrize(
        "name,expected_jobs",
        [("campaign_smoke.json", 8), ("campaign_grid.json", 48)],
    )
    def test_shipped_specs_expand(self, name, expected_jobs):
        from pathlib import Path

        spec = load_campaign(Path(__file__).parent.parent / "examples" / name)
        assert len(expand_jobs(spec)) == expected_jobs
