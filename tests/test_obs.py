"""The observability layer: spans, metrics, traces — and its contracts.

The two contracts everything else leans on:

* **off-by-default** — without ``--trace`` / ``REPRO_TRACE`` the
  process tracer is ``None`` and instrumented code runs the no-op
  path;
* **determinism-safety** — telemetry observes and never feeds back:
  with tracing on (and with symmetry pruning on), schedules, counters
  and observer streams are bit-identical to a plain unpruned run.

Plus the campaign satellites: job documents keep their ``timing``
schema, their records carry no ``events`` key, and a warning raised
inside a job still reaches the caller.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    WorkloadSpec,
    expand_jobs,
    load_campaign,
    run_campaign,
)
from repro.campaign.jobs import execute_job, job_problem
from repro.cli import main
from repro.core.compile import reset_compile_cache
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.obs import render
from repro.schedule.serialization import schedule_content_hash
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Every test starts and ends with tracing off and fresh metrics."""
    obs.disable(snapshot=False)
    obs.metrics.reset()
    yield
    obs.disable(snapshot=False)
    obs.metrics.reset()


def smoke_problem(operations: int = 24, npf: int = 1, seed: int = 11):
    return generate_problem(
        RandomWorkloadConfig(
            operations=operations,
            ccr=1.0,
            processors=4,
            npf=npf,
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# spans / exporter / schema
# ----------------------------------------------------------------------

class TestSpans:
    def test_off_by_default(self):
        assert obs.tracer() is None
        assert not obs.enabled()
        assert obs.span("anything") is obs.NOOP_SPAN

    def test_noop_span_is_reentrant_singleton(self):
        span = obs.span("x")
        with span as inner:
            assert inner is obs.NOOP_SPAN
            assert inner.set(key="value") is obs.NOOP_SPAN

    def test_span_tree_and_meta(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter, meta={"command": "test"})
        with tracer.span("root") as root:
            with tracer.span("child", step=1):
                pass
        lines = exporter.lines
        assert lines[0]["type"] == "meta"
        assert lines[0]["schema"] == obs.SCHEMA_NAME
        child, parent = lines[1], lines[2]
        assert child["name"] == "child"
        assert child["parent"] == parent["id"]
        assert parent["name"] == "root"
        assert "parent" not in parent
        assert child["dur"] <= parent["dur"]
        assert root.id == parent["id"]

    def test_event_binds_to_current_span(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with tracer.span("outer") as outer:
            tracer.event("warn.something", detail=3)
        event = next(l for l in exporter.lines if l["type"] == "event")
        assert event["span"] == outer.id
        assert event["attrs"] == {"detail": 3}

    def test_aggregate_span_shape(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with tracer.span("run"):
            tracer.aggregate("hot.phase", 0.25, 40)
        agg = next(l for l in exporter.lines if "agg" in l)
        assert agg["dur"] == 0.25
        assert agg["agg"] == {"count": 40}
        assert "t0" not in agg and "t1" not in agg

    def test_span_records_exception(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = next(l for l in exporter.lines if l["type"] == "span")
        assert span["attrs"]["error"] == "ValueError"

    def test_enable_disable_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(path, meta={"command": "unit"})
        assert obs.enabled()
        with obs.span("cli.unit"):
            obs.event("ping")
        obs.disable()
        assert not obs.enabled()
        lines = obs.read_trace(path)
        assert obs.validate_trace(lines) == []
        assert lines[-1]["type"] == "metrics"

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(path)
        with obs.span("work"):
            pass
        obs.disable()
        with path.open("a") as handle:
            handle.write('{"type": "span", "v": 1, "na')  # torn write
        lines = obs.read_trace(path)
        assert lines[0]["type"] == "meta"
        assert all(isinstance(line, dict) for line in lines)


class TestSchema:
    def test_valid_lines_validate_clean(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with tracer.span("a", note="x"):
            tracer.event("e")
            tracer.aggregate("agg", 0.1, 3)
        tracer.snapshot(obs.metrics.snapshot())
        assert obs.validate_trace(exporter.lines) == []

    def test_unknown_key_is_rejected(self):
        errors = obs.validate_line(
            {"type": "event", "v": 1, "name": "e", "t": 0.0, "bogus": 1}
        )
        assert any("bogus" in e for e in errors)

    def test_missing_required_key_is_rejected(self):
        errors = obs.validate_line({"type": "span", "v": 1, "name": "s"})
        assert errors

    def test_newer_version_is_accepted(self):
        line = {"type": "span", "v": obs.SCHEMA_VERSION + 1, "weird": True}
        assert obs.validate_line(line) == []

    def test_stream_must_start_with_meta(self):
        lines = [{"type": "span", "v": 1, "name": "s", "id": 1, "dur": 0.0}]
        assert any("meta" in e for e in obs.validate_trace(lines))

    def test_dangling_parent_is_reported(self):
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with tracer.span("a"):
            pass
        lines = exporter.lines + [
            {"type": "span", "v": 1, "name": "b", "id": 99,
             "dur": 0.0, "parent": 42}
        ]
        assert any("dangling" in e for e in obs.validate_trace(lines))


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = obs.MetricsRegistry()
        registry.inc("jobs")
        registry.inc("jobs", 2)
        registry.gauge("pending", 5)
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["jobs"] == 3
        assert snapshot["gauges"]["pending"] == 5
        assert snapshot["histograms"]["latency"] == {
            "count": 2, "sum": 2.0, "min": 0.5, "max": 1.5,
        }

    def test_labels_make_series(self):
        registry = obs.MetricsRegistry()
        registry.inc("jobs", topology="ring", npf=1)
        assert "jobs{npf=1,topology=ring}" in registry.snapshot()["counters"]

    def test_collectors_pull_on_snapshot(self):
        registry = obs.MetricsRegistry()
        registry.register_collector("source", lambda: {"value": 7})
        assert registry.snapshot()["collected"]["source"] == {"value": 7}
        registry.unregister_collector("source")
        assert registry.snapshot()["collected"] == {}

    def test_failing_collector_is_isolated(self):
        registry = obs.MetricsRegistry()

        def explode():
            raise RuntimeError("broken source")

        registry.register_collector("bad", explode)
        registry.register_collector("good", lambda: {"ok": 1})
        collected = registry.snapshot()["collected"]
        assert collected["good"] == {"ok": 1}
        assert "broken source" in collected["bad"]["error"]

    def test_repo_collectors_registered(self):
        collected = obs.metrics.snapshot()["collected"]
        assert "compile_cache" in collected
        assert "batch_sim" in collected
        assert "core_hits" in collected["compile_cache"]
        assert {"max_flows", "network_builds", "memo_hits"} <= set(collected["routing"])


# ----------------------------------------------------------------------
# determinism: telemetry observes, never feeds back
# ----------------------------------------------------------------------

class TestDeterminism:
    def run_problem(self, options, observer=None):
        reset_compile_cache()
        return schedule_ftbar(smoke_problem(), options, observer=observer)

    def test_traced_run_is_bit_identical(self):
        options = SchedulerOptions()
        plain_records, traced_records = [], []
        plain = self.run_problem(options, plain_records.append)
        exporter = obs.ListExporter()
        obs.enable(exporter)
        traced = self.run_problem(options, traced_records.append)
        obs.disable()
        assert schedule_content_hash(plain.schedule) == schedule_content_hash(
            traced.schedule
        )
        assert plain_records == traced_records
        assert plain.stats.steps == traced.stats.steps
        assert (
            plain.stats.pressure_evaluations
            == traced.stats.pressure_evaluations
        )
        assert plain.stats.cache_hits == traced.stats.cache_hits
        assert plain.stats.symmetry_pruned == traced.stats.symmetry_pruned
        # And the trace actually saw the run.
        names = {l["name"] for l in exporter.lines if l.get("type") == "span"}
        assert {"ftbar.run", "kernel.sweep", "kernel.place"} <= names

    def test_step_stream_pruned_parallel_equals_unpruned_serial(self):
        """StepRecords of a traced, symmetry-pruned run.

        The observer stream must equal the plain untraced unpruned
        stream — record for record, pressures included.
        """
        baseline_records: list = []
        pruned_records: list = []
        baseline = self.run_problem(
            SchedulerOptions(symmetry=False),
            baseline_records.append,
        )
        obs.enable(obs.ListExporter())
        pruned = self.run_problem(
            SchedulerOptions(symmetry=True),
            pruned_records.append,
        )
        obs.disable()
        assert baseline_records == pruned_records
        assert schedule_content_hash(
            baseline.schedule
        ) == schedule_content_hash(pruned.schedule)

    def test_run_counters_published_to_registry(self):
        obs.metrics.reset()
        obs.enable(obs.ListExporter())
        result = self.run_problem(SchedulerOptions())
        obs.disable(snapshot=False)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["ftbar.runs"] == 1
        assert counters["ftbar.steps"] == result.stats.steps
        assert (
            counters["ftbar.pressure_evaluations"]
            == result.stats.pressure_evaluations
        )


class TestCompileCacheReset:
    def test_recompile_after_reset_with_warm_row_cache(self):
        """Regression: the comm-row cache lives on the table object and
        survives ``reset_compile_cache()``; recompiling the same problem
        then hits the row cache while missing the variant memo, a path
        that once crashed with an UnboundLocalError."""
        problem = smoke_problem()
        first = schedule_ftbar(problem, SchedulerOptions())
        reset_compile_cache()
        second = schedule_ftbar(problem, SchedulerOptions())
        assert schedule_content_hash(first.schedule) == schedule_content_hash(
            second.schedule
        )


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------

def tiny_spec(**overrides) -> CampaignSpec:
    values = dict(
        name="obs-tiny",
        workloads=(WorkloadSpec(family="random", size=12),),
        topologies=("fully_connected",),
        processors=(4,),
        npfs=(1,),
        ccrs=(1.0,),
        seeds=(1, 2),
        measures=("ftbar",),
        failures=(),
    )
    values.update(overrides)
    return CampaignSpec(**values)


class TestCampaignTelemetry:
    def test_timing_schema_backward_compatible(self):
        job = expand_jobs(tiny_spec())[0]
        document = execute_job(job)
        timing = document["timing"]
        assert timing["elapsed_s"] > 0.0
        assert set(timing["compile_cache"]) == {
            "core_hits", "core_misses", "variant_hits", "variant_misses",
        }
        telemetry = timing["obs"]
        assert telemetry["worker"] > 0
        span_names = {entry["name"] for entry in telemetry["spans"]}
        assert {"job.run", "job.build_problem", "job.schedule"} <= span_names
        # The job document stays strict JSON (cache/store requirement).
        json.dumps(document)

    def test_job_spans_fold_kernel_phases_per_step(self):
        # One aggregate per phase and run, counted in macro-steps: an
        # FTBAR run places one operation per step.
        job = expand_jobs(tiny_spec())[0]
        telemetry = execute_job(job)["timing"]["obs"]
        spans = {entry["name"]: entry for entry in telemetry["spans"]}
        steps = len(job_problem(job).algorithm)
        for phase in ("kernel.sweep", "kernel.place"):
            assert spans[phase]["count"] == steps
            assert spans[phase]["total_s"] > 0.0

    def test_job_document_has_no_events_key_when_clean(self):
        document = execute_job(expand_jobs(tiny_spec())[0])
        assert "events" not in document["record"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_traced_campaign_equals_untraced(self, tmp_path, jobs):
        # Whatever runs the jobs — this process or spawned workers — the
        # trace gets one job.run span and one campaign.job event per
        # executed job, naming the process that ran it.
        spec = load_campaign(
            Path(__file__).resolve().parent.parent
            / "examples"
            / "campaign_smoke.json"
        )
        obs.enable(tmp_path / "trace.jsonl")
        traced = run_campaign(spec, jobs=jobs, store=tmp_path / "a.jsonl")
        obs.disable()
        plain = run_campaign(spec, jobs=1, store=tmp_path / "b.jsonl")
        assert traced.records == plain.records
        assert traced.executed == traced.total_jobs == 8
        lines = obs.read_trace(tmp_path / "trace.jsonl")
        assert obs.validate_trace(lines) == []
        executed = sorted(digest[:12] for digest in traced.records)
        completions = [
            l for l in lines
            if l.get("type") == "event" and l["name"] == "campaign.job"
        ]
        assert sorted(l["attrs"]["job"] for l in completions) == executed
        assert all(l["attrs"]["worker"] is not None for l in completions)
        runs = [
            l for l in lines
            if l.get("type") == "span" and l["name"] == "job.run"
        ]
        assert sorted(l["attrs"]["job"] for l in runs) == executed

    def test_warnings_still_reach_the_caller(self, monkeypatch):
        """A warning raised inside a job is not swallowed by the runner."""
        from repro.campaign import jobs as jobs_module

        schedule = jobs_module.schedule_ftbar

        def warning_schedule(*args, **kwargs):
            warnings.warn("raised inside a job", UserWarning)
            return schedule(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "schedule_ftbar", warning_schedule)
        with pytest.warns(UserWarning, match="raised inside a job"):
            run_campaign(tiny_spec(name="obs-warn", seeds=(1,)), jobs=1)


# ----------------------------------------------------------------------
# renderers + CLI
# ----------------------------------------------------------------------

class TestRenderers:
    def traced_lines(self):
        exporter = obs.ListExporter()
        obs.enable(exporter)
        with obs.span("cli.test"):
            schedule_ftbar(smoke_problem(), SchedulerOptions())
        obs.disable()
        return exporter.lines

    def test_phase_table_and_coverage(self):
        lines = self.traced_lines()
        table = render.render_phase_table(lines)
        assert "ftbar.run" in table
        assert render.coverage(lines) > 0.9

    def test_aggregate_spans_fold(self):
        lines = self.traced_lines()
        folded = {entry["name"]: entry for entry in obs.aggregate_spans(lines)}
        assert folded["kernel.sweep"]["count"] == 24
        assert folded["ftbar.run"]["total_s"] > 0.0

    def test_tree_render(self):
        tree = render.render_tree(self.traced_lines())
        assert "cli.test" in tree
        assert "kernel.sweep x24" in tree

    def test_snapshot_render(self):
        snapshot = render.last_snapshot(self.traced_lines())
        assert snapshot is not None
        text = render.render_snapshot(snapshot)
        assert "compile_cache" in text


class TestCli:
    def test_trace_flag_and_trace_command(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        assert main(["generate", str(problem_path), "--operations", "12"]) == 0
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "schedule", str(problem_path), "--trace", str(trace_path),
        ]) == 0
        assert main([
            "trace", str(trace_path), "--validate", "--min-coverage", "0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace OK" in out
        assert "cli.schedule" in out

    def test_stats_command(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        main(["generate", str(problem_path), "--operations", "12"])
        trace_path = tmp_path / "trace.jsonl"
        main(["schedule", str(problem_path), "--trace", str(trace_path)])
        assert main(["stats", str(trace_path)]) == 0
        assert "ftbar.steps" in capsys.readouterr().out

    def test_meta_line_records_startup_cost(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        main(["generate", str(problem_path), "--operations", "12"])
        trace_path = tmp_path / "trace.jsonl"
        main(["schedule", str(problem_path), "--trace", str(trace_path)])
        meta = obs.read_trace(trace_path)[0]
        assert meta["startup_cpu_s"] > 0.0
        assert meta["modules_loaded"] > 1
        assert obs.validate_line(meta) == []
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        assert "start-up before tracing" in capsys.readouterr().out

    def test_traces_without_startup_fields_still_read(self, tmp_path, capsys):
        """Traces written before the start-up fields keep validating and
        rendering through ``repro trace`` and ``repro stats``."""
        problem_path = tmp_path / "problem.json"
        main(["generate", str(problem_path), "--operations", "12"])
        trace_path = tmp_path / "trace.jsonl"
        main(["schedule", str(problem_path), "--trace", str(trace_path)])
        lines = obs.read_trace(trace_path)
        del lines[0]["startup_cpu_s"], lines[0]["modules_loaded"]
        old_path = tmp_path / "old.jsonl"
        old_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        assert main(["trace", str(old_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "trace OK" in out and "start-up before tracing" not in out
        assert main(["stats", str(old_path)]) == 0
        assert "ftbar.steps" in capsys.readouterr().out

    def test_phase_table_subtracts_kernel_phases(self, tmp_path):
        """``ftbar.run``'s self time excludes its in-process aggregates:
        self = total - materialize - sweep - place."""
        problem_path = tmp_path / "problem.json"
        main(["generate", str(problem_path), "--operations", "30"])
        trace_path = tmp_path / "trace.jsonl"
        main(["schedule", str(problem_path), "--trace", str(trace_path)])
        lines = obs.read_trace(trace_path)
        run = next(
            line for line in lines
            if line.get("type") == "span" and line["name"] == "ftbar.run"
        )
        children = {
            line["name"]: line for line in lines
            if line.get("type") == "span" and line.get("parent") == run["id"]
        }
        assert set(children) == {
            "kernel.materialize", "kernel.sweep", "kernel.place",
        }
        assert children["kernel.sweep"]["agg"] == {
            "count": 30, "disjoint": True,
        }
        rows = {row["name"]: row for row in render.phase_table(lines)}
        expected = run["dur"] - sum(line["dur"] for line in children.values())
        assert rows["ftbar.run"]["self_s"] == pytest.approx(expected)
        assert rows["ftbar.run"]["self_s"] < run["dur"] - (
            children["kernel.materialize"]["dur"]
        )

    def test_phase_table_keeps_nested_job_aggregates(self):
        """A campaign's re-emitted job summaries nest among themselves
        (``job.run`` contains ``job.schedule``), so they are not
        subtracted from the span they were re-emitted under."""
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter)
        with tracer.span("campaign.run"):
            tracer.aggregate("job.run", 0.5, 1, job="abc")
            tracer.aggregate("job.schedule", 0.4, 1, job="abc")
        assert obs.validate_trace(exporter.lines) == []
        rows = {row["name"]: row for row in render.phase_table(exporter.lines)}
        campaign = rows["campaign.run"]
        assert campaign["self_s"] == campaign["total_s"]
        assert rows["job.run"]["agg"] and rows["job.run"]["self_s"] == 0.5

    def test_schedule_and_certify_span_load_and_emit(self, tmp_path):
        problem_path = tmp_path / "problem.json"
        main(["generate", str(problem_path), "--operations", "12"])
        for command in ("schedule", "certify"):
            trace_path = tmp_path / f"{command}.jsonl"
            main([command, str(problem_path), "--trace", str(trace_path)])
            lines = obs.read_trace(trace_path)
            assert obs.validate_trace(lines) == []
            spans = [line for line in lines if line.get("type") == "span"]
            root = next(s for s in spans if s["name"] == f"cli.{command}")
            children = [s["name"] for s in spans if s.get("parent") == root["id"]]
            for phase in ("cli.import", "cli.load", "cli.emit"):
                assert children.count(phase) == 1, (command, children)
            assert children[0] == "cli.import"
            assert children[-1] == "cli.emit"

    def test_trace_command_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "v": 1, "name": "x", "id": 1, '
                       '"dur": 0.0, "bogus": true}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_env_toggle(self, tmp_path):
        assert obs.configure_from_env({"REPRO_TRACE": "0"}) is None
        assert obs.configure_from_env({}) is None
        tracer = obs.configure_from_env(
            {"REPRO_TRACE": str(tmp_path / "t.jsonl")}
        )
        assert tracer is not None
        obs.disable()
        assert obs.read_trace(tmp_path / "t.jsonl")[0]["type"] == "meta"
