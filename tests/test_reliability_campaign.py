"""Reliability certification through the campaign subsystem and CLI.

The ``reliability`` measure turns campaign grids into heatmap sweeps
(npf axis x failure-probability columns), every job certified by the
batched scenario engine; ``repro certify`` is the one-schedule front
end with a built-in cross-engine comparison.
"""

import json

import pytest

from repro.campaign.jobs import execute_job, expand_jobs
from repro.campaign.runner import reliability_heatmap, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    ReliabilitySpec,
    WorkloadSpec,
    campaign_from_dict,
    campaign_to_dict,
)
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.exceptions import SerializationError


def heatmap_spec(npfs=(0, 1), probabilities=(0.01, 0.1)) -> CampaignSpec:
    return CampaignSpec(
        name="reliability-test",
        workloads=(WorkloadSpec(family="random", size=8),),
        npfs=tuple(npfs),
        seeds=(0, 1),
        measures=("ftbar", "reliability"),
        reliability=ReliabilitySpec(probabilities=tuple(probabilities)),
    )


class TestReliabilitySpec:
    def test_roundtrip_through_json_document(self):
        spec = heatmap_spec()
        rebuilt = campaign_from_dict(campaign_to_dict(spec))
        assert rebuilt == spec
        assert rebuilt.reliability.probabilities == (0.01, 0.1)

    def test_measure_defaults_the_spec(self):
        spec = CampaignSpec(
            name="defaulted",
            workloads=(WorkloadSpec(family="random", size=6),),
            measures=("ftbar", "reliability"),
        )
        assert spec.reliability == ReliabilitySpec()

    def test_no_measure_keeps_reliability_none(self):
        spec = CampaignSpec(
            name="plain",
            workloads=(WorkloadSpec(family="random", size=6),),
        )
        assert spec.reliability is None
        assert campaign_to_dict(spec)["reliability"] is None

    def test_invalid_probability_rejected(self):
        with pytest.raises(SerializationError, match="must be in"):
            ReliabilitySpec(probabilities=(1.5,))

    def test_invalid_crash_time_policy_rejected(self):
        with pytest.raises(SerializationError, match="crash-time"):
            ReliabilitySpec(crash_times="sometimes")

    def test_invalid_detection_rejected(self):
        with pytest.raises(SerializationError, match="detection"):
            ReliabilitySpec(detection="psychic")

    def test_non_dict_reliability_document_rejected(self):
        document = campaign_to_dict(heatmap_spec())
        document["reliability"] = "yes"
        with pytest.raises(SerializationError, match="invalid campaign"):
            campaign_from_dict(document)

    def test_reliability_config_changes_job_digest(self):
        plain = heatmap_spec(probabilities=(0.01,))
        swept = heatmap_spec(probabilities=(0.01, 0.2))
        digests = lambda spec: [job.digest for job in expand_jobs(spec)]
        assert digests(plain) != digests(swept)


class TestReliabilityJobs:
    def test_record_shape_and_determinism(self):
        spec = heatmap_spec(npfs=(1,), probabilities=(0.0, 0.05))
        job = expand_jobs(spec)[0]
        first = execute_job(job)["record"]
        second = execute_job(job)["record"]
        assert first == second
        block = first["reliability"]
        assert block["certified"] is True
        assert [level["failures"] for level in block["levels"]] == [0, 1, 2]
        assert [point["probability"] for point in block["sweep"]] == [0.0, 0.05]
        # q=0 means perfect processors: fully reliable, infinite MTTF
        # stored as None so the record stays strict JSON.
        assert first["reliability"]["sweep"][0]["reliability"] == 1.0
        assert first["reliability"]["sweep"][0]["mttf_iterations"] is None
        assert block["scenarios"] >= block["simulated"] + block["lanes"]
        assert block["lanes"] > 0
        json.dumps(first)  # strict-JSON serializable (no inf/nan)

    def test_boundary_crash_times_policy(self):
        spec = CampaignSpec(
            name="boundaries",
            workloads=(WorkloadSpec(family="random", size=6),),
            npfs=(1,),
            measures=("ftbar", "reliability"),
            reliability=ReliabilitySpec(
                probabilities=(0.05,), crash_times="boundaries", boundary_limit=4
            ),
        )
        record = execute_job(expand_jobs(spec)[0])["record"]
        assert 1 < record["reliability"]["crash_times"] <= 4


class TestHeatmap:
    def test_campaign_run_and_heatmap(self, tmp_path):
        spec = heatmap_spec()
        store = ResultStore(tmp_path / "results.jsonl")
        report = run_campaign(spec, store=store)
        assert report.completed == report.total_jobs
        rendered = reliability_heatmap(spec, store)
        assert "0.01" in rendered and "0.1" in rendered
        for npf in (0, 1):
            assert any(
                line.strip().startswith(str(npf)) for line in rendered.splitlines()
            )
        mttf = reliability_heatmap(spec, store, value="mttf")
        assert "mttf heatmap" in mttf
        certified = reliability_heatmap(spec, store, value="certified")
        assert "certified heatmap" in certified

    def test_heatmap_without_reliability_spec(self, tmp_path):
        spec = CampaignSpec(
            name="plain",
            workloads=(WorkloadSpec(family="random", size=6),),
        )
        store = ResultStore(tmp_path / "results.jsonl")
        assert "no reliability spec" in reliability_heatmap(spec, store)

    def test_heatmap_without_records(self, tmp_path):
        spec = heatmap_spec()
        store = ResultStore(tmp_path / "results.jsonl")
        assert "no reliability records" in reliability_heatmap(spec, store)

    def test_heatmap_unknown_value_rejected(self, tmp_path):
        spec = heatmap_spec()
        store = ResultStore(tmp_path / "results.jsonl")
        with pytest.raises(ValueError, match="unknown heatmap value"):
            reliability_heatmap(spec, store, value="latency")


class TestCertifyCli:
    def test_certify_paper_example(self, capsys):
        assert main(["certify"]) == 0
        output = capsys.readouterr().out
        assert "CERTIFIED" in output
        assert "batch engine:" in output

    def test_certify_compare_engines(self, capsys):
        assert main(["certify", "--compare", "--probability", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "bit-identical" in output

    def test_certify_problem_file_with_boundaries(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--npf", "1"])
        capsys.readouterr()
        assert main(["certify", str(problem), "--boundaries"]) == 0
        assert "crash times" in capsys.readouterr().out

    def test_certify_legacy_engine(self, capsys):
        assert main(["certify", "--legacy"]) == 0
        output = capsys.readouterr().out
        assert "batch engine:" not in output

    def test_campaign_heatmap_cli(self, tmp_path, capsys):
        from repro.campaign.spec import save_campaign

        spec_path = tmp_path / "spec.json"
        save_campaign(heatmap_spec(), spec_path)
        assert main(["campaign", "run", str(spec_path), "--quiet", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["campaign", "heatmap", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "reliability heatmap" in out
        assert main(
            ["campaign", "heatmap", str(spec_path), "--value", "mttf"]
        ) == 0
        assert "mttf heatmap" in capsys.readouterr().out
