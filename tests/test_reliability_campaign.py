"""Reliability certification through the campaign subsystem and CLI.

The ``reliability`` measure turns campaign grids into heatmap sweeps
(npf axis x failure-probability columns), every job certified by the
batch scenario engine; ``repro certify`` is the one-schedule front
end, diffed here against the per-scenario oracle.
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
from tests.certify_oracle import run_certify


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

    @pytest.mark.parametrize(
        "knobs,message",
        [
            ({"confidence": 1.5}, "confidence must be in"),
            ({"budget": 0}, "budget must be >= 1"),
            ({"max_failures": -1}, "max_failures must be >= 0"),
            ({"max_link_failures": -1}, "max_link_failures must be >= 0"),
        ],
    )
    def test_out_of_range_knob_rejected(self, knobs, message):
        with pytest.raises(SerializationError, match=message):
            ReliabilitySpec(**knobs)

    def test_non_dict_reliability_document_rejected(self):
        document = campaign_to_dict(heatmap_spec())
        document["reliability"] = "yes"
        with pytest.raises(SerializationError, match="invalid campaign"):
            campaign_from_dict(document)

    @pytest.mark.parametrize("method", [None, "auto"])
    def test_default_method_keeps_the_pinned_job_digest(self, method):
        """Retiring ``method: "exact"`` leaves every other spec's job
        identity alone: no ``method`` and the explicit default hash to
        the digest this spec has always had (a literal pin)."""
        reliability = {"probabilities": [0.01]}
        if method is not None:
            reliability["method"] = method
        spec = campaign_from_dict({
            "name": "digest-pin",
            "workloads": [{"family": "random", "size": 8}],
            "measures": ["ftbar", "reliability"],
            "reliability": reliability,
        })
        assert [job.digest for job in expand_jobs(spec)] == [
            "3a9d0f58b58d5dfe1896c7b35f950035cfa4d8088f53b2ba822f7ce375754f2e"
        ]

    def test_exact_method_rejected_naming_the_allowed_values(self):
        for method in ("exact", "sampled"):
            document = campaign_to_dict(heatmap_spec())
            document["reliability"]["method"] = method
            with pytest.raises(
                SerializationError, match='only "auto" is accepted'
            ):
                campaign_from_dict(document)

    def test_documents_written_with_method_auto_still_load(self):
        """Older ``campaign.json`` files carry ``"method": "auto"`` in
        every reliability section; the key is read and dropped."""
        spec = heatmap_spec()
        document = campaign_to_dict(spec)
        assert "method" not in document["reliability"]
        document["reliability"]["method"] = "auto"
        assert campaign_from_dict(document) == spec

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

    def test_certify_compare_engines(self, tmp_path):
        """The batch engine's certificate and reliability line equal the
        per-scenario oracle's on the paper example."""
        code, output = run_certify(
            tmp_path / "certificate.json", probabilities=(0.1,)
        )
        assert code == 0
        assert "q=0.1: reliability" in output

    def test_certify_problem_file_with_boundaries(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--npf", "1"])
        capsys.readouterr()
        assert main(["certify", str(problem), "--boundaries"]) == 0
        assert "crash times" in capsys.readouterr().out

    @pytest.mark.usefixtures("capsys")
    def test_certify_legacy_engine(self):
        """The per-scenario engine is a test oracle only: the flags that
        selected it or diffed against it are gone from the CLI."""
        for flag in ("--legacy", "--exact", "--compare"):
            with pytest.raises(SystemExit) as exit_info:
                main(["certify", flag])
            assert exit_info.value.code == 2

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
