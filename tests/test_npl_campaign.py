"""Campaign and CLI integration of the Npl (link-failure) axis.

The grid gains an ``npls`` dimension; jobs carry the effective ``npl``
and their content digests must never collide across ``npl`` values
(the cache-key regression the ISSUE pins), and the ``reliability``
measure certifies combined processor+link subsets.
"""

import json

from repro.campaign.jobs import build_problem, execute_job, expand_jobs
from repro.campaign.spec import (
    CampaignSpec,
    ReliabilitySpec,
    WorkloadSpec,
    campaign_from_dict,
    campaign_to_dict,
)
from repro.cli import main
from repro.schedule.serialization import problem_content_hash
from tests.certify_oracle import run_certify


def _spec(**overrides) -> CampaignSpec:
    values = dict(
        name="npl-grid",
        workloads=(WorkloadSpec(family="random", size=10),),
        topologies=("ring",),
        processors=(4,),
        npfs=(0,),
        npls=(0, 1),
        ccrs=(0.3,),
        seeds=(0,),
        measures=("ftbar",),
    )
    values.update(overrides)
    return CampaignSpec(**values)


class TestNplAxis:
    def test_grid_size_counts_the_npl_axis(self):
        assert _spec().grid_size == 2

    def test_jobs_carry_npl_and_distinct_digests(self):
        jobs = expand_jobs(_spec())
        assert [job.npl for job in jobs] == [0, 1]
        assert jobs[0].digest != jobs[1].digest
        assert jobs[0].coordinate()["npl"] == 0
        assert jobs[1].coordinate()["npl"] == 1

    def test_npl_never_collides_in_the_problem_hash(self):
        workload = WorkloadSpec(family="random", size=10)
        digests = {
            problem_content_hash(
                build_problem(workload, "ring", 4, 0, 0.3, 0, npl=npl)
            )
            for npl in (0, 1, 2)
        }
        assert len(digests) == 3

    def test_spec_round_trips_npls(self):
        spec = _spec()
        document = campaign_to_dict(spec)
        assert document["npls"] == (0, 1)
        rebuilt = campaign_from_dict(json.loads(json.dumps(document)))
        assert rebuilt.npls == (0, 1)

    def test_npls_default_is_zero(self):
        document = campaign_to_dict(_spec())
        del document["npls"]
        assert campaign_from_dict(document).npls == (0,)


class TestDigestStability:
    def test_unset_link_knobs_keep_pre_link_tolerance_digests(self):
        """A reliability spec predating link tolerance hashes as before."""
        from dataclasses import asdict

        from repro.campaign.jobs import job_digest
        from repro.schedule.serialization import content_hash, problem_to_dict

        workload = WorkloadSpec(family="random", size=10)
        problem = build_problem(workload, "ring", 4, 0, 0.3, 0)
        spec = ReliabilitySpec(probabilities=(0.05,))
        digest = job_digest(problem, {}, ("ftbar", "reliability"), (), spec)
        # The historical document shape: no link knobs and no sampled
        # certification knobs at all.
        legacy_reliability = {
            key: value
            for key, value in asdict(spec).items()
            if key not in (
                "max_link_failures", "link_probability",
                "confidence", "budget", "seed",
            )
        }
        legacy = content_hash(
            "job",
            {
                "problem": problem_to_dict(problem),
                "options": {},
                "measures": ["ftbar", "reliability"],
                "failures": [],
                "reliability": legacy_reliability,
            },
        )
        assert digest == legacy

    def test_set_link_knobs_change_the_digest(self):
        from repro.campaign.jobs import job_digest

        workload = WorkloadSpec(family="random", size=10)
        problem = build_problem(workload, "ring", 4, 0, 0.3, 0)
        plain = job_digest(
            problem, {}, ("reliability",), (),
            ReliabilitySpec(probabilities=(0.05,)),
        )
        combined = job_digest(
            problem, {}, ("reliability",), (),
            ReliabilitySpec(probabilities=(0.05,), max_link_failures=1),
        )
        assert plain != combined


class TestCombinedReliabilityMeasure:
    def test_record_reports_combined_levels(self):
        spec = _spec(
            npls=(1,),
            measures=("ftbar", "reliability"),
            reliability=ReliabilitySpec(probabilities=(0.05,)),
        )
        (job,) = expand_jobs(spec)
        record = execute_job(job)["record"]["reliability"]
        assert record["certified"]
        assert record["npl"] == 1
        combined = [
            level for level in record["levels"] if level.get("link_failures")
        ]
        assert combined  # the link dimension was enumerated
        assert all(level["masked"] == level["total"] for level in combined
                   if level["failures"] <= 0 and level["link_failures"] <= 1)

    def test_npl_zero_record_keeps_historical_shape(self):
        spec = _spec(
            npls=(0,),
            measures=("ftbar", "reliability"),
            reliability=ReliabilitySpec(probabilities=(0.05,)),
        )
        (job,) = expand_jobs(spec)
        record = execute_job(job)["record"]["reliability"]
        assert "npl" not in record
        assert all("link_failures" not in level for level in record["levels"])

    def test_link_probability_widens_the_sweep(self):
        spec = _spec(
            npls=(1,),
            measures=("ftbar", "reliability"),
            reliability=ReliabilitySpec(
                probabilities=(0.05,), link_probability=0.02
            ),
        )
        (job,) = expand_jobs(spec)
        record = execute_job(job)["record"]["reliability"]
        point = record["sweep"][0]
        assert 0.0 < point["reliability"] <= 1.0
        assert point["guaranteed_lower_bound"] <= point["reliability"]


class TestHeatmapNplRows:
    def test_heatmap_and_report_separate_npl_rows(self, tmp_path):
        from repro.campaign.runner import (
            campaign_report,
            reliability_heatmap,
            run_campaign,
        )
        from repro.campaign.store import ResultStore

        spec = _spec(
            npls=(0, 1),
            measures=("ftbar", "non_ft", "reliability"),
            reliability=ReliabilitySpec(probabilities=(0.05,)),
        )
        store = tmp_path / "results.jsonl"
        run_campaign(spec, store=store, cache=None, progress=None)
        heatmap = reliability_heatmap(spec, ResultStore(store), "certified")
        assert "npf/npl" in heatmap
        assert "0/0" in heatmap and "0/1" in heatmap
        report = campaign_report(spec, ResultStore(store))
        assert "npf/npl" in report

    def test_processor_only_campaign_keeps_historical_labels(self, tmp_path):
        from repro.campaign.runner import reliability_heatmap, run_campaign
        from repro.campaign.store import ResultStore

        spec = _spec(
            npls=(0,),
            measures=("ftbar", "reliability"),
            reliability=ReliabilitySpec(probabilities=(0.05,)),
        )
        store = tmp_path / "results.jsonl"
        run_campaign(spec, store=store, cache=None, progress=None)
        heatmap = reliability_heatmap(spec, ResultStore(store), "reliability")
        assert "npf \\ q" in heatmap
        assert "npf/npl" not in heatmap


class TestCertifyCliNpl:
    def test_certify_npl_override_and_compare(self, tmp_path):
        from repro.schedule.serialization import problem_to_dict, save_json

        problem = build_problem(
            WorkloadSpec(family="random", size=10), "ring", 4, 0, 0.3, 0
        )
        path = tmp_path / "ring.json"
        save_json(problem_to_dict(problem), path)
        code, out = run_certify(tmp_path / "certificate.json", path, npl=1)
        assert code == 0
        assert "npl=1" in out
        assert "link(s)" in out

    def test_certify_links_flag_widens_enumeration(self, tmp_path, capsys):
        from repro.schedule.serialization import problem_to_dict, save_json

        problem = build_problem(
            WorkloadSpec(family="random", size=8), "fully_connected", 3, 1, 1.0, 0
        )
        path = tmp_path / "fc.json"
        save_json(problem_to_dict(problem), path)
        code = main(["certify", str(path), "--links", "1"])
        out = capsys.readouterr().out
        assert "link(s)" in out  # combined levels despite npl = 0
        assert code in (0, 1)  # verdict depends on incidental tolerance

    def test_schedule_npl_flag(self, tmp_path, capsys):
        from repro.schedule.serialization import problem_to_dict, save_json

        problem = build_problem(
            WorkloadSpec(family="random", size=8), "ring", 4, 0, 0.3, 0
        )
        path = tmp_path / "ring.json"
        save_json(problem_to_dict(problem), path)
        code = main(["schedule", str(path), "--npl", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "npl=1" in out


class TestExampleProblems:
    def test_ring_example_certifies_combined(self, tmp_path):
        code, out = run_certify(
            tmp_path / "certificate.json", "examples/problem_ring4_npl1.json"
        )
        assert code == 0
        assert "CERTIFIED" in out

    def test_fc_example_certifies_combined_npf1_npl1(self, capsys):
        code = main(["certify", "examples/problem_fc4_npf1_npl1.json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 crash(es) + 1 link(s): 24/24 subsets masked" in out
