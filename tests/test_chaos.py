"""The chaos harness and its end-to-end robustness pins.

The acceptance property of the fault-injection PR: a campaign attacked
by a deterministic injection plan — torn writes, ENOSPC, heartbeat
death, killed merges — produces a merged store **byte-identical** to a
clean serial run, and replaying the same plan and seed injects the
exact same fault set at any worker count.
"""

import json
import multiprocessing

import pytest

from repro.campaign import (
    CampaignSpec,
    DirectoryCampaign,
    ResultStore,
    WorkloadSpec,
    expand_jobs,
    merge_stores,
    save_campaign,
    worker_loop,
)
from repro.cli import main
from repro.faultinject import configure, deconfigure, plan_from_dict
from repro.faultinject.chaos import _chaos_merge, run_chaos


@pytest.fixture(autouse=True)
def injection_off():
    deconfigure()
    yield
    deconfigure()


def tiny_spec(**overrides) -> CampaignSpec:
    """Four fast jobs: two tree families x two processor counts."""
    values = dict(
        name="chaos-tiny",
        workloads=(
            WorkloadSpec(family="in_tree", size=3),
            WorkloadSpec(family="out_tree", size=3),
        ),
        processors=(2, 3),
        seeds=(0,),
        measures=("ftbar",),
    )
    values.update(overrides)
    return CampaignSpec(**values)


def plan(*triggers, seed=7, name="test-plan"):
    return plan_from_dict(
        {"seed": seed, "name": name, "triggers": list(triggers)}
    )


TORN_PLAN = {
    "seed": 11,
    "name": "torn-and-flaky",
    "triggers": [
        {
            "site": "store.append.write",
            "action": "torn_write",
            "probability": 0.5,
        },
        {"site": "worker.execute", "action": "raise", "probability": 0.3},
        {"site": "store.append.write", "action": "corrupt",
         "probability": 0.2},
    ],
}


class TestChaosHarness:
    def test_empty_plan_is_a_clean_run(self, tmp_path):
        report = run_chaos(
            tiny_spec(),
            plan(name="noop"),
            workers=1,
            root=tmp_path / "chaos",
            lease_ttl_s=1.0,
            poll_s=0.02,
        )
        assert report.passed
        assert report.fired == []
        assert report.rounds_used == 1
        assert report.merge_rounds_used == 1
        assert report.recorded == report.jobs == 4

    def test_enospc_on_cache_costs_nothing(self, tmp_path):
        report = run_chaos(
            tiny_spec(),
            plan(
                {
                    "site": "cache.put.write",
                    "action": "raise",
                    "errno": "ENOSPC",
                    "probability": 1.0,
                },
                name="enospc",
            ),
            workers=1,
            root=tmp_path / "chaos",
            lease_ttl_s=1.0,
            poll_s=0.02,
        )
        assert report.passed
        assert report.fired_by_site() == {"cache.put.write": 1}

    def test_replay_injects_identical_faults_at_any_worker_count(
        self, tmp_path
    ):
        # The acceptance pin: same plan, same seed, same campaign =>
        # the same keyed fault set, at 1 worker, again at 1 worker,
        # and at 2 workers — and every run's merged bytes still match
        # the clean serial reference.
        spec = tiny_spec()
        injection_plan = plan_from_dict(TORN_PLAN)
        signatures = []
        for index, workers in enumerate((1, 1, 2)):
            report = run_chaos(
                spec,
                injection_plan,
                workers=workers,
                root=tmp_path / f"chaos-{index}",
                lease_ttl_s=1.0,
                poll_s=0.02,
            )
            assert report.passed, report.summary()
            signatures.append(report.fault_signature())
        assert signatures[0], "the plan fired nothing — a vacuous pin"
        assert signatures[0] == signatures[1] == signatures[2]

    def test_kill_mid_merge_recovers_on_next_attempt(self, tmp_path):
        report = run_chaos(
            tiny_spec(),
            plan(
                {
                    "site": "merge.replace",
                    "action": "kill",
                    "worker": "merge-0",
                    "nth": 1,
                },
                name="kill-merge",
            ),
            workers=1,
            root=tmp_path / "chaos",
            lease_ttl_s=1.0,
            poll_s=0.02,
        )
        assert report.passed
        assert report.merge_rounds_used == 2
        assert report.fired_by_site() == {"merge.replace": 1}

    def test_canned_plans_ship_and_validate(self):
        from repro.faultinject import load_plan

        enospc = load_plan("examples/chaos_enospc.json")
        assert enospc.sites() == {"cache.put.write"}
        kill = load_plan("examples/chaos_kill_merge.json")
        assert {t.action for t in kill.triggers} == {"kill", "torn_write"}


class TestMergeAtomicity:
    """A killed merge leaves the old store or the new — never torn."""

    def _shards(self, tmp_path):
        shards = tmp_path / "shards"
        first = ResultStore(shards / "a.jsonl")
        second = ResultStore(shards / "b.jsonl")
        for index in range(2):
            first.append(f"aa{index:02d}", {"value": index})
            second.append(f"bb{index:02d}", {"value": 10 + index})
        return shards, first

    def test_kill_between_write_and_replace_preserves_old_bytes(
        self, tmp_path
    ):
        shards, first = self._shards(tmp_path)
        output = tmp_path / "merged.jsonl"
        merge_stores([first.path], output)
        old_bytes = output.read_bytes()

        kill_plan = {
            "seed": 7,
            "triggers": [
                {
                    "site": "merge.replace",
                    "action": "kill",
                    "worker": "merge-0",
                    "nth": 1,
                }
            ],
        }
        process = multiprocessing.Process(
            target=_chaos_merge,
            args=(
                str(shards),
                str(output),
                kill_plan,
                7,
                "merge-0",
                str(tmp_path / "faults.jsonl"),
            ),
        )
        process.start()
        process.join(60)
        assert process.exitcode == 86  # the injected kill, not a crash

        # Old bytes exactly: the rename never happened, and the torn
        # temp file was left beside the store, not glued into it.
        assert output.read_bytes() == old_bytes
        for line in output.read_text().splitlines():
            json.loads(line)

        # Idempotent re-merge (a different identity dodges the kill
        # trigger) recovers the full union.
        process = multiprocessing.Process(
            target=_chaos_merge,
            args=(
                str(shards),
                str(output),
                kill_plan,
                7,
                "merge-1",
                str(tmp_path / "faults.jsonl"),
            ),
        )
        process.start()
        process.join(60)
        assert process.exitcode == 0
        digests = [
            json.loads(line)["digest"]
            for line in output.read_text().splitlines()
        ]
        assert digests == sorted(digests)
        assert set(digests) == {"aa00", "aa01", "bb00", "bb01"}


class TestHeartbeatDeath:
    """A dead heartbeat thread means abandon, never a duplicate record."""

    def test_worker_abandons_then_recovers_without_duplicates(
        self, tmp_path
    ):
        spec = tiny_spec(
            workloads=(WorkloadSpec(family="in_tree", size=3),),
            processors=(2,),
        )
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "campaign")
        (digest,) = {job.digest for job in expand_jobs(spec)}
        configure(
            plan_from_dict(
                {
                    "seed": 5,
                    "triggers": [
                        # The first beat kills the heartbeat *thread*
                        # (a non-OSError escaping it), while the job is
                        # held long enough for that beat to land.
                        {
                            "site": "directory.heartbeat.renew",
                            "action": "raise",
                            "exception": "RuntimeError",
                            "nth": 1,
                        },
                        {
                            "site": "worker.execute",
                            "action": "sleep",
                            "seconds": 0.5,
                            "probability": 1.0,
                        },
                    ],
                }
            )
        )
        report = worker_loop(
            campaign.root,
            worker="hb-victim",
            cache=campaign.cache_dir,
            lease_ttl_s=0.4,
            poll_s=0.02,
        )
        # First attempt: heartbeat died => the worker aborted before
        # recording (but after caching the computed document).  Second
        # attempt ran clean, served from cache.  One record either way.
        assert report.lost_leases == 1
        assert report.completed == 1
        shard = campaign.shard_for("hb-victim")
        assert [line["digest"] for line in shard.records()] == [digest]
        (lease_lost,) = [
            event
            for event in shard.events()
            if event["event"] == "lease_lost"
        ]
        assert lease_lost["job"] == digest
        assert "heartbeat thread died" in lease_lost["reason"]
        assert campaign.recorded_digests() == {digest}


class TestOwnershipAwareRelease:
    def test_victim_cannot_unlink_a_stealers_claim(self, tmp_path):
        campaign = DirectoryCampaign(tmp_path / "campaign")
        campaign.claims_dir.mkdir(parents=True)
        digest = "ab" + "0" * 62
        assert campaign.try_claim(digest, "victim")
        # The lease is stolen: the stealer drops the stale claim and
        # re-creates it under its own identity.
        campaign.release(digest)
        assert campaign.try_claim(digest, "stealer", attempt=2)
        # The victim's exit path must not free the job a third time.
        campaign.release(digest, owner="victim")
        assert campaign.read_claim(digest)["worker"] == "stealer"
        campaign.release(digest, owner="stealer")
        assert campaign.read_claim(digest) is None


class TestChaosCLI:
    def test_sites_catalog(self, capsys):
        assert main(["chaos", "sites"]) == 0
        out = capsys.readouterr().out
        assert "store.append.write" in out
        assert "merge.replace" in out

    def test_run_reports_byte_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_campaign(
            tiny_spec(
                workloads=(WorkloadSpec(family="in_tree", size=3),),
                processors=(2,),
            ),
            spec_path,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "name": "cli-smoke",
                    "triggers": [
                        {
                            "site": "store.append.write",
                            "action": "torn_write",
                            "probability": 0.9,
                        }
                    ],
                }
            )
        )
        code = main(
            [
                "chaos",
                "run",
                str(spec_path),
                "--plan",
                str(plan_path),
                "--workers",
                "1",
                "--lease-ttl",
                "1.0",
                "--dir",
                str(tmp_path / "scratch"),
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["passed"] is True
        assert report["identical"] is True
