"""Campaign dispatch, the work-stealing protocol, and bit-identical merge.

The properties pinned here:

* every dispatch (in process at one worker, directory workers over a
  private or a persistent campaign directory) computes the same
  deterministic records for the same spec;
* directory workers coordinate through the filesystem alone — claims
  are exclusive, expired leases are stolen with a structured
  ``lease_reclaimed`` event, poisonous jobs stop after bounded retries;
* a worker killed mid-lease costs time, never results: the canonically
  merged shards are byte-identical to an uninterrupted serial run;
* ``merge_stores`` is order-canonical, idempotent, torn-tail tolerant,
  and refuses (hard error) to launder conflicting records.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    DirectoryCampaign,
    MergeConflictError,
    ResultStore,
    WorkloadSpec,
    cpu_affinity_count,
    default_worker_count,
    expand_jobs,
    merge_stores,
    run_campaign,
    save_campaign,
    worker_loop,
)
from repro.campaign.backends.directory import worker_identity
from repro.cli import main
from repro.exceptions import ReproError, SerializationError


def small_spec(**overrides) -> CampaignSpec:
    """Four fast jobs: two tree families x two processor counts."""
    values = dict(
        name="backends",
        workloads=(
            WorkloadSpec(family="in_tree", size=3),
            WorkloadSpec(family="out_tree", size=3),
        ),
        processors=(2, 3),
        seeds=(0,),
        measures=("ftbar", "non_ft"),
    )
    values.update(overrides)
    return CampaignSpec(**values)


def canonical_bytes(tmp_path: Path, *inputs) -> bytes:
    """The canonical merged-store bytes of any mix of stores/directories."""
    output = tmp_path / f"canonical-{len(list(tmp_path.iterdir()))}.jsonl"
    merge_stores(list(inputs), output)
    return output.read_bytes()


class TestWorkerCount:
    def test_affinity_count_is_positive_or_none(self):
        count = cpu_affinity_count()
        assert count is None or count >= 1

    def test_default_worker_count_respects_affinity(self):
        count = default_worker_count()
        assert count >= 1
        affinity = cpu_affinity_count()
        if affinity is not None:
            # The pool must never oversubscribe the scheduling mask the
            # host actually grants (cgroup/taskset confinement).
            assert count == affinity

    def test_affinity_never_exceeds_cpu_count(self):
        affinity = cpu_affinity_count()
        if affinity is not None:
            assert affinity <= (os.cpu_count() or 1)


class TestStoreEvents:
    def test_events_excluded_from_record_accessors(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("d1", {"x": 1})
        store.append_event("lease_reclaimed", job="d2", worker="w")
        assert store.load() == {"d1": {"x": 1}}
        assert store.digests() == {"d1"}
        assert all("event" not in line for line in store.diffable_lines())

    def test_events_accessor_returns_only_events(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("d1", {"x": 1})
        store.append_event("retries_exhausted", job="d9", attempts=5)
        events = list(store.events())
        assert len(events) == 1
        assert events[0]["event"] == "retries_exhausted"
        assert events[0]["attempts"] == 5
        assert "recorded_at" in events[0]

    def test_event_after_torn_tail_repairs_store(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("d1", {"x": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "d2", "record":')  # torn write
        store.append_event("lease_reclaimed", job="d2")
        assert store.digests() == {"d1"}
        assert len(list(store.events())) == 1


class TestMerge:
    def two_shards(self, tmp_path) -> tuple[Path, Path]:
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        a.append("d2", {"v": 2})
        a.append("d1", {"v": 1})
        b.append("d3", {"v": 3})
        return a.path, b.path

    def test_union_is_digest_sorted_and_envelope_free(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        out = tmp_path / "m.jsonl"
        report = merge_stores([a, b], out)
        assert report.jobs == 3 and report.shards == 2
        lines = [json.loads(t) for t in out.read_text().splitlines()]
        assert [line["digest"] for line in lines] == ["d1", "d2", "d3"]
        assert all(set(line) == {"digest", "record"} for line in lines)

    def test_merge_is_order_canonical(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        assert canonical_bytes(tmp_path, a, b) == canonical_bytes(
            tmp_path, b, a
        )

    def test_merge_is_idempotent(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        first = tmp_path / "m1.jsonl"
        merge_stores([a, b], first)
        again = tmp_path / "m2.jsonl"
        merge_stores([first, a, b], again)
        assert first.read_bytes() == again.read_bytes()
        # And a self-merge of the canonical output reproduces itself.
        self_merge = tmp_path / "m3.jsonl"
        merge_stores([first], self_merge)
        assert first.read_bytes() == self_merge.read_bytes()

    def test_identical_duplicates_counted_not_conflicting(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        a.append("d1", {"v": 1}, elapsed_s=0.5)
        b.append("d1", {"v": 1}, elapsed_s=9.9, source="cache")
        report = merge_stores([a.path, b.path], tmp_path / "m.jsonl")
        assert report.jobs == 1 and report.duplicates == 1

    def test_conflicting_records_hard_error(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        a.append("d1", {"v": 1})
        b.append("d1", {"v": 2})
        with pytest.raises(MergeConflictError, match="conflicting"):
            merge_stores([a.path, b.path], tmp_path / "m.jsonl")
        assert not (tmp_path / "m.jsonl").exists()

    def test_dry_run_checks_conflicts_without_writing(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        report = merge_stores([a, b])
        assert report.jobs == 3 and report.output is None
        assert list(tmp_path.glob("m*.jsonl")) == []

    def test_torn_tail_tolerated_across_shards(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        with open(a, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "d9", "rec')  # killed mid-write
        report = merge_stores([a, b], tmp_path / "m.jsonl")
        assert report.jobs == 3  # the fragment is dropped, not merged

    def test_events_routed_to_sidecar(self, tmp_path):
        a, b = self.two_shards(tmp_path)
        ResultStore(a).append_event("lease_reclaimed", job="d2", worker="w")
        out = tmp_path / "m.jsonl"
        report = merge_stores([a, b], out)
        assert report.events == 1
        assert report.event_kinds == {"lease_reclaimed": 1}
        sidecar = out.with_name("m.events.jsonl")
        assert report.events_output == sidecar
        assert "lease_reclaimed" in sidecar.read_text()
        # The canonical store itself carries no event lines.
        assert "lease_reclaimed" not in out.read_text()

    def test_directory_input_expands_to_shards(self, tmp_path):
        shards = tmp_path / "camp" / "shards"
        shards.mkdir(parents=True)
        ResultStore(shards / "w1.jsonl").append("d1", {"v": 1})
        report = merge_stores([tmp_path / "camp"], tmp_path / "m.jsonl")
        assert report.jobs == 1

    def test_missing_input_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            merge_stores([tmp_path / "nope.jsonl"])

    def test_empty_directory_is_an_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ReproError, match="no result shards"):
            merge_stores([tmp_path / "empty"])


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            run_campaign(small_spec(), backend="ssh")

    def test_directory_backend_requires_directory(self):
        with pytest.raises(ReproError, match="campaign directory"):
            run_campaign(small_spec(), backend="directory")
        with pytest.raises(ReproError, match="campaign directory"):
            run_campaign(small_spec(backend="directory"))

    def test_spec_backend_field_validated(self):
        with pytest.raises(SerializationError, match="unknown execution"):
            small_spec(backend="carrier-pigeon")

    def test_spec_backend_roundtrips_and_defaults(self):
        from repro.campaign import campaign_from_dict, campaign_to_dict

        spec = small_spec(backend="directory")
        assert campaign_from_dict(campaign_to_dict(spec)) == spec
        # Pre-backend documents load with the historical default.
        document = campaign_to_dict(small_spec())
        del document["backend"]
        assert campaign_from_dict(document).backend == "local"


class TestBackendEquivalence:
    def test_serial_backend_matches_legacy_path(self, tmp_path):
        spec = small_spec()
        legacy = run_campaign(spec, jobs=1)
        serial = run_campaign(spec, backend="serial")
        assert serial.records == legacy.records
        assert serial.backend == "serial"

    def test_all_backends_bit_identical_stores(self, tmp_path):
        spec = small_spec()
        stores = {
            "serial": tmp_path / "serial.jsonl",
            "local": tmp_path / "local.jsonl",
            "directory": tmp_path / "directory.jsonl",
        }
        run_campaign(spec, backend="serial", store=stores["serial"])
        run_campaign(spec, backend="local", jobs=2, store=stores["local"])
        run_campaign(
            spec,
            backend="directory",
            jobs=2,
            store=stores["directory"],
            directory=tmp_path / "camp",
            lease_ttl_s=10.0,
        )
        reference = canonical_bytes(tmp_path, stores["serial"])
        assert canonical_bytes(tmp_path, stores["local"]) == reference
        assert canonical_bytes(tmp_path, stores["directory"]) == reference
        assert canonical_bytes(tmp_path, tmp_path / "camp") == reference

    def test_private_worker_directory_is_removed(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_campaign(small_spec(), jobs=2)
        assert report.completed == report.total_jobs
        assert list(tmp_path.iterdir()) == []

    def test_directory_backend_report_accounting(self, tmp_path):
        spec = small_spec()
        report = run_campaign(
            spec, backend="directory", jobs=1, directory=tmp_path / "camp"
        )
        assert report.backend == "directory"
        assert report.completed == report.total_jobs
        assert report.records_in_order()


class TestDirectoryDispatch:
    def test_fully_resumed_run_starts_no_worker(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "results.jsonl"
        run_campaign(spec, store=store)
        report = run_campaign(
            spec,
            backend="directory",
            jobs=2,
            store=store,
            directory=tmp_path / "camp",
            resume=True,
        )
        assert report.resumed == report.total_jobs
        assert report.executed == 0
        # No worker started, so the runner's shard of the resumed
        # records is the only shard.
        shards = DirectoryCampaign(tmp_path / "camp").shard_paths()
        assert [path.name for path in shards] == [
            f"{worker_identity()}-runner.jsonl"
        ]

    @pytest.mark.parametrize("served", ["cache", "resume"])
    def test_served_jobs_are_recorded_for_joining_workers(
        self, tmp_path, served
    ):
        # Jobs the runner serves from its cache or its store reach the
        # directory's shards, so a worker joining later finds them done.
        spec = small_spec()
        reference = tmp_path / "reference.jsonl"
        run_campaign(spec, store=reference, cache=tmp_path / "cache")
        report = run_campaign(
            spec,
            backend="directory",
            jobs=2,
            store=reference if served == "resume" else None,
            cache=tmp_path / "cache" if served == "cache" else None,
            resume=served == "resume",
            directory=tmp_path / "camp",
        )
        assert report.executed == 0
        joined = worker_loop(tmp_path / "camp", worker="late", poll_s=0.05)
        assert (joined.executed, joined.cache_hits) == (0, 0)
        assert canonical_bytes(tmp_path, tmp_path / "camp") == (
            canonical_bytes(tmp_path, reference)
        )
        # A rerun adds no line: every served job is already recorded.
        campaign = DirectoryCampaign(tmp_path / "camp")
        lines = sum(
            len(path.read_text().splitlines())
            for path in campaign.shard_paths()
        )
        run_campaign(
            spec,
            backend="directory",
            jobs=2,
            cache=tmp_path / "cache",
            directory=tmp_path / "camp",
        )
        assert lines == sum(
            len(path.read_text().splitlines())
            for path in campaign.shard_paths()
        )

    def test_directory_run_fills_the_runners_cache(self, tmp_path, capsys):
        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "campaign_smoke.json"
        )
        cache = tmp_path / "cache"
        assert main(
            [
                "campaign", "run", str(spec_path), "--backend", "directory",
                "--dir", str(tmp_path / "camp"), "--jobs", "2",
                "--cache", str(cache), "--store", str(tmp_path / "a.jsonl"),
                "--quiet",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "campaign", "run", str(spec_path), "--backend", "serial",
                "--cache", str(cache), "--store", str(tmp_path / "b.jsonl"),
                "--quiet",
            ]
        ) == 0
        assert "cache hits: 8/8" in capsys.readouterr().out

    def test_crashing_job_fails_the_run(self, tmp_path, monkeypatch):
        from repro.campaign.backends import directory

        spec = small_spec()
        poison = expand_jobs(spec)[1].digest
        execute = directory.execute_job

        def failing(job):
            if job.digest == poison:
                raise ValueError("job bug")
            return execute(job)

        # Spawned workers fork from this process and see the patch.
        monkeypatch.setattr(directory, "execute_job", failing)
        store = tmp_path / "results.jsonl"
        with pytest.raises(ReproError, match="1 jobs unrecorded"):
            run_campaign(spec, jobs=2, store=store)
        assert len(ResultStore(store).digests()) == 3

    def test_spawned_workers_take_the_job_list(self, tmp_path):
        # Handed the runner's pending jobs, a worker never re-expands the
        # spec: jobs the runner did not ask for stay uncomputed.
        spec = small_spec()
        wanted = expand_jobs(spec)[:1]
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        report = worker_loop(
            tmp_path / "c", jobs=wanted, worker="solo", poll_s=0.05
        )
        assert report.completed == 1
        assert campaign.recorded_digests() == {wanted[0].digest}


class TestDirectoryProtocol:
    def test_claims_are_exclusive(self, tmp_path):
        campaign = DirectoryCampaign.initialize(small_spec(), tmp_path / "c")
        assert campaign.try_claim("d1", "worker-a")
        assert not campaign.try_claim("d1", "worker-b")
        claim = campaign.read_claim("d1")
        assert claim["worker"] == "worker-a" and claim["attempt"] == 1
        campaign.release("d1")
        assert campaign.try_claim("d1", "worker-b")

    def test_initialize_is_idempotent_but_spec_pinned(self, tmp_path):
        spec = small_spec()
        DirectoryCampaign.initialize(spec, tmp_path / "c")
        DirectoryCampaign.initialize(spec, tmp_path / "c")  # same spec: fine
        with pytest.raises(ReproError, match="different campaign"):
            DirectoryCampaign.initialize(
                small_spec(name="other"), tmp_path / "c"
            )

    def test_worker_requires_initialized_directory(self, tmp_path):
        with pytest.raises(ReproError, match="not a campaign directory"):
            worker_loop(tmp_path / "void")

    def test_single_worker_drains_the_queue(self, tmp_path):
        spec = small_spec()
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        report = worker_loop(tmp_path / "c", worker="solo", poll_s=0.05)
        assert report.completed == len(expand_jobs(spec))
        assert report.reclaims == 0 and report.exhausted == 0
        assert campaign.recorded_digests() == {
            job.digest for job in expand_jobs(spec)
        }
        assert not campaign.active_claims()

    def test_second_worker_serves_recorded_jobs_from_cache_or_skips(
        self, tmp_path
    ):
        DirectoryCampaign.initialize(small_spec(), tmp_path / "c")
        worker_loop(tmp_path / "c", worker="first", poll_s=0.05)
        report = worker_loop(tmp_path / "c", worker="late", poll_s=0.05)
        assert report.completed == 0  # nothing left to do

    def test_expired_lease_is_stolen_with_event(self, tmp_path):
        spec = small_spec()
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        victim_job = expand_jobs(spec)[0]
        assert campaign.try_claim(victim_job.digest, "deadhost-1")
        past = time.time() - 60.0
        os.utime(campaign.claim_path(victim_job.digest), (past, past))

        report = worker_loop(
            tmp_path / "c", worker="survivor", lease_ttl_s=5.0, poll_s=0.05
        )
        assert report.reclaims == 1
        assert report.completed == len(expand_jobs(spec))
        events = list(campaign.shard_for("survivor").events())
        assert [event["event"] for event in events] == ["lease_reclaimed"]
        assert events[0]["previous_worker"] == "deadhost-1"
        assert events[0]["attempt"] == 2

    def test_live_lease_is_not_stolen(self, tmp_path):
        spec = small_spec()
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        held = expand_jobs(spec)[0]
        assert campaign.try_claim(held.digest, "alive-1")  # fresh mtime

        done = threading.Event()

        def run():
            worker_loop(
                tmp_path / "c", worker="w", lease_ttl_s=30.0, poll_s=0.05
            )
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.6)
        # The worker must be parked waiting on the live lease, with
        # every other job recorded and the held one untouched.
        assert not done.is_set()
        assert held.digest not in campaign.recorded_digests()
        assert campaign.read_claim(held.digest)["worker"] == "alive-1"
        campaign.release(held.digest)
        thread.join(timeout=30.0)
        assert done.is_set()

    def test_bounded_retries_abandon_poisonous_job(self, tmp_path):
        spec = small_spec()
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        poison = expand_jobs(spec)[0]
        # A claim that has already died max_attempts times.
        assert campaign.try_claim(poison.digest, "deadhost-1", attempt=3)
        past = time.time() - 60.0
        os.utime(campaign.claim_path(poison.digest), (past, past))

        report = worker_loop(
            tmp_path / "c",
            worker="survivor",
            lease_ttl_s=5.0,
            poll_s=0.05,
            max_attempts=3,
        )
        assert report.exhausted == 1
        assert report.completed == len(expand_jobs(spec)) - 1
        assert poison.digest not in campaign.recorded_digests()
        # The tombstone claim is left in place so every later worker
        # sees the exhausted attempt count instead of retrying.
        assert campaign.read_claim(poison.digest)["attempt"] == 3
        events = list(campaign.shard_for("survivor").events())
        assert [event["event"] for event in events] == ["retries_exhausted"]

    def test_victim_that_recorded_before_dying_is_not_recomputed(
        self, tmp_path
    ):
        spec = small_spec()
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "c")
        job = expand_jobs(spec)[0]
        # The victim recorded the result but died before releasing.
        worker_loop(tmp_path / "c", worker="victim", poll_s=0.05)
        assert campaign.try_claim(job.digest, "victim")
        past = time.time() - 60.0
        os.utime(campaign.claim_path(job.digest), (past, past))
        report = worker_loop(
            tmp_path / "c", worker="survivor", lease_ttl_s=5.0, poll_s=0.05
        )
        assert report.completed == 0 and report.reclaims == 0
        assert campaign.read_claim(job.digest) is None  # stale claim swept


class TestKilledWorkerMerge:
    def test_concurrent_workers_with_dead_lease_merge_bit_identical(
        self, tmp_path
    ):
        """The ISSUE's pin: kill-mid-lease costs time, never results.

        A dead worker holds one lease (simulated: claim file with an
        expired heartbeat and a torn half-record in its shard); two
        concurrent survivors drain the queue.  The canonical merge of
        all shards — the dead worker's torn one included — must be
        byte-identical to an uninterrupted serial run's store.
        """
        spec = small_spec(seeds=(0, 1))  # 8 jobs
        campaign = DirectoryCampaign.initialize(spec, tmp_path / "camp")
        jobs = expand_jobs(spec)
        victim_job = jobs[0]
        assert campaign.try_claim(victim_job.digest, "victim-1")
        past = time.time() - 60.0
        os.utime(campaign.claim_path(victim_job.digest), (past, past))
        with open(
            campaign.shard_for("victim-1").path, "a", encoding="utf-8"
        ) as handle:
            handle.write('{"digest": "' + victim_job.digest + '", "rec')

        reports = {}

        def run(name):
            reports[name] = worker_loop(
                tmp_path / "camp",
                worker=name,
                lease_ttl_s=2.0,
                poll_s=0.05,
            )

        threads = [
            threading.Thread(target=run, args=(name,), daemon=True)
            for name in ("survivor-a", "survivor-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert set(reports) == {"survivor-a", "survivor-b"}
        assert sum(r.reclaims for r in reports.values()) >= 1
        assert campaign.recorded_digests() == {job.digest for job in jobs}

        serial_store = tmp_path / "serial.jsonl"
        run_campaign(spec, backend="serial", store=serial_store)
        assert canonical_bytes(
            tmp_path, tmp_path / "camp"
        ) == canonical_bytes(tmp_path, serial_store)


class TestBackendCli:
    def write_spec(self, tmp_path) -> Path:
        path = tmp_path / "spec.json"
        save_campaign(small_spec(), path)
        return path

    def test_init_worker_merge_status_flow(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        root = tmp_path / "camp"
        assert main(
            ["campaign", "init", str(spec_path), "--dir", str(root)]
        ) == 0
        assert "4 jobs" in capsys.readouterr().out
        assert main(
            ["campaign", "worker", str(root), "--worker-id", "w1", "--quiet"]
        ) == 0
        assert "4 jobs recorded" in capsys.readouterr().out
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["campaign", "merge", str(root), "-o", str(merged)]
        ) == 0
        assert "merged 4 jobs" in capsys.readouterr().out

        serial = tmp_path / "serial.jsonl"
        assert main(
            [
                "campaign", "run", str(spec_path), "--backend", "serial",
                "--store", str(serial), "--no-cache", "--quiet",
            ]
        ) == 0
        capsys.readouterr()
        canonical = tmp_path / "serial-canonical.jsonl"
        assert main(
            ["campaign", "merge", str(serial), "-o", str(canonical)]
        ) == 0
        capsys.readouterr()
        assert merged.read_bytes() == canonical.read_bytes()

        assert main(
            [
                "campaign", "status", str(spec_path),
                "--store", str(serial), "--dir", str(root),
            ]
        ) == 0
        status = capsys.readouterr().out
        assert "100%" in status and "w1: 4" in status

    def test_run_directory_backend_cli(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        assert main(
            [
                "campaign", "run", str(spec_path),
                "--backend", "directory", "--dir", str(tmp_path / "camp"),
                "--jobs", "2", "--store", str(store),
                "--no-cache", "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "completed: 4/4" in out and "campaign dir:" in out
        assert ResultStore(store).digests() == {
            job.digest for job in expand_jobs(small_spec())
        }

    def test_merge_conflict_exits_nonzero(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        a.append("d1", {"v": 1})
        b.append("d1", {"v": 2})
        code = main(
            [
                "campaign", "merge", str(a.path), str(b.path),
                "-o", str(tmp_path / "m.jsonl"),
            ]
        )
        assert code == 1
        assert "conflicting" in capsys.readouterr().err

    def test_merge_dry_run_cli(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a.jsonl")
        a.append("d1", {"v": 1})
        assert main(["campaign", "merge", str(a.path)]) == 0
        assert "dry run" in capsys.readouterr().out

    def test_status_watch_exits_when_complete(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        root = tmp_path / "camp"
        main(["campaign", "init", str(spec_path), "--dir", str(root)])
        main(["campaign", "worker", str(root), "--worker-id", "w", "--quiet"])
        capsys.readouterr()
        assert main(
            [
                "campaign", "status", str(spec_path),
                "--store", str(tmp_path / "none.jsonl"),
                "--dir", str(root), "--watch", "--interval", "0.05",
            ]
        ) == 0
        assert "100%" in capsys.readouterr().out

    def test_example_dispatch_spec_loads(self):
        from repro.campaign import load_campaign

        spec = load_campaign(
            Path(__file__).resolve().parent.parent
            / "examples"
            / "campaign_dispatch.json"
        )
        assert spec.backend == "directory"
        assert len(expand_jobs(spec)) == 12
