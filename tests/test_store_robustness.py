"""Self-healing store and cache I/O under injected faults.

The hardening contract: a fault on a store append costs one backoff,
never a record; a corrupt cache entry is quarantined and recomputed,
never served; a full disk (ENOSPC) flips the cache read-only with one
warning, never fails a job.
"""

import hashlib
import json

import pytest

from repro.campaign import ResultStore, ScheduleCache
from repro.exceptions import CacheDegradedWarning
from repro.faultinject import (
    InjectedFault,
    configure,
    deconfigure,
    fired_faults,
    plan_from_dict,
)


@pytest.fixture(autouse=True)
def injection_off():
    deconfigure()
    yield
    deconfigure()


def install(*triggers, seed=7):
    configure(plan_from_dict({"seed": seed, "triggers": list(triggers)}))


def sample_record(value=1):
    return {"value": value, "schedule_hash": "abc"}


class TestStoreSelfHealing:
    def test_torn_append_heals_on_retry(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append("digest-0", sample_record(0))
        install(
            {
                "site": "store.append.write",
                "action": "torn_write",
                "nth": 1,  # the first write after the plan: digest-1
            }
        )
        store.append("digest-1", sample_record(1))
        assert len(fired_faults()) == 1
        # The retry repaired the torn tail and rewrote the full line.
        assert store.digests() == {"digest-0", "digest-1"}
        assert store.corrupt_lines == []
        text = store.path.read_text()
        assert text.endswith("\n") and len(text.splitlines()) == 2

    def test_fsync_fault_heals_on_retry(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        install(
            {
                "site": "store.append.fsync",
                "action": "raise",
                "probability": 1.0,
            }
        )
        # Keyed trigger: fires once per digest, the retry succeeds.
        store.append("digest-0", sample_record())
        assert store.digests() == {"digest-0"}
        assert len(fired_faults()) == 1

    def test_exhausted_append_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        install(
            {
                "site": "store.append.write",
                "action": "raise",
                "nth": 1,
                "limit": 3,
            },
            {
                "site": "store.append.write",
                "action": "raise",
                "nth": 2,
            },
            {
                "site": "store.append.write",
                "action": "raise",
                "nth": 3,
            },
        )
        with pytest.raises(InjectedFault):
            store.append("digest-0", sample_record())

    def test_injected_corruption_is_skipped_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        install({"site": "store.append.write", "action": "corrupt", "nth": 2})
        store.append("digest-0", sample_record(0))
        store.append("digest-1", sample_record(1))  # corrupted in place
        store.append("digest-2", sample_record(2))
        # ``corrupt`` is silent at write time (bit rot): detection
        # happens at read time, where the NUL byte breaks JSON parsing.
        assert store.digests() == {"digest-0", "digest-2"}
        assert [entry["line"] for entry in store.corrupt_lines] == [2]
        # The unrecorded digest is exactly what resume would recompute.
        store.append("digest-1", sample_record(1))
        assert store.digests() == {"digest-0", "digest-1", "digest-2"}


class TestCacheChecksums:
    def test_round_trip_is_checksummed(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "a" * 64
        document = {"digest": digest, "record": sample_record()}
        path = cache.put(digest, document)
        assert path is not None
        envelope = json.loads(path.read_text())
        assert set(envelope) == {"checksum", "payload"}
        assert cache.get(digest) == document
        assert cache.pop_corruptions() == []

    @pytest.mark.parametrize(
        "record",
        [
            {"name": "Zürich → Kraków", "emoji": "\U0001f680", "tab": "a\tb"},
            {"floats": [0.1, 1e-300, 1e300, -0.0, 15.05, 2.0 / 3.0, 7.0]},
            {"nested": {"z": [1, {"b": None, "a": [True, False]}], "a": {}},
             "empty": [], "quote": 'say "hi"\n'},
        ],
        ids=["non-ascii", "floats", "nested"],
    )
    def test_entry_bytes_are_the_one_call_envelope(self, tmp_path, record):
        # put() encodes the payload once and splices it into the
        # envelope; the file must still hold exactly the bytes of
        # encoding the whole envelope in one sorted-keys call.
        cache = ScheduleCache(tmp_path / "cache")
        digest = "f" * 64
        document = {"digest": digest, "record": record, "timing": {"s": 0.25}}
        path = cache.put(digest, document)
        body = json.dumps(document, sort_keys=True)
        assert path.read_text() == json.dumps(
            {
                "checksum": hashlib.sha256(body.encode()).hexdigest(),
                "payload": document,
            },
            sort_keys=True,
        )
        assert cache.get(digest) == document

    def test_legacy_unwrapped_entry_still_served(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "b" * 64
        document = {"digest": digest, "record": sample_record()}
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(document))
        assert cache.get(digest) == document

    def test_flipped_byte_quarantined(self, tmp_path):
        # Valid JSON, valid shape, wrong bytes: only the checksum sees it.
        cache = ScheduleCache(tmp_path / "cache")
        digest = "c" * 64
        document = {"digest": digest, "record": sample_record(1)}
        path = cache.put(digest, document)
        envelope = json.loads(path.read_text())
        envelope["payload"]["record"]["value"] = 2
        path.write_text(json.dumps(envelope))
        assert cache.get(digest) is None
        assert not path.exists()  # moved, not deleted: forensics
        (corruption,) = cache.pop_corruptions()
        assert corruption["reason"] == "checksum mismatch"
        quarantined = corruption["quarantined_to"]
        assert quarantined and json.loads(
            open(quarantined).read()
        )["payload"]["record"]["value"] == 2

    def test_unparseable_entry_quarantined(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "d" * 64
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text('{"checksum": "x", "payload": tor')
        assert cache.get(digest) is None
        (corruption,) = cache.pop_corruptions()
        assert corruption["reason"] == "unreadable entry"

    def test_wrong_digest_quarantined(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "e" * 64
        document = {"digest": "f" * 64, "record": sample_record()}
        cache.path_for(digest).parent.mkdir(parents=True)
        cache.path_for(digest).write_text(json.dumps(document))
        assert cache.get(digest) is None
        (corruption,) = cache.pop_corruptions()
        assert corruption["reason"] == "digest mismatch"

    def test_injected_read_error_quarantines(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "a1" + "f" * 62
        cache.put(digest, {"digest": digest, "record": sample_record()})
        install(
            {"site": "cache.get.read", "action": "raise", "probability": 1.0}
        )
        assert cache.get(digest) is None
        (corruption,) = cache.pop_corruptions()
        assert corruption["reason"] == "unreadable entry"

    def test_torn_cache_write_heals_on_retry(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "b2" + "e" * 62
        install(
            {
                "site": "cache.put.write",
                "action": "torn_write",
                "probability": 1.0,
            }
        )
        document = {"digest": digest, "record": sample_record()}
        assert cache.put(digest, document) is not None
        assert cache.get(digest) == document


class TestCacheDegradation:
    def test_enospc_flips_read_only_with_one_warning(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        served = "c3" + "d" * 62
        document = {"digest": served, "record": sample_record()}
        cache.put(served, document)
        install(
            {
                "site": "cache.put.write",
                "action": "raise",
                "errno": "ENOSPC",
                "probability": 1.0,
            }
        )
        with pytest.warns(CacheDegradedWarning):
            assert cache.put("d4" + "c" * 62, document) is None
        assert cache.degraded
        # ENOSPC is an answer: exactly one attempt, no retries.
        assert len(fired_faults()) == 1
        # Degraded means read-only, silently: no second warning, no
        # write attempts, but existing entries keep serving.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert cache.put("e5" + "b" * 62, document) is None
        assert cache.get(served) == document
        assert len(fired_faults()) == 1  # the skipped put never hit disk

    def test_other_write_errors_do_not_degrade(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        digest = "f6" + "a" * 62
        install(
            {
                "site": "cache.put.write",
                "action": "raise",
                "errno": "EIO",
                "nth": 1,
                "limit": 3,
            },
            {"site": "cache.put.write", "action": "raise", "nth": 2},
            {"site": "cache.put.write", "action": "raise", "nth": 3},
        )
        document = {"digest": digest, "record": sample_record()}
        assert cache.put(digest, document) is None
        assert not cache.degraded  # EIO exhausts retries, never degrades
        deconfigure()
        assert cache.put(digest, document) is not None
