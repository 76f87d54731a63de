"""Content identity: pinned digests and the one-pass canonical encoder.

A content hash keys the campaign cache and seeds sampled certification,
so one changed byte of the canonical form orphans every cache entry.
The literal pins below hold the digests of shipped problems and their
FTBAR schedules; the property diffs :func:`content_hash` against the
two-pass oracle of ``tests/content_hash_oracle.py`` on arbitrary nested
documents (the job-digest pin lives in ``tests/test_reliability_campaign.py``).
"""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.jobs import expand_jobs
from repro.campaign.spec import load_campaign
from repro.core.ftbar import schedule_ftbar
from repro.schedule.serialization import (
    content_hash,
    load_json,
    problem_content_hash,
    problem_from_dict,
    schedule_content_hash,
)
from tests.content_hash_oracle import oracle_content_hash

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestPinnedDigests:
    def test_paper_example(self, paper_problem, paper_result):
        assert problem_content_hash(paper_problem) == (
            "20961952799c5198639dfeb75109aac81dfbf2f9cf33f61415ab3c0f405ce7ba"
        )
        assert schedule_content_hash(paper_result.schedule) == (
            "862600f2acb141a914a7b33ef1e9a10ea4e2b5628b3dc67f02eca309d70844ea"
        )

    def test_link_tolerant_example(self):
        problem = problem_from_dict(
            load_json(EXAMPLES / "problem_fc4_npf1_npl1.json")
        )
        schedule = schedule_ftbar(problem).schedule
        # The schedule document carries per-comm route indices.
        assert any(comm.route for comm in schedule.all_comms())
        assert problem_content_hash(problem) == (
            "f46ba4cebf0ce521a1533d641de31ecaa133b58ded742aedfda422f5dd71837d"
        )
        assert schedule_content_hash(schedule) == (
            "093ef08ecf9db283938941c54bb61aa5c08ea9519dbb0f27be3b8acf2bdb3d98"
        )

    def test_campaign_smoke_digests_match_the_committed_list(self):
        # CI's campaign-smoke job diffs its store against the same list.
        spec = load_campaign(EXAMPLES / "campaign_smoke.json")
        committed = (EXAMPLES / "campaign_smoke.digests").read_text().split()
        assert sorted(job.digest for job in expand_jobs(spec)) == committed


class TestCanonicalForm:
    def test_integral_floats_hash_as_ints(self):
        assert content_hash("t", {"a": [3.0, -0.0]}) == content_hash("t", {"a": [0, 3]})

    def test_lists_hash_as_sets(self):
        assert content_hash("t", [{"b": 1}, "x", 2]) == content_hash("t", (2, "x", {"b": 1}))

    def test_non_dict_mappings_are_objects(self):
        document = {"a": {"b": [1.5]}}
        proxy = MappingProxyType({"a": MappingProxyType({"b": (1.5,)})})
        assert content_hash("t", proxy) == content_hash("t", document)

    def test_kind_is_part_of_the_digest(self):
        assert content_hash("a", {}) != content_hash("b", {})

    @pytest.mark.parametrize("value", [{1, 2}, {"k": object()}, {(1, 2): 0}])
    def test_non_json_values_raise_like_the_oracle(self, value):
        with pytest.raises(TypeError):
            oracle_content_hash("t", value)
        with pytest.raises(TypeError):
            content_hash("t", value)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 2.0 ** 53, 0.1, math.inf, -math.inf, math.nan]),
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60).map(float),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=8),
)
#: Keys of one mutually comparable family per object, as json needs.
_KEY_FAMILIES = (
    st.text(max_size=6),
    st.one_of(st.integers(), st.booleans(), _FLOATS),
    st.none(),
)


def _containers(children):
    objects = st.one_of(*[
        st.dictionaries(keys, children, max_size=4) for keys in _KEY_FAMILIES
    ])
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        objects,
        objects.map(MappingProxyType),
    )


_DOCUMENTS = st.recursive(_LEAVES, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_DOCUMENTS)
def test_content_hash_matches_the_two_pass_oracle(document):
    assert content_hash("doc", document) == oracle_content_hash("doc", document)
