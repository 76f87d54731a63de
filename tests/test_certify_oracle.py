"""``repro certify`` against the per-scenario oracle, end to end.

The CLI's certificate document and reliability lines on the paper
example (crashes at every event boundary, q = 0.05) and on the two
link-tolerant example problems must equal what the paper-literal
one-replay-per-scenario enumeration of ``tests/certify_oracle.py``
computes on the same schedule, and each verdict must be ``certified``
(exit code 0).
"""

from pathlib import Path

import pytest

from tests.certify_oracle import run_certify

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_paper_example_with_boundaries_matches_oracle(tmp_path):
    code, out = run_certify(
        tmp_path / "certificate.json", boundaries=True, probabilities=(0.05,)
    )
    assert code == 0
    assert "CERTIFIED" in out


@pytest.mark.parametrize(
    "name", ["problem_ring4_npl1.json", "problem_fc4_npf1_npl1.json"]
)
def test_example_problem_matches_oracle(tmp_path, name):
    code, out = run_certify(
        tmp_path / "certificate.json", problem=EXAMPLES / name
    )
    assert code == 0
    assert "link(s)" in out
