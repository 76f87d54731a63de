"""Content-addressed validation: each problem content is validated once.

``validated_once`` runs the full ``ProblemSpec.validate`` the first time
a content is scheduled and, for that content at another ``npf`` /
``npl``, only the checks that depend on them
(``ProblemSpec.validate_replication``).  These tests pin the call count
of a campaign-grid-shaped run and the error texts of the
replication-only path.
"""

from __future__ import annotations

import pytest

from repro.campaign import run_campaign
from repro.campaign.jobs import build_problem
from repro.campaign.spec import WorkloadSpec
from repro.core.compile import reset_compile_cache
from repro.core.ftbar import FTBARScheduler
from repro.exceptions import ReproError
from repro.problem import ProblemSpec
from tests.test_grid_sharing import grid_shaped_spec


@pytest.fixture(autouse=True)
def cold_memo():
    reset_compile_cache()
    yield
    reset_compile_cache()


@pytest.fixture
def validations(monkeypatch):
    """Counts of full and replication-only validations."""
    counts = {"full": 0, "replication": 0}
    full, replication = ProblemSpec.validate, ProblemSpec.validate_replication

    def counting_full(self):
        counts["full"] += 1
        return full(self)

    def counting_replication(self):
        counts["replication"] += 1
        return replication(self)

    monkeypatch.setattr(ProblemSpec, "validate", counting_full)
    monkeypatch.setattr(ProblemSpec, "validate_replication", counting_replication)
    return counts


def test_campaign_grid_validates_each_content_once(validations):
    # 24 contents, each scheduled at npf 1, npf 2 and the non-FT
    # baseline's npf 0: one full validation each, two replication-only.
    report = run_campaign(grid_shaped_spec(), backend="serial")
    assert report.executed == 48
    assert validations == {"full": 24, "replication": 48}


def message(error: pytest.ExceptionInfo) -> tuple[type, str]:
    return type(error.value), str(error.value)


@pytest.mark.parametrize(
    "topology, change",
    [("star", {"npl": 1}), ("fully_connected", {"npf": 4})],
    ids=["npl-routes", "replica-count"],
)
def test_infeasible_variant_of_a_validated_content_fails_the_same(
    validations, topology, change
):
    problem = build_problem(
        WorkloadSpec(family="random", size=8), topology, 4, 1, 1.0, 3
    )
    FTBARScheduler(problem)
    assert validations == {"full": 1, "replication": 0}
    variant = problem.replace(**change)
    with pytest.raises(ReproError) as fresh:
        variant.validate()
    with pytest.raises(ReproError) as memoized:
        FTBARScheduler(variant)
    assert validations == {"full": 2, "replication": 1}
    assert message(memoized) == message(fresh)
    # A failed variant is not remembered as passed.
    with pytest.raises(ReproError):
        FTBARScheduler(variant)
    assert validations["replication"] == 2
