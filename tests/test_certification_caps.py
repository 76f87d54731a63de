"""The certification enumeration cap warns instead of silently sampling.

ROADMAP follow-up: for P > 12 (or L > 12) the exhaustive per-level
subset sweep leaves the regime the certifier was designed for.  The
legacy ``method="exact"`` path caps each level at
``MAX_SUBSETS_PER_LEVEL`` subsets taken deterministically in canonical
order and emits a *structured*
:class:`~repro.analysis.reliability.CertificationCapWarning` naming the
cap and the enumerated fraction — never a silent weakening.  The
default ``method="auto"`` path retired the warning entirely: past the
cap it switches to bounds/projection/sampling with quantified output
(see ``tests/test_sampled_certification.py``).
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import obs
from repro.analysis import reliability as reliability_module
from repro.analysis.reliability import (
    CertificationCapWarning,
    ENUMERATION_CAP,
    fault_tolerance_certificate,
)
from repro.core.ftbar import schedule_ftbar
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected, single_bus
from repro.problem import ProblemSpec
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes


def _wide_problem(processors: int) -> ProblemSpec:
    """A tiny chain on a wide architecture (P > ENUMERATION_CAP)."""
    algorithm = from_dependencies([("I", "A"), ("A", "O")])
    architecture = single_bus(processors)
    exec_times = ExecutionTimes.uniform(
        algorithm.operation_names(), architecture.processor_names(), 2.0
    )
    comm_times = CommunicationTimes.uniform(
        algorithm.dependencies(), architecture.link_names(), 1.0
    )
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=exec_times,
        comm_times=comm_times,
        npf=1,
        name=f"wide-{processors}",
    )


def _linky_problem() -> ProblemSpec:
    """A tiny chain on an architecture with more links than the cap."""
    algorithm = from_dependencies([("I", "A"), ("A", "O")])
    architecture = fully_connected(6)  # 15 links > ENUMERATION_CAP
    exec_times = ExecutionTimes.uniform(
        algorithm.operation_names(), architecture.processor_names(), 2.0
    )
    comm_times = CommunicationTimes.uniform(
        algorithm.dependencies(), architecture.link_names(), 1.0
    )
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=exec_times,
        comm_times=comm_times,
        npf=1,
        name="linky-6",
    )


def test_below_the_cap_no_warning():
    result = schedule_ftbar(_wide_problem(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CertificationCapWarning)
        fault_tolerance_certificate(result.schedule, result.expanded_algorithm)


def test_processor_cap_emits_structured_warning():
    processors = ENUMERATION_CAP + 3
    result = schedule_ftbar(_wide_problem(processors))
    # Crash level 6 has C(15, 6) = 5005 > MAX_SUBSETS_PER_LEVEL subsets,
    # so the enumeration really is cut short.
    with pytest.warns(CertificationCapWarning) as captured:
        fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, max_failures=6,
            method="exact",
        )
    warning = captured[0].message
    assert warning.resources == ("processors",)
    assert warning.cap == ENUMERATION_CAP
    assert warning.enumerated_subsets < warning.total_subsets
    assert 0.0 < warning.sampled_fraction < 1.0
    assert "processors" in str(warning)
    assert str(ENUMERATION_CAP) in str(warning)


def test_full_enumeration_past_the_cap_does_not_warn():
    """Past the cap, every level may still fit under the per-level
    ceiling: the certificate then covers every subset and must not warn
    (nor emit ``warn.certification_cap``)."""
    processors = ENUMERATION_CAP + 1
    result = schedule_ftbar(_wide_problem(processors))
    exporter = obs.ListExporter()
    obs.enable(exporter)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", CertificationCapWarning)
            certificate = fault_tolerance_certificate(
                result.schedule, result.expanded_algorithm, method="exact"
            )
    finally:
        obs.disable()
    assert certificate.certified
    assert sum(level.total_subsets for level in certificate.levels) == sum(
        math.comb(processors, level.failures) for level in certificate.levels
    )
    assert not [
        line for line in exporter.lines
        if line.get("name") == "warn.certification_cap"
    ]


def test_truncated_levels_report_the_sampled_fraction(monkeypatch):
    monkeypatch.setattr(reliability_module, "MAX_SUBSETS_PER_LEVEL", 10)
    processors = ENUMERATION_CAP + 1
    result = schedule_ftbar(_wide_problem(processors))
    with pytest.warns(CertificationCapWarning) as captured:
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, method="exact"
        )
    warning = captured[0].message
    assert warning.enumerated_subsets < warning.total_subsets
    assert 0.0 < warning.sampled_fraction < 1.0
    assert f"{warning.sampled_fraction:.2%}" in str(warning)
    # Level totals honestly report the enumerated sample size, so the
    # masked fraction is over what was actually replayed.
    crash_2 = certificate.level(2)
    assert crash_2.total_subsets == 10
    # Sampling is deterministic: canonical order, first K subsets.
    with pytest.warns(CertificationCapWarning):
        again = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, method="exact"
        )
    assert [
        (level.failures, level.link_failures, level.masked_subsets,
         level.total_subsets)
        for level in again.levels
    ] == [
        (level.failures, level.link_failures, level.masked_subsets,
         level.total_subsets)
        for level in certificate.levels
    ]


def test_link_cap_emits_warning_naming_links():
    result = schedule_ftbar(_linky_problem())
    # Level (1 crash, 4 links) has 6 * C(15, 4) = 8190 subsets, past
    # MAX_SUBSETS_PER_LEVEL, so the enumeration really is cut short.
    with pytest.warns(CertificationCapWarning) as captured:
        fault_tolerance_certificate(
            result.schedule,
            result.expanded_algorithm,
            max_link_failures=4,
            method="exact",
        )
    warning = captured[0].message
    assert warning.resources == ("links",)
    assert warning.enumerated_subsets < warning.total_subsets
    assert "links" in str(warning)
