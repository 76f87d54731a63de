"""Past the old enumeration cap the certificate stays exact and silent.

For P > 12 (or L > 12) the per-level subset sweep leaves the regime the
exhaustive certifier was designed for.  The certifier enumerates every
level that fits under ``MAX_SUBSETS_PER_LEVEL`` exactly whatever P is,
and answers the others with bounds, projection or sampling (see
``tests/test_sampled_certification.py``) — it never truncates a level
and never warns.
"""

from __future__ import annotations

import math
import warnings

from repro import obs
from repro.analysis.reliability import (
    ENUMERATION_CAP,
    fault_tolerance_certificate,
)
from repro.core.ftbar import schedule_ftbar
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import single_bus
from repro.problem import ProblemSpec
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests import certify_oracle


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


def test_below_the_cap_no_warning():
    result = schedule_ftbar(_wide_problem(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fault_tolerance_certificate(result.schedule, result.expanded_algorithm)


def test_full_enumeration_past_the_cap_does_not_warn():
    """Past the cap, every level may still fit under the per-level
    ceiling: the certificate then covers every subset exactly, matches
    the per-scenario oracle byte for byte, and neither warns nor emits a
    ``warn.*`` trace event."""
    processors = ENUMERATION_CAP + 1
    result = schedule_ftbar(_wide_problem(processors))
    exporter = obs.ListExporter()
    obs.enable(exporter)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certificate = fault_tolerance_certificate(
                result.schedule, result.expanded_algorithm
            )
    finally:
        obs.disable()
    assert certificate.certified
    assert sum(level.total_subsets for level in certificate.levels) == sum(
        math.comb(processors, level.failures) for level in certificate.levels
    )
    oracle = certify_oracle.certificate(
        result.schedule, result.expanded_algorithm
    )
    assert certificate.to_dict() == oracle.to_dict()
    assert not [
        line for line in exporter.lines
        if line.get("name", "").startswith("warn.")
    ]
