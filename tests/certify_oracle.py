"""Paper-literal certification oracle: one replay per (subset, instant).

The reference implementation the production certifier
(:func:`repro.analysis.reliability.fault_tolerance_certificate`) and
reliability sum (:func:`repro.analysis.reliability.schedule_reliability`)
are pinned against.  It enumerates every crash subset of every level in
canonical order and replays each one, at each crash instant, with the
object executor of ``tests/simulation_oracle.py`` — no compiled arrays,
no crash lanes, no pruning, no projection, no sampling.  It is exhaustive, so
only small instances are practical (every level is enumerated whatever
its size).

On any instance whose certificate levels all fit under
``MAX_SUBSETS_PER_LEVEL`` (and whose reliability sum has ``P, L <= 12``)
the production documents are byte-identical to this oracle's and the
reliability floats bit-identical: both enumerate in the same canonical
order and sum in the same order.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis import reliability as reliability_module
from repro.analysis import sampling
from repro.analysis.reliability import (
    FaultToleranceCertificate,
    ReliabilityReport,
    ToleranceLevel,
    event_boundary_times,
)
from repro.cli import main
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.schedule.serialization import load_json, problem_from_dict, save_json
from repro.simulation.failures import DetectionPolicy, FailureScenario
from repro.workloads.paper_example import build_problem
from tests.simulation_oracle import ScheduleSimulator


@contextlib.contextmanager
def _zeroed(*caps):
    saved = [(module, name, getattr(module, name)) for module, name in caps]
    try:
        for module, name, _ in saved:
            setattr(module, name, 0)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def sampled_certificates():
    """Within the ``with`` body every certificate level is sampled.

    ``MAX_SUBSETS_PER_LEVEL`` and ``EXACT_CELL_CAP`` drop to 0, so no
    level is enumerated or projected and only single-subset cells are
    answered exactly: the production ladder on a small instance whose
    truth this oracle knows.
    """
    return _zeroed(
        (reliability_module, "MAX_SUBSETS_PER_LEVEL"),
        (sampling, "EXACT_CELL_CAP"),
    )


def sampled_reliability():
    """Within the ``with`` body the reliability sum takes the sampled
    path (``ENUMERATION_CAP`` drops to 0; strata under
    ``EXACT_CELL_CAP`` are still enumerated)."""
    return _zeroed((reliability_module, "ENUMERATION_CAP"))


def masked(simulator, algorithm, processors, times, links=()) -> bool:
    """True when the subset is masked at every crash instant."""
    return all(
        simulator.run(
            FailureScenario.resource_crashes(processors, links, at=at)
        ).all_operations_delivered(algorithm)
        for at in times
    )


def certificate(
    schedule,
    algorithm,
    max_failures: int | None = None,
    crash_times: Iterable[float] = (0.0,),
    detection: DetectionPolicy = DetectionPolicy.NONE,
    max_link_failures: int | None = None,
    simulator: ScheduleSimulator | None = None,
) -> FaultToleranceCertificate:
    """The exhaustive combined certificate, one replay per scenario.

    ``simulator`` lets a caller read the replay work counters
    (``runs``, ``decisions``) afterwards.
    """
    if simulator is None:
        simulator = ScheduleSimulator(schedule, algorithm, detection)
    for name, value in (
        ("max_failures", max_failures),
        ("max_link_failures", max_link_failures),
    ):
        if value is not None and value < 0:
            raise SimulationError(f"{name} must be >= 0, got {value!r}")
    processors = schedule.processor_names()
    links = schedule.link_names()
    npl = getattr(schedule, "npl", 0)
    bound = schedule.npf + 1 if max_failures is None else max_failures
    bound = min(bound, len(processors))
    link_bound = npl if max_link_failures is None else max_link_failures
    link_bound = min(link_bound, len(links))
    times = tuple(crash_times)
    result = FaultToleranceCertificate(
        npf=min(schedule.npf, bound),
        crash_times=times,
        npl=min(npl, link_bound),
    )
    for size in range(bound + 1):
        for link_size in range(link_bound + 1):
            masked_count = total = 0
            for subset in itertools.combinations(processors, size):
                for link_subset in itertools.combinations(links, link_size):
                    total += 1
                    if masked(simulator, algorithm, subset, times, link_subset):
                        masked_count += 1
                    elif size <= schedule.npf and link_size <= npl:
                        if link_size:
                            result.breaking_combined.append(
                                (frozenset(subset), frozenset(link_subset))
                            )
                        else:
                            result.breaking_subsets.append(frozenset(subset))
            result.levels.append(
                ToleranceLevel(
                    size, masked_count, total, link_failures=link_size
                )
            )
    return result


def reliability(
    schedule,
    algorithm,
    failure_probabilities: Mapping[str, float],
    crash_times: Iterable[float] = (0.0,),
    detection: DetectionPolicy = DetectionPolicy.NONE,
    link_failure_probabilities: Mapping[str, float] | None = None,
) -> ReliabilityReport:
    """The exact ``2^P`` (or ``2^P x 2^L``) reliability sum.

    Each subset's probability mass is added, in canonical order, when
    the replay masks it; the guaranteed lower bound sums the masses of
    the subsets inside the (``Npf``, ``Npl``) hypothesis.
    """
    simulator = ScheduleSimulator(schedule, algorithm, detection)
    processors = schedule.processor_names()
    links = (
        schedule.link_names() if link_failure_probabilities is not None else ()
    )
    npl = getattr(schedule, "npl", 0)
    times = tuple(crash_times)
    total = masked_mass = guaranteed = 0.0
    evaluated = 0
    for size in range(len(processors) + 1):
        for subset in itertools.combinations(processors, size):
            proc_mass = 1.0
            for processor in processors:
                q = failure_probabilities[processor]
                proc_mass *= q if processor in subset else 1.0 - q
            for link_size in range(len(links) + 1):
                for link_subset in itertools.combinations(links, link_size):
                    evaluated += 1
                    mass = proc_mass
                    for link in links:
                        q = link_failure_probabilities[link]
                        mass *= q if link in link_subset else 1.0 - q
                    if mass == 0.0:
                        continue
                    if size <= schedule.npf and link_size <= npl:
                        guaranteed += mass
                    if size == 0 and link_size == 0:
                        total += mass
                    elif masked(
                        simulator, algorithm, subset, times, link_subset
                    ):
                        total += mass
                        masked_mass += mass
    return ReliabilityReport(
        reliability=min(total, 1.0),
        masked_probability_mass=masked_mass,
        evaluated_subsets=evaluated,
        guaranteed_lower_bound=min(guaranteed, 1.0),
    )


def run_certify(
    json_path,
    problem=None,
    npl: int | None = None,
    boundaries: bool = False,
    probabilities: Iterable[float] = (),
) -> tuple[int, str]:
    """Run ``repro certify`` and diff what it reports against the oracle.

    The certificate document it writes to ``json_path`` must equal the
    oracle certificate's byte for byte, and each ``q=`` line must print
    the oracle's reliability report, on the same schedule.  Returns the
    exit code and stdout.
    """
    argv = ["certify", "--json", str(json_path)]
    if problem is not None:
        argv.append(str(problem))
    if npl is not None:
        argv += ["--npl", str(npl)]
    if boundaries:
        argv.append("--boundaries")
    for q in probabilities:
        argv += ["--probability", str(q)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    out = stdout.getvalue()

    spec = (
        build_problem()
        if problem is None
        else problem_from_dict(load_json(problem))
    )
    if npl is not None:
        spec.npl = npl
    result = schedule_ftbar(spec)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    times = event_boundary_times(schedule) if boundaries else (0.0,)
    expected = Path(json_path).with_suffix(".oracle.json")
    save_json(
        certificate(schedule, algorithm, crash_times=times).to_dict(),
        expected,
    )
    assert Path(json_path).read_bytes() == expected.read_bytes()
    for q in probabilities:
        report = reliability(
            schedule,
            algorithm,
            {p: q for p in schedule.processor_names()},
            crash_times=times,
        )
        assert f"q={q:g}: {report}\n" in out, (q, report, out)
    return code, out
