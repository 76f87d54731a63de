"""Certificates and reliability sums past the exhaustive regime, pinned.

``tests/test_replay_corpus_pinned.py`` stops at P = 6, where every
level is enumerated and the reliability sum runs over all ``2^P``
subsets.  This corpus pins the wide path byte for byte: generated fully
connected, bus and star problems at P 16 and 32 (npf 1-2), whose
q = 0.01 reliability is the stratum sum of
:func:`repro.analysis.sampling.sampled_reliability`, and one fully
connected P 8 npl 1 problem whose 28 links send the combined sum there
too.  Each case pins:

* the SHA-256 of the certificate document (``to_dict()``);
* ``repr`` of the q = 0.01 reliability report (links at q = 0.01 too
  when the schedule is link-tolerant);
* the batch engine's work counters after both, on one shared engine.

The values were recorded while crash subsets still travelled as sorted
name tuples; the bitmask path must reproduce them.  Run this module as
a script to print the current values.
"""

import functools
import hashlib
import json
import random

import pytest

from repro.analysis.reliability import (
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.core.ftbar import schedule_ftbar
from repro.hardware.topologies import fully_connected, single_bus, star
from repro.problem import ProblemSpec
from repro.simulation.batch import BatchScenarioEngine
from repro.workloads.random_dag import (
    generate_algorithm,
    generate_comm_times,
    generate_exec_times,
)

TOPOLOGIES = {
    "fully_connected": fully_connected,
    "single_bus": single_bus,
    "star": star,
}

#: The ``BatchStats`` fields pinned, in order.
STATS = (
    "scenarios", "pruned_nominal", "memo_hits", "simulated", "decisions",
    "lanes", "lane_passes",
)

#: ``(topology, processors, npf, npl, operations)`` of the corpus.  The
#: 48-operation P 32 schedule involves every processor: its npf + 1
#: level is refuted by the closed-form bound and its reliability draws
#: samples.  The 40-operation bus schedule projects its npf + 1 level.
CASES = (
    ("fully_connected", 16, 1, 0, 12),
    ("fully_connected", 32, 2, 0, 12),
    ("fully_connected", 32, 2, 0, 48),
    ("single_bus", 16, 2, 0, 12),
    ("single_bus", 32, 1, 0, 12),
    ("single_bus", 32, 2, 0, 40),
    ("star", 16, 1, 0, 12),
    ("star", 32, 2, 0, 12),
    ("fully_connected", 8, 1, 1, 12),
)


@functools.lru_cache(maxsize=None)
def wide_schedule(
    topology: str, processors: int, npf: int, npl: int, operations: int
):
    """A seeded heterogeneous random-DAG schedule on one topology."""
    rng = random.Random(f"wide:{topology}:{processors}:{npf}:{npl}")
    algorithm = generate_algorithm(rng, operations)
    architecture = TOPOLOGIES[topology](processors)
    problem = ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=generate_exec_times(
            rng, algorithm, architecture.processor_names(), 10.0, True
        ),
        comm_times=generate_comm_times(
            rng, algorithm, architecture.link_names(), 10.0, True
        ),
        npf=npf,
        npl=npl,
        name=f"wide-{topology}-P{processors}-npf{npf}-npl{npl}-N{operations}",
    )
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def observe(
    topology: str, processors: int, npf: int, npl: int, operations: int
):
    """Certificate digest, reliability ``repr`` and engine counters."""
    schedule, algorithm = wide_schedule(
        topology, processors, npf, npl, operations
    )
    engine = BatchScenarioEngine(schedule, algorithm)
    certificate = fault_tolerance_certificate(
        schedule, algorithm, engine=engine
    )
    report = schedule_reliability(
        schedule,
        algorithm,
        {p: 0.01 for p in schedule.processor_names()},
        engine=engine,
        link_failure_probabilities=(
            {link: 0.01 for link in schedule.link_names()} if npl else None
        ),
    )
    document = json.dumps(certificate.to_dict(), sort_keys=True)
    stats = vars(engine.stats)
    return (
        hashlib.sha256(document.encode()).hexdigest(),
        repr(report),
        tuple(stats[name] for name in STATS),
    )


#: ``case -> (certificate SHA-256, reliability repr, counters)``.  The
#: three P 32 npf 2 certificates of 12 or 40 operations have only exact
#: and projected levels, so their documents read ``"method": "exact"``.
PINNED = {
    ('fully_connected', 16, 1, 0, 12): ('d2c5d8e98b27670560d26b858e7fc4b2f9e3414fedac969211089e64f6361834', "ReliabilityReport(reliability=0.9991079579273016, masked_probability_mass=0.14765018683242614, evaluated_subsets=92, guaranteed_lower_bound=0.9890671078374815, method='sampled', confidence=0.99, ci=(0.9991079579273016, 0.9993732632220189), samples=0, exhaustive_subsets=65536)", (228, 0, 130, 0, 83, 91, 2)),
    ('fully_connected', 32, 2, 0, 12): ('34d86117f0181038ac9614db79359bc1628b3705afc7a3b5a19eeaf192fa0d11', "ReliabilityReport(reliability=0.9995841972981242, masked_probability_mass=0.2746038613402708, evaluated_subsets=121, guaranteed_lower_bound=0.9960065527673192, method='sampled', confidence=0.99, ci=(0.9995841972981242, 1.0), samples=0, exhaustive_subsets=4294967296)", (1225, 0, 495, 0, 136, 575, 3)),
    ('fully_connected', 32, 2, 0, 48): ('aa079e4acaa1ffa5eb94bf4a621f7403a531952bf44e6269644fce8511974c8a', "ReliabilityReport(reliability=0.9996835734365487, masked_probability_mass=0.2747032374786953, evaluated_subsets=657, guaranteed_lower_bound=0.9960065527673192, method='sampled', confidence=0.99, ci=(0.9994782430275447, 0.9999965983028598), samples=128, exhaustive_subsets=4294967296)", (1185, 0, 531, 0, 1517, 653, 3)),
    ('single_bus', 16, 2, 0, 12): ('480b4c6bd52a105005c609738e00383ca422312dbe26eda431008a8c5f1a1766', "ReliabilityReport(reliability=0.9997943839222332, masked_probability_mass=0.14833661282735777, evaluated_subsets=79, guaranteed_lower_bound=0.9994920575907092, method='sampled', confidence=0.99, ci=(0.9997943839222332, 1.0), samples=0, exhaustive_subsets=65536)", (775, 0, 462, 0, 58, 298, 3)),
    ('single_bus', 32, 1, 0, 12): ('aff644dd548492b097dc2b9f78d07a62158bc99546e25d94a399c74a75557501', "ReliabilityReport(reliability=0.99980001, masked_probability_mass=0.2748196740421466, evaluated_subsets=11, guaranteed_lower_bound=0.9593174142472605, method='sampled', confidence=0.99, ci=(0.99980001, 0.99980398), samples=0, exhaustive_subsets=4294967296)", (539, 0, 122, 0, 32, 10, 2)),
    ('single_bus', 32, 2, 0, 40): ('34d86117f0181038ac9614db79359bc1628b3705afc7a3b5a19eeaf192fa0d11', "ReliabilityReport(reliability=0.9997943839222332, masked_probability_mass=0.2748140479643798, evaluated_subsets=79, guaranteed_lower_bound=0.9960065527673192, method='sampled', confidence=0.99, ci=(0.9997943839222332, 1.0), samples=0, exhaustive_subsets=4294967296)", (906, 0, 396, 0, 217, 298, 3)),
    ('star', 16, 1, 0, 12): ('8850e7f865ced11a9264ef6bc89bcc8192c9b9e1192c74fdc898e6e6850293ca', "ReliabilityReport(reliability=0.9897601929424324, masked_probability_mass=0.13830242184755703, evaluated_subsets=46, guaranteed_lower_bound=0.9890671078374815, method='sampled', confidence=0.99, ci=(0.9897601929424324, 0.9898404877078137), samples=0, exhaustive_subsets=65536)", (182, 0, 108, 0, 46, 45, 2)),
    ('star', 32, 2, 0, 12): ('6f4ea96cfb4aaa235c11d4cd6cb10f66f8b95fe50adcb47d2f72bf2bf06d752c', "ReliabilityReport(reliability=0.9994964451958244, masked_probability_mass=0.274516109237971, evaluated_subsets=121, guaranteed_lower_bound=0.9960065527673192, method='sampled', confidence=0.99, ci=(0.9994964451958244, 0.9999122478977003), samples=0, exhaustive_subsets=4294967296)", (1225, 0, 495, 0, 68, 575, 3)),
    ('fully_connected', 8, 1, 1, 12): ('14f373df9c42ce1fc242b25e6e61a651c35ef27f299bccb4b34a544b15e28a75', "ReliabilityReport(reliability=0.9996990596999998, masked_probability_mass=0.3032858416504264, evaluated_subsets=16, guaranteed_lower_bound=0.9655707805403175, method='sampled', confidence=0.99, ci=(0.9996990596999998, 0.9997089103), samples=0, exhaustive_subsets=68719476736)", (1088, 0, 870, 0, 36, 15, 2)),
}


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_wide_certification_pinned(case):
    assert observe(*case) == PINNED[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {observe(*case)!r},")
