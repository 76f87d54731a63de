"""The record classes of the cold commands keep their public behaviour.

``repro schedule``, ``certify`` and ``example`` build these classes in
every process.  They are plain classes (``repro._record``); the values
below were recorded from the ``@dataclass`` definitions they replaced,
so each pins what callers see: the constructor's parameters in order
with the default each one leaves on an instance, the ``repr`` of one
representative instance, and the equality, hashing, ordering and
immutability facts the package and its tests rely on.
"""

import importlib
import inspect
import math

import pytest

#: ``class -> (required arguments, representative keyword arguments)``.
CASES = {
    "repro.graphs.operations.Operation": (("A",), {"kind": "mem"}),
    "repro.hardware.processor.Processor": (("P1",), {}),
    # Integer endpoints: a frozenset of two strings prints in hash order.
    "repro.hardware.link.Link": (("L1.2", (2, 1)), {}),
    "repro.timing.constraints.RtcViolation": (("A", 5.0, 6.5), {}),
    "repro.timing.constraints.RtcReport": (
        (False, 6.5), {"violations": ("v",)},
    ),
    "repro.timing.constraints.RealTimeConstraints": (
        (), {"global_deadline": 16.0, "operation_deadlines": {"A": 3.0}},
    ),
    "repro.problem.ProblemSpec": (
        ("alg", "arc", "exe", "com"), {"npf": 1, "name": "p", "npl": 1},
    ),
    "repro.core.options.SchedulerOptions": ((), {"symmetry": False}),
    "repro.core.ftbar.FTBARStats": ((), {"steps": 3, "wall_time_s": 0.5}),
    "repro.core.ftbar.StepRecord": (
        (1, ("A", "B"), "A", ("P1", "P2"), 2.5, {("A", "P1"): 1.0}, 4.0), {},
    ),
    "repro.core.ftbar.FTBARResult": (
        ("schedule", "rtc", "stats", "alg", {"M": ("M#read", "M#write")}), {},
    ),
    "repro.core.kernel.DuplicationStats": ((), {"attempts": 2, "kept": 1}),
    "repro.core.symmetry.Generator": (
        ((1, 0, 2), (0, 1), (0,), (1,)), {},
    ),
    "repro.core.symmetry._GeneratorView": (("group",), {}),
    "repro.analysis.sampling.FaultBounds": (
        (2, "A", ("P1", "P2"), None, (), None, 3, 2, 4, 6), {},
    ),
    "repro.analysis.sampling.ToleranceLevel": (
        (2, 5, 6), {"method": "sampled", "estimate": 0.8, "ci": (0.5, 0.9)},
    ),
    "repro.analysis.sampling._Cell": ((1, 0, 3, 4), {"drawn": 2}),
    "repro.analysis.sampling.ReliabilityReport": (
        (0.99, 0.25, 12, 0.98), {"method": "sampled", "confidence": 0.99,
                                 "ci": (0.97, 1.0), "samples": 64},
    ),
    "repro.analysis.reliability.FaultToleranceCertificate": (
        (1, (0.0,)), {"breaking_subsets": [frozenset({"P1"})]},
    ),
    "repro.simulation.failures._Interval": (("P1", 1.0), {}),
    "repro.simulation.failures.ProcessorFailure": (("P1", 1.0), {"until": 4.0}),
    "repro.simulation.failures.LinkFailure": (("L1.2", 0.0), {}),
    "repro.simulation.compiled.CompiledTrace": (
        ([2], [0.0], [1.5], [], [], [], []), {"decisions": 3},
    ),
    "repro.simulation.batch.BatchStats": ((), {"scenarios": 4, "lanes": 3}),
    "repro.analysis.metrics.ReplicationProfile": ((3, 6, 1, 4), {}),
    "repro.analysis.metrics.OutputLatency": (("O", 10.0, 12.5, "P2"), {}),
    "repro.analysis.metrics.LoadProfile": (
        ({"P1": 2.0}, {"L1.2": 1.0}, 4.0), {},
    ),
    "repro.analysis.paper_example.PaperExampleResults": (
        (15.05, 12.05, 8.0, 3.0, {"P1": 15.05}, True, 12, 9), {},
    ),
}

#: ``class -> (constructor, repr, frozen)``: each constructor parameter
#: in order, with the value its default leaves on an instance built
#: from the required arguments; the ``repr`` of the representative
#: instance of :data:`CASES`; whether assigning a field raises.
PINNED = {
    'repro.graphs.operations.Operation': ("name, kind=<OperationKind.COMPUTATION: 'comp'>", "Operation(name='A', kind=<OperationKind.MEMORY: 'mem'>)", True),
    'repro.hardware.processor.Processor': ('name', "Processor(name='P1')", True),
    'repro.hardware.link.Link': ("name, endpoints, kind=<LinkKind.POINT_TO_POINT: 'point-to-point'>", "Link(name='L1.2', endpoints=frozenset({1, 2}), kind=<LinkKind.POINT_TO_POINT: 'point-to-point'>)", True),
    'repro.timing.constraints.RtcViolation': ('subject, deadline, actual', "RtcViolation(subject='A', deadline=5.0, actual=6.5)", True),
    'repro.timing.constraints.RtcReport': ('satisfied, makespan, violations=()', "RtcReport(satisfied=False, makespan=6.5, violations=('v',))", True),
    'repro.timing.constraints.RealTimeConstraints': ('global_deadline=None, operation_deadlines={}', "RealTimeConstraints(global_deadline=16.0, operation_deadlines={'A': 3.0})", True),
    'repro.problem.ProblemSpec': ("algorithm, architecture, exec_times, comm_times, npf=0, rtc=RealTimeConstraints(global_deadline=None, operation_deadlines={}), name='problem', npl=0", "ProblemSpec(name='p', operations=3, processors=3, npf=1)", False),
    'repro.core.options.SchedulerOptions': ('duplication=True, processor_aware_pressure=False, symmetry=True', 'SchedulerOptions(duplication=True, processor_aware_pressure=False, symmetry=False)', True),
    'repro.core.ftbar.FTBARStats': ('steps=0, pressure_evaluations=0, cache_hits=0, duplication=DuplicationStats(attempts=0, kept=0, rolled_back=0, extra_replicas=0, pruned=0), wall_time_s=0.0, symmetry_pruned=0', 'FTBARStats(steps=3, pressure_evaluations=0, cache_hits=0, duplication=DuplicationStats(attempts=0, kept=0, rolled_back=0, extra_replicas=0, pruned=0), wall_time_s=0.5, symmetry_pruned=0)', False),
    'repro.core.ftbar.StepRecord': ('step, candidates, operation, processors, urgency, pressures, makespan', "StepRecord(step=1, candidates=('A', 'B'), operation='A', processors=('P1', 'P2'), urgency=2.5, pressures={('A', 'P1'): 1.0}, makespan=4.0)", True),
    'repro.core.ftbar.FTBARResult': ('schedule, rtc_report, stats, expanded_algorithm, memory_pairs', "FTBARResult(schedule='schedule', rtc_report='rtc', stats='stats', expanded_algorithm='alg', memory_pairs={'M': ('M#read', 'M#write')})", False),
    'repro.core.kernel.DuplicationStats': ('attempts=0, kept=0, rolled_back=0, extra_replicas=0, pruned=0', 'DuplicationStats(attempts=2, kept=1, rolled_back=0, extra_replicas=0, pruned=0)', False),
    'repro.core.symmetry.Generator': ('proc, moved_procs, moved_links, link_images', 'Generator(proc=(1, 0, 2), moved_procs=(0, 1), moved_links=(0,), link_images=(1,))', True),
    'repro.core.symmetry._GeneratorView': ('group', "_GeneratorView(group='group')", True),
    'repro.analysis.sampling.FaultBounds': ('min_replicas, witness_operation, processor_witness, link_cut, link_witness, link_witness_edge, involved_processors, involved_links, total_processors, total_links', "FaultBounds(min_replicas=2, witness_operation='A', processor_witness=('P1', 'P2'), link_cut=None, link_witness=(), link_witness_edge=None, involved_processors=3, involved_links=2, total_processors=4, total_links=6)", True),
    'repro.analysis.sampling.ToleranceLevel': ("failures, masked_subsets, total_subsets, link_failures=0, method='exact', population=None, samples=0, estimate=None, ci=None, breaking_found=False", "ToleranceLevel(failures=2, masked_subsets=5, total_subsets=6, link_failures=0, method='sampled', population=None, samples=0, estimate=0.8, ci=(0.5, 0.9), breaking_found=False)", True),
    'repro.analysis.sampling._Cell': ('k, j, weight, count, drawn=0, masked=0', '_Cell(k=1, j=0, weight=3, count=4, drawn=2, masked=0)', False),
    'repro.analysis.sampling.ReliabilityReport': ("reliability, masked_probability_mass, evaluated_subsets, guaranteed_lower_bound, method='exact', confidence=None, ci=None, samples=0, exhaustive_subsets=None", "ReliabilityReport(reliability=0.99, masked_probability_mass=0.25, evaluated_subsets=12, guaranteed_lower_bound=0.98, method='sampled', confidence=0.99, ci=(0.97, 1.0), samples=64, exhaustive_subsets=None)", True),
    'repro.analysis.reliability.FaultToleranceCertificate': ("npf, crash_times, levels=[], breaking_subsets=[], npl=0, breaking_combined=[], method='exact', confidence=None, samples=0, seed=None", "FaultToleranceCertificate(npf=1, crash_times=(0.0,), levels=[], breaking_subsets=[frozenset({'P1'})], npl=0, breaking_combined=[], method='exact', confidence=None, samples=0, seed=None)", False),
    'repro.simulation.failures._Interval': ('resource, at, until=inf', "_Interval(resource='P1', at=1.0, until=inf)", True),
    'repro.simulation.failures.ProcessorFailure': ('resource, at, until=inf', "ProcessorFailure(resource='P1', at=1.0, until=4.0)", True),
    'repro.simulation.failures.LinkFailure': ('resource, at, until=inf', "LinkFailure(resource='L1.2', at=0.0, until=inf)", True),
    'repro.simulation.compiled.CompiledTrace': ('op_status, op_start, op_end, comm_status, comm_start, comm_end, comm_delivered, knowledge={}, decisions=0, relaxed_fires=0, truncated=False', 'CompiledTrace(op_status=[2], op_start=[0.0], op_end=[1.5], comm_status=[], comm_start=[], comm_end=[], comm_delivered=[], knowledge={}, decisions=3, relaxed_fires=0, truncated=False)', False),
    'repro.simulation.batch.BatchStats': ('scenarios=0, pruned_nominal=0, memo_hits=0, simulated=0, decisions=0, copied=0, lanes=0, lane_passes=0', 'BatchStats(scenarios=4, pruned_nominal=0, memo_hits=0, simulated=0, decisions=0, copied=0, lanes=3, lane_passes=0)', False),
    'repro.analysis.metrics.ReplicationProfile': ('operations, replicas, duplicated, comms', 'ReplicationProfile(operations=3, replicas=6, duplicated=1, comms=4)', True),
    'repro.analysis.metrics.OutputLatency': ('operation, nominal, worst_single_crash, worst_crashed_processor', "OutputLatency(operation='O', nominal=10.0, worst_single_crash=12.5, worst_crashed_processor='P2')", True),
    'repro.analysis.metrics.LoadProfile': ('processor_busy, link_busy, makespan', "LoadProfile(processor_busy={'P1': 2.0}, link_busy={'L1.2': 1.0}, makespan=4.0)", True),
    'repro.analysis.paper_example.PaperExampleResults': ('ft_length, basic_length, non_ft_length, overhead, degraded, rtc_satisfied, replicas, comms', "PaperExampleResults(ft_length=15.05, basic_length=12.05, non_ft_length=8.0, overhead=3.0, degraded={'P1': 15.05}, rtc_satisfied=True, replicas=12, comms=9)", False),
}


def _class(path: str) -> type:
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def constructor(path: str) -> str:
    """The parameters of ``path``'s constructor and their defaults."""
    cls = _class(path)
    required, _ = CASES[path]
    instance = cls(*required)
    parts = []
    for parameter in list(inspect.signature(cls).parameters.values()):
        if parameter.default is inspect.Parameter.empty:
            parts.append(parameter.name)
        else:
            value = getattr(instance, parameter.name)
            parts.append(f"{parameter.name}={value!r}")
    return ", ".join(parts)


def representative(path: str):
    required, keywords = CASES[path]
    return _class(path)(*required, **keywords)


@pytest.mark.parametrize("path", list(CASES))
def test_constructor_parameters_and_defaults(path):
    assert constructor(path) == PINNED[path][0]


@pytest.mark.parametrize("path", list(CASES))
def test_repr(path):
    assert repr(representative(path)) == PINNED[path][1]


@pytest.mark.parametrize("path", list(CASES))
def test_frozen_classes_reject_assignment(path):
    instance = representative(path)
    name = next(iter(inspect.signature(type(instance)).parameters))
    value = getattr(instance, name)
    if PINNED[path][2]:
        with pytest.raises(AttributeError):
            setattr(instance, name, value)
    else:
        setattr(instance, name, value)
    assert getattr(instance, name) is value


@pytest.mark.parametrize("path", list(CASES))
def test_equal_fields_compare_equal(path):
    """Two instances built alike are equal; another class never is."""
    assert representative(path) == representative(path)
    assert representative(path) != object()


# ----------------------------------------------------------------------
# the facts callers rely on
# ----------------------------------------------------------------------

def test_operations_compare_hash_and_sort_by_name_only():
    from repro.graphs.operations import Operation, OperationKind

    a, b = Operation("A"), Operation("B")
    assert Operation("A", OperationKind.MEMORY) == a
    assert hash(Operation("A", "mem")) == hash(a) == hash(("A",))
    assert sorted([b, a]) == [a, b]
    assert a < b and b > a and not b < a
    assert len({a, Operation("A"), b}) == 2
    assert Operation("I", "extio").kind is OperationKind.EXTERNAL_IO
    with pytest.raises(ValueError):
        Operation("")


def test_processors_compare_hash_and_sort_by_name():
    from repro.hardware.processor import Processor

    p1, p2 = Processor("P1"), Processor("P2")
    assert sorted([p2, p1]) == [p1, p2]
    assert p1 < p2 and p2 > p1
    assert len({p1, Processor("P1"), p2}) == 2
    assert hash(p1) == hash(("P1",))
    with pytest.raises(ValueError):
        Processor("")


def test_links_are_hashable_values():
    from repro.hardware.link import Link, LinkKind

    link = Link("L", ["P1", "P2"])
    assert link.endpoints == frozenset({"P1", "P2"})
    assert link == Link.between("L", "P2", "P1")
    assert hash(link) == hash(Link.between("L", "P1", "P2"))
    assert link != Link.bus("L", ["P1", "P2"])
    assert Link("B", {"P1", "P2", "P3"}, "bus").kind is LinkKind.BUS
    with pytest.raises(ValueError):
        Link("L", {"P1", "P2", "P3"})


def test_scheduler_options_are_memo_keys():
    from repro.core.options import SchedulerOptions

    assert SchedulerOptions() == SchedulerOptions(True, False, True)
    assert SchedulerOptions(symmetry=False) != SchedulerOptions()
    memo = {SchedulerOptions(): 1, SchedulerOptions(duplication=False): 2}
    assert memo[SchedulerOptions()] == 1
    assert hash(SchedulerOptions()) == hash((True, False, True))


def test_failures_order_by_their_fields_within_one_class():
    from repro.exceptions import SimulationError
    from repro.simulation.failures import LinkFailure, ProcessorFailure

    late = ProcessorFailure("P1", 2.0)
    early = ProcessorFailure("P1", 0.5, 1.0)
    other = ProcessorFailure("P0", 3.0)
    assert sorted([late, early, other]) == [other, early, late]
    assert early < late and late > early
    assert ProcessorFailure("P1", 2.0) == late
    assert hash(ProcessorFailure("P1", 2.0)) == hash(late)
    assert ProcessorFailure("L", 0.0) != LinkFailure("L", 0.0)
    with pytest.raises(TypeError):
        ProcessorFailure("L", 0.0) < LinkFailure("L", 1.0)
    assert late.until == math.inf and late.permanent
    for bad in (("P1", -1.0), ("P1", 1.0, 1.0), ("P1", math.nan)):
        with pytest.raises(SimulationError):
            ProcessorFailure(*bad)


def test_generators_compare_by_value():
    from repro.core.symmetry import Generator

    generator = Generator((1, 0), (0, 1), (), ())
    assert generator == Generator((1, 0), (0, 1), (), ())
    assert generator != Generator((0, 1), (), (), ())
    assert hash(generator) == hash(Generator((1, 0), (0, 1), (), ()))


def test_value_records_compare_by_fields():
    from repro.analysis.sampling import ReliabilityReport
    from repro.core.ftbar import StepRecord
    from repro.simulation.batch import BatchStats

    assert BatchStats(lanes=3) == BatchStats(lanes=3) != BatchStats()
    assert ReliabilityReport(0.9, 0.1, 4, 0.8) != ReliabilityReport(
        0.9, 0.1, 4, 0.8, samples=1
    )
    record = StepRecord(1, (), "A", ("P1",), 0.0, {}, 1.0)
    assert record == StepRecord(1, (), "A", ("P1",), 0.0, {}, 1.0)
    assert record != StepRecord(2, (), "A", ("P1",), 0.0, {}, 1.0)


def test_constructor_checks_still_run():
    from repro.exceptions import ConstraintError, SchedulingError
    from repro.problem import ProblemSpec
    from repro.timing.constraints import RealTimeConstraints

    with pytest.raises(ConstraintError):
        RealTimeConstraints(global_deadline=0.0)
    with pytest.raises(ConstraintError):
        RealTimeConstraints(operation_deadlines={"A": -1.0})
    deadlines = {"A": 1.0}
    assert RealTimeConstraints(None, deadlines).operation_deadlines is not deadlines
    with pytest.raises(SchedulingError):
        ProblemSpec("alg", "arc", "exe", "com", npf=-1)
    with pytest.raises(SchedulingError):
        ProblemSpec("alg", "arc", "exe", "com", npl=-1)


def test_mutable_defaults_are_not_shared():
    from repro.analysis.reliability import FaultToleranceCertificate
    from repro.core.ftbar import FTBARStats
    from repro.problem import ProblemSpec
    from repro.simulation.compiled import CompiledTrace

    first, second = FTBARStats(), FTBARStats()
    assert first.duplication is not second.duplication
    one = FaultToleranceCertificate(1, (0.0,))
    assert one.levels is not FaultToleranceCertificate(1, (0.0,)).levels
    assert CompiledTrace([], [], [], [], [], [], []).knowledge == {}
    spec = ProblemSpec("alg", "arc", "exe", "com")
    assert spec.rtc.is_trivial()


if __name__ == "__main__":  # print the values to pin
    for path in CASES:
        instance = representative(path)
        try:
            name = next(iter(inspect.signature(type(instance)).parameters))
            setattr(instance, name, getattr(instance, name))
            frozen = False
        except AttributeError:
            frozen = True
        print(f"    {path!r}: ({constructor(path)!r}, "
              f"{repr(representative(path))!r}, {frozen}),")
