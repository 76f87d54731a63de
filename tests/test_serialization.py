"""Round-trip tests for the JSON serialization layer."""

import math

import pytest

from repro.exceptions import SerializationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.operations import OperationKind
from repro.schedule.serialization import (
    algorithm_from_dict,
    algorithm_to_dict,
    architecture_from_dict,
    architecture_to_dict,
    comm_times_from_dict,
    comm_times_to_dict,
    exec_times_from_dict,
    exec_times_to_dict,
    load_json,
    problem_from_dict,
    problem_to_dict,
    rtc_from_dict,
    rtc_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.ftbar import schedule_ftbar
from repro.timing.constraints import RealTimeConstraints
from repro.workloads.paper_example import build_problem

from tests.util import uniform_problem
from repro.graphs.builder import diamond


class TestAlgorithmRoundTrip:
    def test_roundtrip_preserves_everything(self):
        graph = AlgorithmGraph("demo")
        graph.add_operation("I", OperationKind.EXTERNAL_IO)
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_dependency("I", "A", data_size=2.0)
        graph.add_dependency("M", "A")
        rebuilt = algorithm_from_dict(algorithm_to_dict(graph))
        assert rebuilt.name == "demo"
        assert rebuilt.operation_names() == graph.operation_names()
        assert rebuilt.dependencies() == graph.dependencies()
        assert rebuilt.data_size("I", "A") == 2.0
        assert rebuilt.operation("M").is_memory()

    def test_invalid_document_raises(self):
        with pytest.raises(SerializationError):
            algorithm_from_dict({"no_operations": []})


class TestArchitectureRoundTrip:
    def test_roundtrip(self, paper_problem):
        original = paper_problem.architecture
        rebuilt = architecture_from_dict(architecture_to_dict(original))
        assert rebuilt.processor_names() == original.processor_names()
        assert rebuilt.link_names() == original.link_names()
        assert rebuilt.link("L1.2").endpoints == original.link("L1.2").endpoints

    def test_bus_kind_preserved(self):
        from repro.hardware.topologies import single_bus

        rebuilt = architecture_from_dict(architecture_to_dict(single_bus(3)))
        assert rebuilt.link("BUS").is_bus()

    def test_invalid_document_raises(self):
        with pytest.raises(SerializationError):
            architecture_from_dict({"links": []})


class TestTimingRoundTrip:
    def test_exec_times_with_infinity(self, paper_problem):
        rebuilt = exec_times_from_dict(exec_times_to_dict(paper_problem.exec_times))
        assert rebuilt.time_of("A", "P2") == 1.5
        assert math.isinf(rebuilt.time_of("I", "P3"))

    def test_exec_times_document_encodes_inf_as_string(self, paper_problem):
        document = exec_times_to_dict(paper_problem.exec_times)
        inf_entries = [e for e in document["entries"] if e["time"] == "inf"]
        assert len(inf_entries) == 2  # (I, P3) and (O, P2)

    def test_comm_times_roundtrip(self, paper_problem):
        rebuilt = comm_times_from_dict(comm_times_to_dict(paper_problem.comm_times))
        assert rebuilt.time_of(("I", "A"), "L1.2") == 1.75

    def test_rtc_roundtrip(self):
        rtc = RealTimeConstraints(global_deadline=16.0, operation_deadlines={"O": 15.0})
        rebuilt = rtc_from_dict(rtc_to_dict(rtc))
        assert rebuilt.global_deadline == 16.0
        assert rebuilt.operation_deadlines == {"O": 15.0}

    def test_invalid_time_value(self):
        # Booleans are not times: ``isinstance(True, int)`` holds, and
        # ``true`` used to load as 1.0.
        for value in ("soon", True, False):
            with pytest.raises(SerializationError, match="invalid time value"):
                exec_times_from_dict(
                    {"entries": [{"operation": "A", "processor": "P", "time": value}]}
                )
            with pytest.raises(SerializationError, match="invalid time value"):
                comm_times_from_dict({"entries": [
                    {"source": "A", "target": "B", "link": "L", "time": value}
                ]})


class TestProblemRoundTrip:
    def test_roundtrip_is_schedulable(self, paper_problem):
        document = problem_to_dict(paper_problem)
        rebuilt = problem_from_dict(document)
        assert rebuilt.npf == 1
        result = schedule_ftbar(rebuilt)
        assert result.makespan == pytest.approx(15.05)

    def test_missing_section_raises(self):
        with pytest.raises(SerializationError):
            problem_from_dict({"name": "x"})


class TestScheduleRoundTrip:
    def test_roundtrip_preserves_events(self, paper_result):
        document = schedule_to_dict(paper_result.schedule)
        rebuilt = schedule_from_dict(document)
        assert rebuilt.makespan() == paper_result.schedule.makespan()
        assert rebuilt.replica_count() == paper_result.schedule.replica_count()
        assert rebuilt.comm_count() == paper_result.schedule.comm_count()
        assert rebuilt.npf == 1
        original_table = {
            (e.operation, e.replica): (e.processor, e.start, e.duplicated)
            for e in paper_result.schedule.all_operations()
        }
        rebuilt_table = {
            (e.operation, e.replica): (e.processor, e.start, e.duplicated)
            for e in rebuilt.all_operations()
        }
        assert original_table == rebuilt_table

    def test_invalid_document_raises(self):
        with pytest.raises(SerializationError):
            schedule_from_dict({"name": "x"})

    @pytest.mark.parametrize("key", ["npf", "npl"])
    @pytest.mark.parametrize("value", ["1", True, 1.7, -1])
    def test_hypothesis_must_be_a_non_negative_int(
        self, paper_result, key, value
    ):
        document = schedule_to_dict(paper_result.schedule)
        document[key] = value
        with pytest.raises(SerializationError, match=f"^{key} must be"):
            schedule_from_dict(document)


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        problem = uniform_problem(diamond(), processors=2)
        path = tmp_path / "problem.json"
        save_json(problem_to_dict(problem), path)
        assert problem_from_dict(load_json(path)).name == problem.name

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError, match="invalid JSON"):
            load_json(path)
