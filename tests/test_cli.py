"""End-to-end tests of the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.schedule.serialization import load_json

#: A shipped four-processor problem (P1..P4, npf = 1).
EXAMPLE = (
    Path(__file__).resolve().parent.parent
    / "examples" / "problem_fc4_npf1_npl1.json"
)

#: ``--crash`` options that silence every processor of :data:`EXAMPLE`.
CRASH_ALL = [
    arg for proc in ("P1", "P2", "P3", "P4") for arg in ("--crash", proc)
]


class TestExample:
    def test_example_prints_reference_table(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert "15.05" in output
        assert "paper" in output

    def test_example_with_gantt(self, capsys):
        assert main(["example", "--gantt"]) == 0
        output = capsys.readouterr().out
        assert "P1" in output and "L1.2" in output


class TestGenerateAndSchedule:
    def test_generate_writes_problem(self, tmp_path, capsys):
        target = tmp_path / "problem.json"
        assert main(["generate", str(target), "--operations", "8", "--seed", "5"]) == 0
        document = load_json(target)
        assert len(document["algorithm"]["operations"]) == 8

    def test_schedule_prints_table(self, tmp_path, capsys):
        target = tmp_path / "problem.json"
        main(["generate", str(target), "--operations", "8", "--seed", "5"])
        capsys.readouterr()
        assert main(["schedule", str(target)]) == 0
        output = capsys.readouterr().out
        assert "makespan" in output
        assert "resource" in output

    def test_schedule_saves_output(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        schedule = tmp_path / "schedule.json"
        main(["generate", str(problem), "--operations", "6", "--seed", "2"])
        assert main(["schedule", str(problem), "--output", str(schedule)]) == 0
        document = load_json(schedule)
        assert document["operations"]

    def test_schedule_npf_override(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--npf", "1"])
        capsys.readouterr()
        assert main(["schedule", str(problem), "--npf", "0"]) == 0
        assert "npf=0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key,value",
        [("npf", "1"), ("npf", True), ("npf", 1.7), ("npf", -1),
         ("npl", "1"), ("npl", False)],
        ids=["npf-string", "npf-bool", "npf-float", "npf-negative",
             "npl-string", "npl-bool"],
    )
    def test_schedule_rejects_non_integer_hypothesis(
        self, tmp_path, capsys, key, value
    ):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--seed", "2"])
        document = load_json(problem)
        document[key] = value
        problem.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["schedule", str(problem)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {key} must be an integer >= 0, got {value!r}"
        ]

    def test_schedule_infeasible_problem_reports_error(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--processors", "2"])
        capsys.readouterr()
        assert main(["schedule", str(problem), "--npf", "3"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_all_single_crashes(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "7"])
        capsys.readouterr()
        assert main(["simulate", str(problem)]) == 0
        output = capsys.readouterr().out
        assert "P1 fails at t=0" in output

    def test_simulate_explicit_crash(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "7"])
        capsys.readouterr()
        assert main(["simulate", str(problem), "--crash", "P1@0.5"]) == 0
        output = capsys.readouterr().out
        assert "outputs delivered" in output

    def test_simulate_with_detection(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "7"])
        capsys.readouterr()
        assert (
            main(
                [
                    "simulate",
                    str(problem),
                    "--crash",
                    "P2",
                    "--detection",
                    "timeout-array",
                ]
            )
            == 0
        )

    def test_lost_outputs_exit_one(self, capsys):
        assert main(["simulate", str(EXAMPLE), *CRASH_ALL]) == 1
        assert "OUTPUTS LOST" in capsys.readouterr().out

    def test_masked_crash_exits_zero(self, capsys):
        assert main(["simulate", str(EXAMPLE), "--crash", "P2@1"]) == 0
        assert "outputs delivered at" in capsys.readouterr().out

    def test_detection_choices_match_the_policy_enum(self):
        from repro.cli.common import DETECTION_CHOICES
        from repro.simulation import DetectionPolicy

        assert DETECTION_CHOICES == tuple(p.value for p in DetectionPolicy)


class TestIterate:
    def test_nominal_iterations(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "7"])
        capsys.readouterr()
        assert main(["iterate", str(problem), "--iterations", "3"]) == 0
        output = capsys.readouterr().out
        assert "3 iterations" in output
        assert "iteration 2" in output

    def test_iterate_with_crash(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "7"])
        capsys.readouterr()
        assert (
            main(
                [
                    "iterate",
                    str(problem),
                    "--iterations",
                    "2",
                    "--crash",
                    "P1@0",
                    "--detection",
                    "timeout-array",
                ]
            )
            == 0
        )
        assert "outputs at" in capsys.readouterr().out

    def test_lost_outputs_exit_one(self, capsys):
        argv = ["iterate", str(EXAMPLE), "--iterations", "2", *CRASH_ALL]
        assert main(argv) == 1
        assert "OUTPUTS LOST" in capsys.readouterr().out


class TestValidateAndReliability:
    def test_validate_ok(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "9"])
        capsys.readouterr()
        assert main(["validate", str(problem)]) == 0
        assert "schedule valid" in capsys.readouterr().out

    def test_validate_direct_links(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "8", "--seed", "9"])
        capsys.readouterr()
        assert main(["validate", str(problem), "--direct-links"]) == 0

    def test_reliability_certificate(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--seed", "4",
              "--processors", "3"])
        capsys.readouterr()
        assert main(["certify", str(problem)]) == 0
        output = capsys.readouterr().out
        assert "CERTIFIED" in output

    def test_reliability_with_probability(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--seed", "4",
              "--processors", "3"])
        capsys.readouterr()
        assert main(["certify", str(problem), "--probability", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "q=0.05: reliability" in output
        assert "mean iterations" in output

    @pytest.mark.parametrize(
        "verdict,code", [("certified", 0), ("refuted", 1), ("estimated", 2)]
    )
    def test_reliability_exit_code_follows_certify(
        self, tmp_path, capsys, monkeypatch, verdict, code
    ):
        """With a reliability figure, ``certify`` still exits with the
        certificate verdict's code."""
        from repro.analysis import reliability as reliability_module

        class Certificate:
            certified = verdict == "certified"

            def __init__(self):
                self.verdict = verdict

            def __str__(self):
                return f"verdict: {verdict}"

        problem = tmp_path / "problem.json"
        main(["generate", str(problem), "--operations", "6", "--seed", "4",
              "--processors", "3"])
        # The command imports the certificate function when it runs, so
        # patching its defining module reaches it.
        monkeypatch.setattr(
            reliability_module,
            "fault_tolerance_certificate",
            lambda *args, **kwargs: Certificate(),
        )
        assert main(
            ["certify", str(problem), "--probability", "0.05"]
        ) == code
        output = capsys.readouterr().out
        assert f"verdict: {verdict}" in output
        assert "q=0.05: reliability" in output


class TestMissingInput:
    @pytest.mark.parametrize(
        "command,name",
        [("schedule", "missing.json"), ("certify", "missing.json"),
         ("trace", "missing")],
    )
    def test_missing_path_is_one_error_line(
        self, tmp_path, capsys, command, name
    ):
        missing = tmp_path / name
        assert main([command, str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: No such file or directory: {missing}"
        ]
        assert "Traceback" not in captured.out


#: Every subcommand that reads a problem or trace file from a path.
_FILE_COMMANDS = (
    "schedule", "simulate", "report", "iterate", "validate",
    "certify", "trace", "stats",
)

#: A problem document whose ``architecture`` section is not an object.
_BAD_PROBLEM_SECTION = {
    "npf": 0,
    "algorithm": {"operations": [{"name": "A"}]},
    "architecture": 5,
    "exec_times": {"entries": []},
    "comm_times": {"entries": []},
}

#: A trace whose span line carries a non-object ``attrs`` section.
_BAD_TRACE_SECTION = (
    '{"type": "meta", "v": 1, "schema": "repro-trace", "pid": 1, '
    '"started_wall": 0.0}\n'
    '{"type": "span", "v": 1, "name": "x", "id": 1, "dur": 0.1, '
    '"attrs": 5}\n'
)


def _bad_input(tmp_path, case: str, command: str):
    """The path of one malformed input of kind ``case``."""
    path = tmp_path / "input.json"
    if case == "missing":
        return tmp_path / "missing.json"
    if case == "directory":
        return tmp_path
    if case == "empty":
        path.write_text("")
    elif case == "bad-json":
        path.write_text('{"npf": 0}\n{not json\n{"npf": 1}\n')
    elif case == "top-level-list":
        path.write_text("[]\n")
    elif command in ("trace", "stats"):
        path.write_text(_BAD_TRACE_SECTION)
    else:
        path.write_text(json.dumps(_BAD_PROBLEM_SECTION))
    return path


class TestMalformedInput:
    @pytest.mark.parametrize("command", _FILE_COMMANDS)
    @pytest.mark.parametrize(
        "case",
        ("missing", "directory", "empty", "bad-json", "top-level-list",
         "wrong-section-type"),
    )
    def test_one_error_line_no_traceback(
        self, tmp_path, capsys, command, case
    ):
        path = _bad_input(tmp_path, case, command)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("section", ("exec_times", "comm_times"))
    def test_boolean_time_is_one_error_line(self, tmp_path, capsys, section):
        # ``"time": true`` used to load as 1.0 and schedule.
        document = json.loads(EXAMPLE.read_text())
        document[section]["entries"][0]["time"] = True
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(document))
        assert main(["schedule", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines == ["error: invalid time value True"], lines
        assert captured.out == ""

    @pytest.mark.parametrize("command", ("simulate", "iterate"))
    @pytest.mark.parametrize(
        "crash", ("P1@abc", "P9", "P9@2", "P1@nan", "P1@-1")
    )
    def test_bad_crash_is_one_error_line(self, capsys, command, crash):
        # A bad time used to end in a traceback, and an unknown
        # processor was simulated as the nominal run.
        assert main([command, str(EXAMPLE), "--crash", crash]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert captured.out == ""


#: A valid campaign spec (one tiny job) for the ``--plan`` cases.
_SPEC = {
    "name": "malformed",
    "workloads": [{"family": "random", "size": 4}],
    "measures": ["ftbar"],
}

#: A valid plan for the spec cases (never reached: the spec fails first).
_PLAN = {
    "seed": 0,
    "triggers": [
        {"site": "worker.execute", "action": "raise", "probability": 0.5}
    ],
}

#: Wrongly typed or missing campaign spec fields.
_BAD_SPECS = {
    "wrong-section-type": {**_SPEC, "workloads": 5},
    "missing-section": {"name": "malformed"},
    "probabilities-string": {
        **_SPEC, "measures": ["ftbar", "reliability"],
        "reliability": {"probabilities": "x"},
    },
    "confidence-string": {
        **_SPEC, "measures": ["ftbar", "reliability"],
        "reliability": {"confidence": "x"},
    },
    "exact-method": {
        **_SPEC, "measures": ["ftbar", "reliability"],
        "reliability": {"method": "exact"},
    },
    "sampled-method": {
        **_SPEC, "measures": ["ftbar", "reliability"],
        "reliability": {"method": "sampled"},
    },
    "option-npl-string": {**_SPEC, "options": {"npl": "1"}},
    "option-npl": {**_SPEC, "options": {"npl": 1}},
    "option-bool-string": {**_SPEC, "options": {"duplication": "no"}},
    "removed-option": {**_SPEC, "options": {"link_insertion": True}},
}

#: Malformed-file cases shared by specs and plans.
_FILE_CASES = ("missing", "directory", "empty", "bad-json", "top-level-list")

_CAMPAIGN_COMMANDS = {
    "campaign-run": ["campaign", "run", "{spec}", "--quiet", "--no-cache"],
    "campaign-status": ["campaign", "status", "{spec}"],
    "campaign-report": ["campaign", "report", "{spec}"],
    "campaign-init": ["campaign", "init", "{spec}", "--dir", "{dir}"],
    "chaos-run-spec": ["chaos", "run", "{spec}", "--plan", "{plan}"],
    "chaos-run-plan": ["chaos", "run", "{spec}", "--plan", "{plan}"],
}


def _bad_document(tmp_path, case: str, name: str, wrong: dict):
    """A malformed JSON input of kind ``case`` (``wrong`` when typed)."""
    path = tmp_path / name
    if case == "missing":
        return tmp_path / "missing.json"
    if case == "directory":
        return tmp_path
    if case == "empty":
        path.write_text("")
    elif case == "bad-json":
        path.write_text('{"name": "x",\n{not json\n')
    elif case == "top-level-list":
        path.write_text("[]\n")
    else:
        path.write_text(json.dumps(wrong))
    return path


class TestMalformedCampaignInput:
    """``campaign run|status|report|init`` and ``chaos run`` turn every
    malformed spec or plan into one ``error:`` line and exit 1."""

    @pytest.mark.parametrize(
        "command,case",
        [
            (command, case)
            for command in sorted(_CAMPAIGN_COMMANDS)
            if command != "chaos-run-plan"
            for case in _FILE_CASES + tuple(_BAD_SPECS)
        ]
        + [
            ("chaos-run-plan", case)
            for case in _FILE_CASES + ("wrong-field-type",)
        ],
    )
    def test_one_error_line_no_traceback(
        self, tmp_path, capsys, command, case
    ):
        good_spec = tmp_path / "good-spec.json"
        good_spec.write_text(json.dumps(_SPEC))
        good_plan = tmp_path / "good-plan.json"
        good_plan.write_text(json.dumps(_PLAN))
        if command == "chaos-run-plan":
            spec = good_spec
            plan = _bad_document(
                tmp_path, case, "plan.json",
                {"triggers": [{**_PLAN["triggers"][0], "probability": "x"}]},
            )
        else:
            spec = _bad_document(
                tmp_path, case, "spec.json", _BAD_SPECS.get(case)
            )
            plan = good_plan
        argv = [
            arg.format(spec=spec, plan=plan, dir=tmp_path / "campaign")
            for arg in _CAMPAIGN_COMMANDS[command]
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "case,expected",
        [
            ("probabilities-string", "'reliability.probabilities' must be "
             "a list of numbers"),
            ("confidence-string", "'reliability.confidence' must be a number"),
            ("missing-section", "missing the required field 'workloads'"),
            ("exact-method", "'reliability.method' was retired"),
            ("sampled-method", 'only "auto" is accepted'),
            ("option-bool-string", "'options.duplication' must be a boolean"),
            ("removed-option", "unknown scheduler options: ['link_insertion']"),
            ("option-npl", "unknown scheduler options: ['npl']"),
        ],
    )
    def test_spec_errors_name_the_field(
        self, tmp_path, capsys, case, expected
    ):
        spec = _bad_document(tmp_path, case, "spec.json", _BAD_SPECS[case])
        assert main(["campaign", "report", str(spec)]) == 1
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign-run", "campaign-report"])
    def test_npl_option_is_one_error_line(self, tmp_path, capsys, command):
        # Npl belongs to the problem (the npls axis); a spec that still
        # names it as a scheduler option fails before any job runs or
        # any cached record is read.
        spec = _bad_document(
            tmp_path, "option-npl", "spec.json", _BAD_SPECS["option-npl"]
        )
        argv = [
            arg.format(spec=spec, dir=tmp_path / "campaign")
            for arg in _CAMPAIGN_COMMANDS[command]
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: unknown scheduler options: ['npl']"
        ]
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("backend", [None, "local", "serial"])
    def test_dir_without_the_directory_backend_is_one_error_line(
        self, tmp_path, capsys, backend
    ):
        # --dir only means something to the directory backend; any
        # other run used to ignore it silently and create no directory.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_SPEC))
        argv = ["campaign", "run", str(spec), "--no-cache",
                "--dir", str(tmp_path / "D")]
        if backend is not None:
            argv += ["--backend", backend]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --dir "), lines
        assert "Traceback" not in captured.out
        assert not (tmp_path / "D").exists()
        assert not (tmp_path / "spec-results.jsonl").exists()

    def test_top_level_list_error_names_the_type(self, tmp_path, capsys):
        spec = _bad_document(tmp_path, "top-level-list", "spec.json", None)
        assert main(["campaign", "report", str(spec)]) == 1
        assert "must be a JSON object, got list" in capsys.readouterr().err


class TestCertifyArguments:
    """Out-of-range sampling parameters and bounds end in one
    ``error:`` line instead of a vacuous or mislabelled verdict."""

    @pytest.mark.parametrize(
        "flag,value",
        [("--confidence", "1.5"), ("--confidence", "0"), ("--budget", "0"),
         ("--budget", "-5"), ("--links", "-1")],
    )
    def test_bad_value_is_one_error_line(self, capsys, flag, value):
        assert main(["certify", flag, value]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "CERTIFIED" not in captured.out


class TestBench:
    def test_bench_npf_small(self, capsys):
        assert main(["bench", "npf", "--graphs", "1"]) == 0
        assert "Npf" in capsys.readouterr().out

    def test_bench_ablation_small(self, capsys):
        assert main(["bench", "ablation", "--graphs", "1"]) == 0
        assert "variant" in capsys.readouterr().out

    def test_bench_without_figure_or_mode_errors(self, capsys):
        assert main(["bench"]) == 2
        assert "figure is required" in capsys.readouterr().err

    def test_bench_smoke_counters_match_pins(self, capsys):
        assert main(["bench", "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "perf smoke ok" in output
        assert "pressure_evaluations" in output
        assert "pair_evaluations" in output

    def test_bench_smoke_detects_counter_drift(self, capsys, monkeypatch):
        from repro.cli import bench

        drifted = {
            label: dict(pins)
            for label, pins in bench._PERF_SMOKE_PINS.items()
        }
        drifted["ftbar-N40-npf1"]["pressure_evaluations"] += 1
        monkeypatch.setattr(bench, "_PERF_SMOKE_PINS", drifted)
        assert main(["bench", "--smoke"]) == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestCertifyBatchLine:
    #: Copied from ``_BATCH_LINE`` in ``perfbench/workloads.py``, which
    #: parses this line out of ``repro certify`` runs.
    BENCHMARK_PATTERN = re.compile(
        r"batch engine: (\d+) scenario verdicts — (\d+) simulated .*?, "
        r"(\d+) pruned as nominal-equivalent, (\d+) memo hits, "
        r"(\d+) event decisions, (\d+) copied"
    )

    @pytest.mark.parametrize("boundaries", [False, True])
    def test_batch_line_matches_benchmark_pattern(self, boundaries, capsys):
        argv = ["certify", str(EXAMPLE.with_name("problem_ring4_npl1.json"))]
        assert main(argv + ["--boundaries"] * boundaries) == 0
        out = capsys.readouterr().out
        match = self.BENCHMARK_PATTERN.search(out)
        assert match is not None, out
        scenarios, simulated, _, _, decisions, copied = map(
            int, match.groups()
        )
        assert 0 < decisions and copied == 0
        assert (simulated > 0) == boundaries
        assert scenarios > simulated

    def test_batch_line_reports_crash_lanes(self, capsys):
        """At crash instant 0 every verdict is a lane, none a replay;
        the counters end the line so existing parsers still match."""
        assert main(["certify"]) == 0
        line = next(
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("batch engine:")
        )
        match = re.search(
            r"(\d+) scenario verdicts — (\d+) simulated .*"
            r"(\d+) event decisions, (\d+) copied, "
            r"(\d+) lanes in (\d+) passes$",
            line,
        )
        assert match is not None, line
        scenarios, simulated, _, _, lanes, passes = map(int, match.groups())
        assert simulated == 0
        assert 0 < lanes < scenarios and passes >= 1
