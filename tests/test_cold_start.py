"""Cold-start import guard: a process imports only what its command runs.

Each check starts a fresh interpreter, runs one import or one CLI
command and reads back the set of modules loaded at exit.  Module sets
are deterministic, so this is the noise-free anchor of the cold-start
budget: no networkx or numpy in the common commands, and no subsystem
(campaign, chaos harness, experiment sweeps) a command does not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"

#: Prints the loaded module names as the process exits, whatever the
#: exit path (``SystemExit`` from the CLI included).
PROBE = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: sys.stderr.write("
    "'\\nMODULES ' + json.dumps(sorted(sys.modules)) + '\\n'))\n"
)

LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.baselines", "repro.campaign",
    "repro.core", "repro.faultinject", "repro.graphs", "repro.hardware",
    "repro.schedule", "repro.simulation", "repro.timing", "repro.workloads",
)


def loaded_modules(code: str) -> set[str]:
    """Module names loaded by a fresh interpreter running ``code``."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE + code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    marker = done.stderr.rindex("\nMODULES ")
    assert done.returncode in (0, 1, 2), done.stderr[:marker]
    return set(json.loads(done.stderr[marker + len("\nMODULES "):]))


def run_cli(*argv: str) -> str:
    return (
        "from repro.cli import main\n"
        f"raise SystemExit(main({list(argv)!r}))\n"
    )


def test_import_repro_loads_no_subpackage():
    modules = loaded_modules("import repro")
    assert {m for m in modules if m.startswith("repro")} == {"repro", "repro._lazy"}


def test_import_cli_loads_no_heavy_module():
    modules = loaded_modules("import repro.cli")
    for heavy in ("networkx", "numpy", "repro.campaign", "repro.analysis"):
        assert heavy not in modules


def test_import_cli_loads_only_the_registry():
    """``import repro.cli`` compiles the command registry and nothing
    else: no command module, no telemetry package."""
    modules = loaded_modules("import repro.cli")
    assert {m for m in modules if m.startswith("repro")} == {
        "repro", "repro._lazy", "repro.cli", "repro.exceptions",
    }


def test_import_campaign_runner_loads_no_dispatch():
    """The runner runs one worker in process: it loads the directory
    dispatch (processes, sockets, the lease protocol) only when it
    starts workers."""
    modules = loaded_modules("import repro.campaign.runner")
    for module in (
        "multiprocessing", "socket", "repro.campaign.backends",
        "repro.campaign.backends.directory",
    ):
        assert module not in modules, module


def test_one_worker_campaign_loads_no_dispatch(tmp_path):
    store = tmp_path / "results.jsonl"
    modules = loaded_modules(run_cli(
        "campaign", "run", str(EXAMPLES / "campaign_smoke.json"),
        "--no-cache", "--store", str(store), "--quiet",
    ))
    assert len(store.read_text().splitlines()) == 8  # the campaign ran
    for module in ("multiprocessing", "repro.campaign.backends.directory"):
        assert module not in modules, module


#: The ``repro.cli`` modules, by the commands they implement.
_CLI_MODULES = {module for _, _, module in cli.COMMANDS}


@pytest.mark.parametrize(
    "argv, own",
    [
        (("example",), "example"),
        (("schedule", str(EXAMPLES / "problem_fc4_npf1_npl1.json")),
         "schedule"),
        (("certify", str(EXAMPLES / "problem_fc4_npf1_npl1.json"),
          "--probability", "0.01"), "certify"),
    ],
    ids=["example", "schedule", "certify"],
)
def test_untraced_command_loads_no_trace_io_and_no_other_command(argv, own):
    modules = loaded_modules(run_cli(*argv))
    assert "repro.core.ftbar" in modules  # the command really ran
    assert f"repro.cli.{own}" in modules
    for module in ("repro.obs.export", "repro.obs.schema", *(
        f"repro.cli.{other}" for other in _CLI_MODULES - {own}
    )):
        assert module not in modules, f"{argv[0]} imported {module}"


@pytest.mark.parametrize(
    "code, ran",
    [
        (run_cli("example"), "repro.analysis.paper_example"),
        (run_cli("schedule", str(EXAMPLES / "problem_fc4_npf1_npl1.json")),
         "repro.core.ftbar"),
        (run_cli("certify", str(EXAMPLES / "problem_fc4_npf1_npl1.json"),
                 "--probability", "0.01"), "repro.analysis.reliability"),
        ("import repro.core, repro.analysis, repro.simulation.batch",
         "repro.simulation.batch"),
    ],
    ids=["example", "schedule", "certify", "import"],
)
def test_cold_path_defines_plain_classes(code, ran):
    """The modules a cold command loads define plain record classes
    (``repro._record``): ``@dataclass`` would load ``dataclasses`` and,
    through it, ``inspect`` and generate source for every class."""
    modules = loaded_modules(code)
    assert ran in modules  # the code really ran
    for module in ("dataclasses", "inspect"):
        assert module not in modules, module


def test_certify_builds_no_execution_trace():
    """The batch engine answers verdicts without the object-level
    :class:`~repro.simulation.trace.ExecutionTrace`."""
    modules = loaded_modules(
        run_cli("certify", str(EXAMPLES / "problem_fc4_npf1_npl1.json"))
    )
    assert "repro.simulation.batch" in modules  # the command really ran
    assert "repro.simulation.trace" not in modules


#: ``--help`` texts captured before the parser was split per command.
#: argparse's layout may differ between Python versions, so the texts
#: are compared on the version they were captured on.
HELP = json.loads((Path(__file__).with_name("cli_help_texts.json")).read_text())


def _help_text(argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit) as stop:
        cli.main([*argv, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


def _module_help(command: str) -> str:
    """The help text of ``command`` on a parser of its module's own."""
    name, *nested = command.split()
    parser = argparse.ArgumentParser(prog=f"ftbar {name}")
    cli._command_module(name).add_arguments(parser, name)
    for word in nested:
        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = commands.choices[word]
    return parser.format_help()


@pytest.mark.parametrize("command", list(HELP["texts"]))
def test_help_text_unchanged(command, capsys, monkeypatch):
    """Each help text is the one the single whole parser printed, so no
    command lost an argument to the per-command parser."""
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    text = _help_text(command.split(), capsys)
    if command:  # on any version: ``main`` added all the module adds
        assert text == _module_help(command)
    if f"{sys.version_info[0]}.{sys.version_info[1]}" == HELP["python"]:
        assert text == HELP["texts"][command]


def test_every_command_has_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    top = " ".join(_help_text([], capsys).split())
    for name, summary, _ in cli.COMMANDS:
        assert f"{name} {summary}" in top
        assert _help_text([name], capsys).startswith(f"usage: ftbar {name}")


#: What a replay-only command (``simulate``, ``iterate``) must not load:
#: the batch certification engine and the reliability analysis.
_NO_CERTIFICATION = ("repro.simulation.batch", "repro.analysis.reliability")


@pytest.mark.parametrize(
    "argv, also_absent",
    [
        (("schedule", str(EXAMPLES / "problem_fc4_npf1_npl1.json")), ()),
        (("certify", str(EXAMPLES / "problem_fc4_npf1_npl1.json")), ()),
        (
            ("simulate", str(EXAMPLES / "problem_fc4_npf1_npl1.json"),
             "--crash", "P1"),
            _NO_CERTIFICATION,
        ),
        (
            ("iterate", str(EXAMPLES / "problem_fc4_npf1_npl1.json"),
             "--crash", "P1"),
            _NO_CERTIFICATION,
        ),
    ],
    ids=["schedule", "certify", "simulate", "iterate"],
)
def test_cold_command_loads_only_what_it_runs(argv, also_absent):
    modules = loaded_modules(run_cli(*argv))
    assert "repro.core.ftbar" in modules  # the command really ran
    for heavy in (
        "networkx",
        "numpy",
        "repro.campaign",
        "repro.faultinject.chaos",
        "repro.analysis.experiments",
        *also_absent,
    ):
        assert heavy not in modules, f"{argv[0]} imported {heavy}"


def test_schedule_loads_only_the_kernel_engine():
    """The kernel is the only FTBAR engine: no object planner, no pool."""
    modules = loaded_modules(
        run_cli("schedule", str(EXAMPLES / "problem_fc4_npf1_npl1.json"))
    )
    assert "repro.core.kernel" in modules  # the command really ran
    for module in (
        "repro.core.placement",
        "repro.core.pressure",
        "repro.core.minimize",
        "repro.core.parallel",
        "concurrent.futures",
    ):
        assert module not in modules, f"schedule imported {module}"


def test_object_planner_lives_only_in_the_oracle():
    """``SchedulingKernel.place`` is the only placement path in ``src/``."""
    import importlib.util

    assert importlib.util.find_spec("repro.core.placement") is None


def test_example_loads_no_experiment_sweep():
    modules = loaded_modules(run_cli("example"))
    assert "repro.analysis.paper_example" in modules  # the command ran
    for heavy in (
        "networkx",
        "numpy",
        "repro.analysis.experiments",
        "repro.baselines.hbp",
        "repro.workloads.random_dag",
        "repro.campaign",
    ):
        assert heavy not in modules, f"example imported {heavy}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_large_problem_schedules_without_numpy():
    """The kernel's one selection sweep is pure Python at every size."""
    modules = loaded_modules(
        "import sys, types\n"
        "from repro.core.ftbar import schedule_ftbar\n"
        "from repro.workloads.random_dag import (\n"
        "    RandomWorkloadConfig, generate_problem,\n"
        ")\n"
        "problem = generate_problem(RandomWorkloadConfig(\n"
        "    operations=400, ccr=1.0, processors=4, npf=1, seed=3,\n"
        "))\n"
        "assert len(problem.algorithm) * 4 > 1280\n"
        "schedule_ftbar(problem)\n"
        "sys.modules['scheduled'] = types.ModuleType('scheduled')\n"
    )
    assert "scheduled" in modules  # the schedule really ran
    assert "numpy" not in modules


def test_untraced_example_builds_no_execution_trace():
    """Figure 8's degraded lengths are read off the replay arrays."""
    modules = loaded_modules(run_cli("example"))
    assert "repro.simulation.compiled" in modules  # the crashes ran
    assert "repro.simulation.trace" not in modules


def test_failure_injection_builds_no_execution_trace():
    """A campaign job's failure scenarios are read off the replay arrays."""
    modules = loaded_modules(
        "from repro.campaign import CampaignSpec, WorkloadSpec\n"
        "from repro.campaign.jobs import execute_job, expand_jobs\n"
        "from repro.campaign.spec import FailureSpec\n"
        "spec = CampaignSpec(name='inject', "
        "workloads=(WorkloadSpec(family='random', size=6),), "
        "topologies=('fully_connected',), processors=(3,), npfs=(1,), "
        "seeds=(1,), measures=('ftbar',), "
        "failures=(FailureSpec(processors=(0,)), "
        "FailureSpec(processors=(0, 1), at=1.0)))\n"
        "(job,) = expand_jobs(spec)\n"
        "assert len(execute_job(job)['record']['failures']) == 2\n"
    )
    assert "repro.simulation.compiled" in modules  # the crashes ran
    assert "repro.simulation.trace" not in modules
