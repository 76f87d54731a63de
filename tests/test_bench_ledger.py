"""``benchmarks/bench_runtime.py`` must never lose recorded data.

A run without ``--full`` may refresh smoke-scale sections but must keep
every section recorded at full scale, and only a direct run writes
``BENCH_runtime.json`` — the pytest benches leave the file alone.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import bench_runtime

SCALED = (
    "run_reference_sweep",
    "run_hbp_sweep",
    "run_campaign_compile_reuse",
    "run_campaign_jobs_sweep",
    "run_campaign_backend_scaling",
    "run_size_grid",
    "run_cold_start",
)


@pytest.fixture()
def ledger(tmp_path, monkeypatch):
    """Point the bench at a scratch file; stub every sweep by its scale."""
    path = tmp_path / "BENCH_runtime.json"
    monkeypatch.setattr(bench_runtime, "_RESULT_PATH", path)
    for name in SCALED:
        monkeypatch.setattr(
            bench_runtime, name,
            lambda full=False, *args, name=name: {"by": name, "full": full},
        )
    monkeypatch.setattr(bench_runtime, "run_phase_breakdown", lambda: {})
    return path


def test_smoke_run_keeps_full_sections(ledger):
    bench_runtime.write_bench_json(full=True)
    recorded = json.loads(ledger.read_text())
    assert recorded["ftbar_kernel_vs_reference"]["full"] is True
    assert set(recorded["scale"].values()) == {"full"}

    bench_runtime.write_bench_json(full=False)
    after = json.loads(ledger.read_text())
    for section in recorded["scale"]:
        assert after[section] == recorded[section], section
    assert after["scale"] == recorded["scale"]


def test_smoke_run_fills_missing_sections(ledger):
    ledger.write_text(json.dumps({"symmetry_grid": {"kept": True}}))
    bench_runtime.write_bench_json(full=False)
    recorded = json.loads(ledger.read_text())
    assert recorded["symmetry_grid"] == {"kept": True}
    assert recorded["ftbar_kernel_vs_reference"]["full"] is False
    assert recorded["scale"]["ftbar_kernel_vs_reference"] == "smoke"
    assert "ftbar_size_grid" not in recorded  # recorded at full scale only


def test_pytest_bench_does_not_write_the_ledger(ledger, monkeypatch):
    monkeypatch.setattr(
        bench_runtime, "run_reference_sweep",
        lambda full=False: {
            "40": {
                "kernel_s": 0.001, "reference_s": 0.002, "speedup": 2.0,
                "pressure_evaluations": 1,
                "reference_pressure_evaluations": 2,
            }
        },
    )
    printed = {}
    bench_runtime.bench_runtime_kernel_vs_reference(
        lambda function, *args: function(*args),
        lambda name, text: printed.setdefault(name, text),
    )
    assert not ledger.exists()
    assert "N=  40" in printed["runtime_kernel_vs_reference"]


def test_profile_section_records_its_scale(ledger, monkeypatch):
    monkeypatch.setattr(
        bench_runtime, "run_profile",
        lambda operations: {"operations": operations},
    )
    bench_runtime.write_bench_json(full=True, profile=True)
    recorded = json.loads(ledger.read_text())
    assert recorded["profile_top"] == {"operations": 300}
    assert recorded["scale"]["profile_top"] == "full"

    bench_runtime.write_bench_json(full=False, profile=True)
    after = json.loads(ledger.read_text())
    assert after["profile_top"] == {"operations": 300}
    assert after["scale"]["profile_top"] == "full"


def test_smoke_flag_measures_cold_start_and_writes_nothing(
    ledger, monkeypatch, capsys
):
    point = {
        "cpu_s": 0.1, "peak_rss_mb": 20.0, "repro_modules": 34,
        "repro_source_lines": 7000, "other_modules": 117,
    }
    monkeypatch.setattr(
        bench_runtime, "run_cold_start",
        lambda repeats=7: {"schedule": point, "config": {"repeats": repeats}},
    )
    assert bench_runtime.main(["--smoke"]) == 0
    assert not ledger.exists()
    assert "cold schedule: 100 ms CPU" in capsys.readouterr().err
