"""The repository benchmark: one command, three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload design-loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

For each workload it measures the set-up time (fresh interpreters
importing the program, median of several), then starts one fresh worker
process (``perfbench/workloads.py``) that drives the program through its
public entry points as a closed loop with one client for ``--seconds``
seconds and checks every output.  It prints every metric by name and
unit, records the run under ``perfbench/results/`` (full-scale runs and
shortened "smoke" runs in separate directories), and prints one JSON
object as its last line.  It exits non-zero when any check failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload with the layer boundaries wrapped and
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("design-loop", "wide-arch", "campaign-grid")

#: What each workload's fresh process imports before it is ready.
IMPORTS = {
    "design-loop": "import repro.cli",
    "wide-arch": "import repro.core, repro.analysis, repro.simulation.batch",
    "campaign-grid": "import repro.campaign",
}

#: Fresh interpreters timed per set-up measurement (the median is kept).
SETUP_REPEATS = 7

#: A run must end within this many seconds.
DEADLINE_S = 170.0

#: Units of the printed figures that ``BENCHMARK.json`` does not list.
TABLE_UNITS = {
    "latency_geomean_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "warm_latency_p50_s": "s", "jobs_per_s": "jobs/s", "ops_per_s": "ops/s",
    "error_rate": "fraction", "latency_tail_percentile": "%",
    "latency_tail_beyond": "count", "latency_samples": "count",
    "warm_samples": "count", "cycles": "count", "rerun_s": "s", "cold_s": "s",
}


def clean_env(root: Path) -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_SWEEP_WORKERS", "REPRO_TRACE")
        and not k.startswith("REPRO_FAULT_")
    }
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def code_hash(root: Path) -> str:
    """Content hash of the program and benchmark sources."""
    digest = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(workload: str, env: dict, root: Path) -> float:
    """Median wall time of a fresh interpreter importing the program."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", IMPORTS[workload]],
            env=env, cwd=root, capture_output=True, timeout=60,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(done.stderr.decode(errors="replace").strip()[-300:])
    return statistics.median(walls)


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """The ``BENCHMARK.json`` end-to-end metrics, plus table-only figures."""
    cold, warm = result["cold"], result["warm"]
    tail, percentile, beyond = stats.tail(cold)
    # Each request at its fastest over the cycles (every cycle does the
    # same work, and host noise only ever adds time), then the geometric
    # mean over the request mix, so no single request's inputs set it.
    sizes = result["sizes"]

    def throughput(samples: dict) -> float:
        return stats.geomean([sizes[name] / min(times) for name, times in samples.items()])
    metrics = {
        "setup_s": setup_s,
        "latency_geomean_s": stats.geomean(cold),
        "latency_p50_s": stats.median(cold),
        "latency_tail_s": tail,
        "warm_latency_p50_s": stats.median(warm),
        "ops_per_s": throughput(result["samples"]),
        "ops_per_cpu_s": throughput(result["cpu_samples"]),
        "jobs_per_s": len(sizes) / sum(min(walls) for walls in result["samples"].values()),
        "schedule_length_ratio": stats.geomean(result["ratios"]),
        "certified_share": sum(result["verdicts"]) / len(result["verdicts"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / result["attempted"],
    }
    info = {
        "latency_tail_percentile": percentile,
        "latency_tail_beyond": beyond,
        "latency_samples": len(cold),
        "warm_samples": len(warm),
        "cycles": result["cycles"],
    }
    for key, values in result["extra"].items():
        info[key] = stats.median(values)
    return metrics, info


def run_one(workload: str, args, root: Path, bench: dict) -> tuple[dict, bool, int, int]:
    """Measure one workload; returns (metrics, correct, attempted, failed)."""
    started = time.perf_counter()
    env = clean_env(root)
    # Untimed warm-up: fills the bytecode caches, as an installed
    # program would have them.
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        env=env, cwd=root, capture_output=True, timeout=120, check=True,
    )
    setup_s = measure_setup(workload, env, root) if not args.trace else None
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(
            [
                sys.executable, str(HERE / "workloads.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", str(workdir), "--out", str(out),
            ],
            env=env, cwd=root, timeout=max(10.0, budget),
        )
        if done.returncode != 0 or not out.exists():
            raise RuntimeError(f"{workload} worker exited {done.returncode}")
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        metrics = {name: result["layers"][name] for name in wanted}
        info = {k: v for k, v in result["layers"].items() if k not in metrics}
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        all_metrics, info = end_to_end(result, setup_s)
        metrics = {name: all_metrics[name] for name in wanted}
        # Figures outside BENCHMARK.json are printed, never recorded.
        info = {**{k: v for k, v in all_metrics.items() if k not in metrics}, **info}

    scale = "full" if args.seconds >= bench["run_seconds"] else "smoke"
    errors = list(result["errors"])
    errors += ledger_check(root, workload, args, scale, result["fingerprint"])
    failed = result["failed"] + (1 if len(errors) > len(result["errors"]) else 0)
    correct = failed == 0

    print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{scale} scale, {result['cycles']} cycles)")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for name, value in info.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, TABLE_UNITS.get(name, ''))}")
    if args.trace:
        dominant = max(result["layer_names"], key=lambda n: result["layers"][n])
        print(f"  dominant layer: {dominant}")
    for error in errors:
        print(f"  CHECK FAILED: {error}", file=sys.stderr)
    return metrics, correct, result["attempted"], failed


def ledger_check(root: Path, workload: str, args, scale: str, fingerprint: dict) -> list[str]:
    """Record this run; a rerun of the same code and seed must not drift."""
    results = HERE / "results" / scale
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    entry = {"code": code_hash(root), "fingerprint": fingerprint}
    errors = []
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("code") == entry["code"] and previous["fingerprint"] != fingerprint:
            errors.append(f"drift: outputs or counters differ from the recorded run in {path.name}")
    path.write_text(json.dumps(entry, sort_keys=True))
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout with src/repro", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics: dict = {}
    correct, attempted, failed = True, 0, 0
    for workload in workloads:
        metrics, ok, tried, lost = run_one(workload, args, root, bench)
        correct &= ok
        attempted += tried
        failed += lost
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        for name, value in metrics.items():
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            all_metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
