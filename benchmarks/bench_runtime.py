"""E6 — scheduling-time comparison: FTBAR is cheaper than HBP.

Section 6.2: "The time complexity of FTBAR is less than the time
complexity of HBP.  The reason is that HBP investigates more
possibilities than FTBAR when selecting the processor for a candidate
operation" — HBP evaluates every ordered processor *pair* per candidate
(O(P²)) where FTBAR ranks single processors (O(P)).

Two timed bodies (one per scheduler) let pytest-benchmark print the
direct comparison; the recorded table adds a small N sweep.

The module also measures the perf trajectory of the scheduling engines
and records it in ``BENCH_runtime.json`` at the repository root:

* ``ftbar_kernel_vs_reference`` — the compiled kernel (with and without
  symmetry pruning) against the paper-literal reference engine
  (``ftbar_reference`` of ``tests/ftbar_oracle.py``, the kernel's test
  oracle), with the kernel's work
  counters (candidates evaluated, cache hits, scratch-buffer reuses);
* ``profile_top`` — the top cProfile hotspots of one compiled
  scheduling run (``--profile``; N=300 at full scale, N=60 otherwise),
  so perf PRs can prove where the time went before/after;
* ``campaign_jobs1_vs_cpu`` — campaign throughput at ``jobs=1`` versus
  one worker per CPU (``--force-workers N`` oversubscribes on 1-CPU
  hosts so the comparison always produces numbers);
* ``campaign_backend_scaling`` — the same campaign across worker counts
  (serial reference, then ``jobs`` 1/2/4), with every leg's canonically
  merged store asserted byte-identical to the serial reference before
  its time counts;
* ``ftbar_size_grid`` — FTBAR CPU seconds, makespan and counters of
  one cold run per size, N ∈ {500, 1000, 2000} × {fc, ring, star} at
  P=16 plus fc P=8 N=2000 (``--full`` only);
* ``phase_breakdown`` — per-phase wall time of the pinned
  ``repro bench --smoke`` problems from a traced run (``--phases``
  also prints the table), sourced from the observability layer's span
  aggregates;
* ``cold_start`` — cold ``repro example``, ``schedule`` and
  ``certify`` processes with bytecode writing off: child CPU (minimum
  of 7 at full scale, of 3 otherwise) and peak RSS, plus the
  deterministic counts of loaded ``repro`` modules, their source lines
  (all compiled, since no bytecode cache is written) and other loaded
  modules.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_runtime.py \
        [--full] [--profile] [--phases] [--force-workers N] [--smoke]

``--smoke`` measures only the cold-start section and prints it.  Only
a direct run without ``--smoke`` writes ``BENCH_runtime.json``; the
pytest benches print their tables and leave the file alone.  Every
section whose size depends on ``--full`` records its scale in the
file's ``scale`` map, and a run without ``--full`` never replaces a
section recorded at full scale.
"""

import cProfile
import gc
import json
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale, graphs_per_point
except ModuleNotFoundError:
    # Invoked as `python benchmarks/bench_runtime.py`, or in a minimal
    # install without pytest (which conftest imports for its fixtures):
    # the benches only need the env-var scale knobs, mirrored here.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    try:
        from benchmarks.conftest import full_scale, graphs_per_point
    except ModuleNotFoundError:
        def full_scale() -> bool:
            return os.environ.get("REPRO_BENCH_FULL", "") == "1"

        def graphs_per_point(reduced: int = 5, full: int = 60) -> int:
            return full if full_scale() else reduced
from repro import obs
from repro.analysis.experiments import run_runtime_comparison
from repro.analysis.reporting import format_runtime_comparison
from repro.baselines.hbp import schedule_hbp
from repro.campaign.jobs import build_problem
from repro.campaign.merge import merge_stores
from repro.campaign.backends.directory import (
    cpu_affinity_count,
    default_worker_count,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.core.compile import compile_cache_stats, reset_compile_cache
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests.ftbar_oracle import ftbar_reference

_PROBLEM = generate_problem(
    RandomWorkloadConfig(operations=40, ccr=1.0, processors=4, npf=1, seed=2003)
)

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
#: The compiled kernel with symmetry pruning disabled (exhaustive sweep).
_KERNEL_NOSYM = SchedulerOptions(symmetry=False)


def _best_of(function, problem, options, repeats: int) -> tuple[float, object]:
    """Min-of-``repeats`` wall time, with a warmup run and quiesced GC.

    Without the collect, the garbage of the *previous* measured
    configuration gets collected inside this one's timed region.
    """
    call = (
        (lambda: function(problem, options))
        if options is not None
        else (lambda: function(problem))
    )
    result = call()  # warmup, untimed
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def _interleaved_best_of(problem, legs, repeats: int) -> dict[str, list]:
    """Min-of-``repeats`` per leg, with the legs interleaved.

    Timing each leg's repeats back-to-back lets slow host drift (thermal
    state, background load) land entirely on one leg and skew the ratio
    by tens of percent.  Alternating the legs inside a single repeat
    loop exposes every leg to the same mix of machine states, so the
    min-of-repeats ratio is stable.  Returns ``{name: [seconds, result]}``.
    """
    results: dict[str, list] = {}
    for name, options in legs:  # warmup, untimed
        results[name] = [float("inf"), schedule_ftbar(problem, options)]
    for _ in range(repeats):
        for name, options in legs:
            gc.collect()
            started = time.perf_counter()
            result = schedule_ftbar(problem, options)
            elapsed = time.perf_counter() - started
            entry = results[name]
            if elapsed < entry[0]:
                entry[0] = elapsed
            entry[1] = result
    return results


def run_reference_sweep(full: bool = False, repeats: int = 5) -> dict:
    """Time the compiled kernel against the reference engine per N.

    All three legs — kernel, kernel with ``symmetry=False`` and the
    reference engine — must produce the same makespan before anything
    is recorded (the engines are bit-identical, so any divergence voids
    the measurement), and pruning may only skip work the exhaustive
    sweep would have done.

    Each point also records the shared-compilation memo deltas: after
    the first run of a problem every later run (and the
    ``symmetry=False`` leg) reuses the memoized ``CompiledProblem``
    core, which is where the repeat-loop hit counts come from.
    """
    counts = (40, 80, 120, 200, 300, 500, 800) if full else (40, 80)
    sweep: dict[str, dict] = {}
    for n in counts:
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=n, ccr=1.0, processors=4, npf=1, seed=2003
            )
        )
        cache_before = compile_cache_stats()
        # Small problems schedule in milliseconds, so extra repeats are
        # cheap and tighten the min where relative noise is largest.
        leg_repeats = repeats if n >= 300 else repeats * 2
        legs = _interleaved_best_of(
            problem,
            (("kernel", None), ("kernel_nosym", _KERNEL_NOSYM)),
            leg_repeats,
        )
        kernel_s, kernel = legs["kernel"]
        nosym_s, nosym = legs["kernel_nosym"]
        reference_s, reference = _best_of(
            ftbar_reference, problem, None, max(1, repeats // 2)
        )
        cache_after = compile_cache_stats()
        assert (
            kernel.makespan == nosym.makespan == reference.makespan
        ), f"engines diverge at N={n}"
        assert (
            kernel.stats.pressure_evaluations + kernel.stats.symmetry_pruned
            >= nosym.stats.pressure_evaluations
        ), f"symmetry pruning lost work at N={n}"
        sweep[str(n)] = {
            "kernel_s": kernel_s,
            "kernel_nosym_s": nosym_s,
            "reference_s": reference_s,
            "speedup": reference_s / kernel_s,
            "pressure_evaluations": kernel.stats.pressure_evaluations,
            "nosym_pressure_evaluations": nosym.stats.pressure_evaluations,
            "reference_pressure_evaluations":
                reference.stats.pressure_evaluations,
            "symmetry_pruned": kernel.stats.symmetry_pruned,
            "cache_hits": kernel.stats.cache_hits,
            "compile_cache_core_hits": (
                cache_after["core_hits"] - cache_before["core_hits"]
            ),
            "compile_cache_core_misses": (
                cache_after["core_misses"] - cache_before["core_misses"]
            ),
            "compile_cache_variant_hits": (
                cache_after["variant_hits"] - cache_before["variant_hits"]
            ),
            "makespan": kernel.makespan,
        }
    return sweep


#: The pinned ``repro bench --smoke`` problems (same configs, same
#: labels), so the phase breakdown lines up with the counter pins.
_SMOKE_CONFIGS = {
    "ftbar-N40-npf1": RandomWorkloadConfig(
        operations=40, ccr=1.0, processors=4, npf=1, seed=2003
    ),
    "ftbar-N24-npf2": RandomWorkloadConfig(
        operations=24, ccr=2.0, processors=4, npf=2, seed=7
    ),
}


def run_phase_breakdown() -> dict:
    """Trace the smoke problems; record where each run's time went.

    Each problem is scheduled once untraced (warmup + compile-memo
    fill), then once under an in-memory tracer.  The folded span totals
    — ``ftbar.compile``, the ``kernel.sweep`` / ``kernel.place``
    phase aggregates (count = steps), ``kernel.materialize`` —
    become the ``phase_breakdown`` section of ``BENCH_runtime.json``,
    so perf PRs can point at the phase that moved instead of one
    opaque wall-time number.
    """
    breakdown: dict[str, dict] = {}
    for label, config in _SMOKE_CONFIGS.items():
        problem = generate_problem(config)
        reset_compile_cache()
        schedule_ftbar(problem)  # warmup, untimed
        exporter = obs.ListExporter()
        tracer = obs.Tracer(exporter, meta={"bench": label})
        with obs.scoped(tracer):
            result = schedule_ftbar(problem)
        tracer.close()
        phases = obs.aggregate_spans(exporter.lines)
        total = next(
            entry["total_s"] for entry in phases if entry["name"] == "ftbar.run"
        )
        breakdown[label] = {
            "operations": config.operations,
            "npf": config.npf,
            "seed": config.seed,
            "makespan": result.makespan,
            "total_s": round(total, 6),
            "phases": [
                {
                    "name": entry["name"],
                    "count": entry["count"],
                    "total_s": round(entry["total_s"], 6),
                    "share": round(entry["total_s"] / total, 4) if total else 0.0,
                }
                for entry in phases
                if entry["name"] != "ftbar.run"
            ],
        }
    reset_compile_cache()
    return breakdown


#: ``(topology, P, N)`` points of ``ftbar_size_grid``: three topologies
#: at P=16 up to N=2000, plus fully connected P=8 N=2000, the shape
#: where the kernel's pure-Python sweep is slowest relative to the
#: numpy sweep it replaced.
_SIZE_GRID = tuple(
    (topology, 16, n)
    for n in (500, 1000, 2000)
    for topology in ("fully_connected", "ring", "star")
) + (("fully_connected", 8, 2000),)


def run_size_grid() -> dict:
    """FTBAR CPU seconds per size at ``Npf = 1``, heterogeneous tables.

    Each point is one cold ``schedule_ftbar`` call (compile memos
    emptied first, compilation included), timed in process CPU seconds,
    with its makespan and work counters.  The grid takes minutes, so it
    runs at full scale only.
    """
    grid: dict[str, dict] = {}
    for topology, processors, n in _SIZE_GRID:
        problem = build_problem(
            WorkloadSpec(family="random", size=n, heterogeneous=True),
            topology, processors, 1, 1.0, 2003,
        )
        reset_compile_cache()
        gc.collect()
        started = time.process_time()
        result = schedule_ftbar(problem)
        cpu_s = time.process_time() - started
        grid[f"{topology}-P{processors}-N{n}"] = {
            "cpu_s": cpu_s,
            "makespan": result.makespan,
            "pressure_evaluations": result.stats.pressure_evaluations,
            "cache_hits": result.stats.cache_hits,
            "symmetry_pruned": result.stats.symmetry_pruned,
        }
    return grid


def run_profile(operations: int = 300, top: int = 20) -> dict:
    """cProfile one compiled scheduling run; record the top hotspots.

    Returns ``{"operations", "total_s", "hotspots": [...]}`` where each
    hotspot carries the cumulative-time ranking the ``profile_top`` key
    of ``BENCH_runtime.json`` stores — the before/after evidence a perf
    PR points at.
    """
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=operations, ccr=1.0, processors=4, npf=1, seed=2003
        )
    )
    schedule_ftbar(problem)  # warmup, untimed
    profiler = cProfile.Profile()
    profiler.enable()
    schedule_ftbar(problem)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    hotspots = []
    total = 0.0
    root = str(_RESULT_PATH.parent) + os.sep
    for function, (cc, ncalls, tottime, cumtime, _) in stats.stats.items():
        total = max(total, cumtime)
        path, line, name = function
        hotspots.append({
            # Repository files by their path in the checkout.
            "function": f"{path.removeprefix(root)}:{line}:{name}",
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    hotspots.sort(key=lambda h: -h["cumtime_s"])
    return {
        "operations": operations,
        "total_s": round(total, 6),
        "hotspots": hotspots[:top],
    }


def run_hbp_sweep(full: bool = False, repeats: int = 3) -> dict:
    """FTBAR vs HBP wall time on the shared E6 problems."""
    counts = (40, 80) if full else (40,)
    sweep: dict[str, dict] = {}
    for n in counts:
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=n, ccr=1.0, processors=4, npf=1, seed=2003
            )
        )
        ftbar_s, _ = _best_of(schedule_ftbar, problem, None, repeats)
        hbp_s, hbp = _best_of(schedule_hbp, problem, None, repeats)
        sweep[str(n)] = {
            "ftbar_s": ftbar_s,
            "hbp_s": hbp_s,
            "hbp_pair_evaluations": hbp.stats.pair_evaluations,
            "hbp_pair_cache_hits": hbp.stats.pair_cache_hits,
        }
    return sweep


def run_campaign_jobs_sweep(
    full: bool = False, force_workers: int | None = None
) -> dict:
    """Wall-clock of one campaign at jobs=1 versus one worker per CPU.

    The campaign schedules ``graphs`` independent random problems —
    embarrassingly parallel work, so the workers' scaling shows up
    directly.  Both runs verify they produce identical record sets.

    On a single-CPU host both legs would take the same sequential path;
    without ``force_workers`` the entry is marked ``skipped`` with the
    reason.  ``force_workers`` oversubscribes to that many worker
    processes regardless of CPU count, so the jobs=1-vs-jobs=N
    comparison always produces numbers — the honest ``workers`` and
    ``cpu_count`` fields record what actually ran (an ``oversubscribed``
    ratio near 1.0 on one CPU measures dispatch overhead, not scaling).
    """
    operations = 60 if full else 30
    graphs = 16 if full else 8
    cpu_workers = default_worker_count()
    workers = cpu_workers
    oversubscribed = False
    if force_workers is not None and force_workers > 1:
        workers = force_workers
        oversubscribed = force_workers > cpu_workers
    elif cpu_workers <= 1:
        return {
            "operations": operations,
            "graphs": graphs,
            "workers": cpu_workers,
            "cpu_count": os.cpu_count() or 1,
            "cpu_affinity": cpu_affinity_count(),
            "skipped": True,
            "reason": "only one CPU available — jobs=1 and jobs=cpu would "
            "run the same sequential path (pass --force-workers N to "
            "measure the oversubscribed workers anyway)",
        }
    spec = CampaignSpec(
        name="bench-campaign",
        workloads=(WorkloadSpec(family="random", size=operations),),
        seeds=tuple(2003 + 1000 * index for index in range(graphs)),
        measures=("ftbar", "non_ft"),
    )
    started = time.perf_counter()
    serial = run_campaign(spec, jobs=1)
    jobs1_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_campaign(spec, jobs=workers)
    jobs_cpu_s = time.perf_counter() - started
    assert serial.records == parallel.records, "worker counts diverge"
    return {
        "operations": operations,
        "graphs": graphs,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": cpu_affinity_count(),
        "oversubscribed": oversubscribed,
        "jobs1_s": jobs1_s,
        "jobs_cpu_s": jobs_cpu_s,
        "speedup": jobs1_s / jobs_cpu_s,
        "skipped": False,
    }


def run_campaign_backend_scaling(
    full: bool = False,
    force_workers: int | None = None,
) -> dict:
    """Scaling sweep of one campaign across worker counts.

    The same embarrassingly-parallel campaign (``graphs`` independent
    random problems) runs once serially — the wall-clock *and*
    bit-exactness reference — then at ``jobs`` 1, 2 and 4 (in process
    at 1, directory workers beyond).  Every leg gets a fresh store and
    no schedule cache (a shared cache would fake the scaling), the legs
    are interleaved across repeats (host drift lands on all of them
    equally), and each leg's canonically merged store is asserted
    byte-identical to the serial reference before its time is recorded:
    a speedup that changed the records would be worthless.

    On a single-CPU host the sweep would only measure oversubscription;
    without ``force_workers`` the entry is marked ``skipped`` with the
    reason, and both ``cpu_count`` and ``cpu_affinity`` are recorded so
    the skip is auditable (CI runners often confine the process to
    fewer CPUs than the machine has).
    """
    operations = 60 if full else 30
    graphs = 16 if full else 8
    repeats = 3 if full else 2
    cpu_workers = default_worker_count()
    affinity = cpu_affinity_count()
    worker_counts = [1, 2, 4]
    oversubscribed = False
    if force_workers is not None and force_workers > 1:
        worker_counts = [w for w in worker_counts if w <= force_workers]
        oversubscribed = max(worker_counts) > cpu_workers
    elif cpu_workers <= 1:
        return {
            "operations": operations,
            "graphs": graphs,
            "cpu_count": os.cpu_count() or 1,
            "cpu_affinity": affinity,
            "skipped": True,
            "reason": "only one CPU available — every worker count would "
            "measure the same sequential path plus dispatch overhead "
            "(pass --force-workers N to record oversubscribed numbers "
            "anyway)",
        }
    else:
        worker_counts = [w for w in worker_counts if w <= cpu_workers]
    spec = CampaignSpec(
        name="bench-backend-scaling",
        workloads=(WorkloadSpec(family="random", size=operations),),
        seeds=tuple(2003 + 1000 * index for index in range(graphs)),
        measures=("ftbar", "non_ft"),
    )
    scratch = Path(tempfile.mkdtemp(prefix="bench-backend-scaling-"))
    try:
        serial_store = scratch / "serial.jsonl"
        started = time.perf_counter()
        serial = run_campaign(spec, backend="serial", store=serial_store)
        serial_s = time.perf_counter() - started
        assert serial.completed == serial.total_jobs, serial.summary()
        reference = scratch / "serial-canonical.jsonl"
        merge_stores([serial_store], reference)
        reference_bytes = reference.read_bytes()

        best: dict[int, float] = {w: float("inf") for w in worker_counts}
        leg = 0
        for _ in range(repeats):
            for workers in worker_counts:
                leg += 1
                store = scratch / f"leg-{leg}.jsonl"
                gc.collect()
                started = time.perf_counter()
                report = run_campaign(spec, jobs=workers, store=store)
                elapsed = time.perf_counter() - started
                assert report.completed == report.total_jobs, report.summary()
                merged = scratch / f"leg-{leg}-canonical.jsonl"
                merge_stores([store], merged)
                assert merged.read_bytes() == reference_bytes, (
                    f"jobs={workers} diverged from the serial reference"
                )
                best[workers] = min(best[workers], elapsed)
        return {
            "operations": operations,
            "graphs": graphs,
            "repeats": repeats,
            "cpu_count": os.cpu_count() or 1,
            "cpu_affinity": affinity,
            "oversubscribed": oversubscribed,
            "serial_s": serial_s,
            "skipped": False,
            "sweep": {
                str(workers): {
                    "elapsed_s": best[workers],
                    "speedup_vs_serial": serial_s / best[workers],
                }
                for workers in worker_counts
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_campaign_compile_reuse(full: bool = False) -> dict:
    """One campaign grid demonstrating shared-``CompiledProblem`` reuse.

    The grid sweeps npf x npl x ccr over one workload/seed.  Every
    variant of a problem shares the algorithm, architecture and
    execution-time tables — only npf/npl/ccr change — so the
    content-addressed compile memos serve the expensive core tables from
    cache for all but the first job of each workload.  The recorded
    hit/miss counts are the evidence: ``core_hits > 0`` means the core
    was built once and reused across the variants.
    """
    operations = 40 if full else 24
    spec = CampaignSpec(
        name="bench-compile-reuse",
        workloads=(WorkloadSpec(family="random", size=operations),),
        seeds=(2003,),
        npfs=(0, 1),
        npls=(0, 1),
        ccrs=(0.5, 1.0),
        measures=("ftbar",),
    )
    reset_compile_cache()
    started = time.perf_counter()
    report = run_campaign(spec, jobs=1)
    elapsed = time.perf_counter() - started
    stats = compile_cache_stats()
    reset_compile_cache()
    assert report.completed == report.total_jobs, report.summary()
    assert stats["core_hits"] > 0, (
        f"no shared-compilation reuse across the variant grid: {stats}"
    )
    return {
        "operations": operations,
        "grid": {"npfs": [0, 1], "npls": [0, 1], "ccrs": [0.5, 1.0]},
        "jobs": report.total_jobs,
        "elapsed_s": elapsed,
        "compile_cache": stats,
    }


_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Reports, as a cold process exits, its peak RSS in kB (``VmHWM``:
#: the ``ru_maxrss`` a parent reads also counts the parent's own RSS
#: when the child was spawned), how many ``repro`` modules it loaded,
#: how many source lines they hold (each one compiled: no bytecode
#: cache is written) and how many other modules it loaded.
_COLD_PROBE = """\
import atexit, sys
def _report():
    with open("/proc/self/status") as status:
        peak = status.read().split("VmHWM:")[1].split()[0]
    names = [name for name in sys.modules if name != "__main__"]
    own = [name for name in names if name.split(".")[0] == "repro"]
    lines = 0
    for name in own:
        with open(sys.modules[name].__file__, "rb") as source:
            lines += source.read().count(b"\\n")
    sys.stderr.write(
        f"\\nCOLD {peak} {len(own)} {lines} {len(names) - len(own)}\\n"
    )
atexit.register(_report)
from repro.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def _cold_commands(directory: Path, env: dict) -> dict[str, list[str]]:
    """The measured commands; writes the generated N100 problem."""
    n100 = directory / "n100-fc-p8.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", "--operations", "100",
         "--processors", "8", "--npf", "1", "--seed", "1", str(n100)],
        env=env, check=True, capture_output=True,
    )
    fc4 = str(_EXAMPLES / "problem_fc4_npf1_npl1.json")
    return {
        "example": ["example"],
        "schedule fc4": ["schedule", fc4],
        "certify fc4": ["certify", fc4],
        "schedule N100 fc P8": ["schedule", str(n100)],
        "certify N100 fc P8": ["certify", str(n100)],
    }


def run_cold_start(repeats: int = 7) -> dict:
    """Cold ``repro`` processes: child CPU, peak RSS, compiled source.

    Each command runs ``repeats`` times as ``python -m repro`` with
    ``PYTHONDONTWRITEBYTECODE=1``; CPU (user + system) comes from the
    child's own ``wait4`` usage.  One more run under
    :data:`_COLD_PROBE` reads the peak RSS and counts what the process
    loaded (Linux only: the probe reads ``/proc/self/status``).
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    section = {}
    with tempfile.TemporaryDirectory() as scratch:
        for label, argv in _cold_commands(Path(scratch), env).items():
            cpu = []
            for _ in range(repeats):
                child = subprocess.Popen(
                    [sys.executable, "-m", "repro", *argv], env=env,
                    cwd=scratch, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
                if child.returncode not in (0, 1, 2):
                    raise RuntimeError(f"{label}: exit {child.returncode}")
                cpu.append(usage.ru_utime + usage.ru_stime)
            probe = subprocess.run(
                [sys.executable, "-c", _COLD_PROBE, *argv], env=env,
                cwd=scratch, capture_output=True, text=True,
            )
            report = probe.stderr[probe.stderr.rindex("\nCOLD "):].split()
            peak, modules, lines, others = (int(value) for value in report[1:])
            section[label] = {
                "cpu_s": min(cpu),
                "peak_rss_mb": peak / 1024.0,
                "repro_modules": modules,
                "repro_source_lines": lines,
                "other_modules": others,
            }
    section["config"] = {
        "repeats": repeats,
        "python": ".".join(map(str, sys.version_info[:3])),
        "cpu": "min over repeats of the child's user + system time",
        "rss": "VmHWM of one probed run",
    }
    return section


def write_bench_json(
    full: bool = False,
    repeats: int = 5,
    profile: bool = False,
    force_workers: int | None = None,
) -> dict:
    """Run the sweeps and record them in ``BENCH_runtime.json``.

    Keys owned by other benches (e.g. ``bench_reliability.py``'s
    certificate sweep) are preserved, so the file accumulates the whole
    perf trajectory regardless of which bench ran last.  The sections
    sized by ``full`` record their scale under ``scale``; without
    ``full`` a section recorded at full scale is kept, not re-run.
    """
    payload = (
        json.loads(_RESULT_PATH.read_text()) if _RESULT_PATH.exists() else {}
    )
    payload["generated_by"] = "benchmarks/bench_runtime.py"
    payload["config"] = {
        "ccr": 1.0, "processors": 4, "npf": 1, "seed": 2003,
        "repeats": repeats,
    }
    scaled = {
        "ftbar_kernel_vs_reference": lambda: run_reference_sweep(
            full, repeats
        ),
        "ftbar_vs_hbp": lambda: run_hbp_sweep(full, repeats),
        "campaign_compile_reuse": lambda: run_campaign_compile_reuse(full),
        "campaign_jobs1_vs_cpu": lambda: run_campaign_jobs_sweep(
            full, force_workers
        ),
        "campaign_backend_scaling": lambda: run_campaign_backend_scaling(
            full, force_workers
        ),
        "cold_start": lambda: run_cold_start(7 if full else 3),
    }
    if full:
        scaled["ftbar_size_grid"] = run_size_grid
    if profile:
        scaled["profile_top"] = lambda: run_profile(300 if full else 60)
    scales = payload.setdefault("scale", {})
    for name, run in scaled.items():
        if not full and scales.get(name) == "full" and name in payload:
            continue
        payload[name] = run()
        scales[name] = "full" if full else "smoke"
    payload["phase_breakdown"] = run_phase_breakdown()
    _RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def bench_runtime_ftbar(benchmark):
    """Time FTBAR on the shared N=40 problem."""
    result = benchmark(schedule_ftbar, _PROBLEM)
    assert result.makespan > 0


def bench_runtime_hbp(benchmark, record_result):
    """Time HBP on the same problem; record the sweep table."""
    result = benchmark(schedule_hbp, _PROBLEM)
    assert result.makespan > 0

    counts = (10, 20, 40, 60, 80) if full_scale() else (10, 20, 40)
    points = run_runtime_comparison(
        operation_counts=counts,
        graphs_per_point=max(2, graphs_per_point(3, 5)),
        seed=2003,
    )
    record_result(
        "runtime",
        "E6 — scheduler wall time, FTBAR vs HBP\n"
        + format_runtime_comparison(points),
    )
    # The headline claim: FTBAR schedules faster than HBP.
    for point in points:
        assert point.ftbar_seconds < point.hbp_seconds, point


def bench_runtime_kernel_vs_reference(benchmark, record_result):
    """Time the reference engine; print the kernel-vs-reference table.

    Writes only ``benchmarks/results/``, never ``BENCH_runtime.json``
    (see :func:`write_bench_json` for the recorded trajectory).
    """
    result = benchmark(ftbar_reference, _PROBLEM)
    assert result.makespan > 0

    sweep = run_reference_sweep(full=full_scale())
    lines = ["compiled kernel vs reference engine"]
    for n, point in sorted(sweep.items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"  N={n:>4}: {point['kernel_s']*1e3:8.1f} ms vs "
            f"{point['reference_s']*1e3:8.1f} ms  ({point['speedup']:.2f}x, "
            f"{point['pressure_evaluations']} vs "
            f"{point['reference_pressure_evaluations']} plans computed)"
        )
    record_result("runtime_kernel_vs_reference", "\n".join(lines))


def _print_cold_start(section: dict) -> None:
    for label, point in section.items():
        if label == "config":
            continue
        print(
            f"cold {label}: {point['cpu_s']*1e3:.0f} ms CPU, "
            f"{point['peak_rss_mb']:.1f} MB peak RSS, "
            f"{point['repro_modules']} repro modules "
            f"({point['repro_source_lines']:,} lines), "
            f"{point['other_modules']} other modules",
            file=sys.stderr,
        )


def main(argv: list[str]) -> int:
    full = full_scale() or "--full" in argv
    profile = "--profile" in argv
    usage = (
        "usage: bench_runtime.py [--full] [--profile] [--phases] "
        "[--force-workers N] [--smoke]"
    )
    if "--smoke" in argv:
        _print_cold_start(run_cold_start(repeats=2))
        return 0
    force_workers = None
    if "--force-workers" in argv:
        try:
            force_workers = int(argv[argv.index("--force-workers") + 1])
        except (IndexError, ValueError):
            print(usage, file=sys.stderr)
            return 2
    payload = write_bench_json(
        full=full, profile=profile, force_workers=force_workers
    )
    print(json.dumps(payload, indent=1, sort_keys=True))
    for n, point in sorted(
        payload["ftbar_kernel_vs_reference"].items(),
        key=lambda kv: int(kv[0]),
    ):
        print(
            f"compiled kernel N={n}: {point['speedup']:.2f}x vs reference "
            f"({point['pressure_evaluations']} evaluations, "
            f"{point['symmetry_pruned']} symmetry-pruned, "
            f"{point['cache_hits']} cache hits)",
            file=sys.stderr,
        )
    if "--phases" in argv:
        for label, point in sorted(payload["phase_breakdown"].items()):
            print(
                f"phase breakdown {label} "
                f"({point['total_s']*1e3:.1f} ms total):",
                file=sys.stderr,
            )
            for phase in sorted(
                point["phases"], key=lambda entry: -entry["total_s"]
            ):
                print(
                    f"  {phase['name']:24s} {phase['total_s']*1e3:8.2f} ms "
                    f"x{phase['count']:<5d} {phase['share']*100:5.1f}%",
                    file=sys.stderr,
                )
    _print_cold_start(payload["cold_start"])
    reuse = payload["campaign_compile_reuse"]
    print(
        f"campaign compile reuse ({reuse['jobs']} variant jobs): "
        f"{reuse['compile_cache']['core_hits']} core hits / "
        f"{reuse['compile_cache']['core_misses']} misses, "
        f"{reuse['compile_cache']['variant_hits']} variant hits",
        file=sys.stderr,
    )
    campaign = payload["campaign_jobs1_vs_cpu"]
    if campaign.get("skipped"):
        print(f"campaign jobs bench skipped: {campaign['reason']}", file=sys.stderr)
    else:
        print(
            f"campaign {campaign['graphs']}xN={campaign['operations']} "
            f"jobs=1 vs jobs={campaign['workers']}: "
            f"{campaign['speedup']:.2f}x",
            file=sys.stderr,
        )
    scaling = payload["campaign_backend_scaling"]
    if scaling.get("skipped"):
        print(
            f"campaign backend scaling skipped: {scaling['reason']}",
            file=sys.stderr,
        )
    else:
        for workers, point in sorted(
            scaling["sweep"].items(), key=lambda kv: int(kv[0])
        ):
            print(
                f"campaign x{workers} workers: "
                f"{point['speedup_vs_serial']:.2f}x vs serial "
                f"({point['elapsed_s']:.2f}s)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
