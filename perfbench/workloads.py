"""The benchmark's three workloads, run in one fresh worker process.

Run as ``python perfbench/workloads.py --workload W --seed S --seconds T
--trace 0|1 --out result.json`` from the checkout root with ``src`` on
``PYTHONPATH`` (``perfbench/run.py`` does this).  Each workload is a
closed loop with one client: a *cycle* sends the workload's fixed request
list one request at a time, each starting when the previous returned,
and cycles repeat until the time budget is spent.  Every cycle sends the
same seeded inputs, so every cycle must reproduce the first one's
outputs and work counters exactly (the drift check).

With ``--trace 1`` the first cycle runs untraced, then the public layer
boundaries are wrapped (:mod:`tracer`) and the cycles repeat traced; the
difference between the first traced cycle and the untraced one is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import tracer as tr

clock = time.perf_counter


def cpu_clock() -> float:
    """CPU seconds spent by this process and its reaped children.

    The kernel leaves out the time the host ran someone else on this
    machine's processors (steal), which wall time counts.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime

#: Operations in the paper's worked example (the ``repro example`` request).
PAPER_EXAMPLE_OPS = 9


_BATCH_LINE = re.compile(
    r"batch engine: (\d+) scenario verdicts — (\d+) simulated .*?, "
    r"(\d+) pruned as nominal-equivalent, (\d+) memo hits, "
    r"(\d+) event decisions, (\d+) copied"
)


class Run:
    """Samples, outcomes and fingerprints of one workload run."""

    def __init__(self, workload: str, trace: bool, workdir: Path):
        self.workload = workload
        self.trace = trace
        self.workdir = workdir
        self.cold: list[float] = []
        self.warm: list[float] = []
        # Cold wall and CPU seconds per request name across cycles, and
        # each request's N.
        self.samples: dict[str, list[float]] = {}
        self.cpu_samples: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict[str, list[float]] = {}
        self.recorder: tr.Recorder | None = None
        self.full_check = True
        self.cycle = 0
        self.cycle_wall = 0.0
        # Per-cycle deterministic outcome: outputs and work counters.
        self.fingerprint: dict = {}
        self.ratios: list[float] = []
        self.verdicts: list[bool] = []

    def sample(self, name: str, wall: float, cpu: float, n: int) -> None:
        self.cold.append(wall)
        self.samples.setdefault(name, []).append(wall)
        self.cpu_samples.setdefault(name, []).append(cpu)
        self.sizes[name] = n

    def note(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)

    def request(self, name: str, work, check=None, *, n: int = 0, warm: bool = False):
        """Time ``work()`` as one request, then check its output untimed."""
        self.attempted += 1
        # Every request starts from a collected heap, so a cyclic-GC
        # pass owed to earlier requests never lands inside its timing.
        gc.collect()
        recorder = self.recorder
        index = recorder.open("request") if recorder is not None else None
        start, cpu_start = clock(), cpu_clock()
        problems: list[str] = []
        output = None
        try:
            output = work()
        except Exception:  # one failed request must not stop the loop
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        wall, cpu = clock() - start, cpu_clock() - cpu_start
        if recorder is not None:
            recorder.close(index)
        self.cycle_wall += wall
        if warm:
            self.warm.append(wall)
        else:
            self.sample(name, wall, cpu, n)
        if not problems and check is not None:
            try:
                problems = check(output)
            except Exception:
                problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            self.failed += 1
            self.errors.extend(f"{name}: {p}" for p in problems)
        return output, wall

    def record(self, key: str, value) -> None:
        """Add a deterministic outcome to this cycle's fingerprint."""
        self.fingerprint[key] = value

    def quality(self, ratio: float, certified: bool | None) -> None:
        """Schedule-length ratio and verdict, kept from the first cycle."""
        if self.cycle == 0:
            self.ratios.append(ratio)
            if certified is not None:
                self.verdicts.append(certified)


def clean_env() -> dict[str, str]:
    """The environment with the program's behaviour knobs removed."""
    return {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_SWEEP_WORKERS", "REPRO_TRACE")
        and not k.startswith("REPRO_FAULT_")
    }


# ----------------------------------------------------------------------
# in-process requests: wide-arch
# ----------------------------------------------------------------------

def _schedule_pass(doc: dict, *, certify: bool) -> dict:
    """One problem document to a checked, serialized schedule."""
    from repro.analysis import reliability as rel
    from repro.core.ftbar import FTBARScheduler
    from repro.schedule import serialization, validation
    from repro.simulation.batch import BatchScenarioEngine

    problem = serialization.problem_from_dict(doc)
    result = FTBARScheduler(problem).run()
    schedule, algorithm = result.schedule, result.expanded_algorithm
    rtc = problem.rtc.check(schedule)
    report = validation.validate_schedule(
        schedule, algorithm, problem.architecture,
        problem.exec_times, problem.comm_times,
    )
    out = {"result": result, "rtc": rtc, "report": report}
    if certify:
        engine = BatchScenarioEngine(schedule, algorithm)
        out["engine"] = engine
        out["certificate"] = rel.fault_tolerance_certificate(
            schedule, algorithm, engine=engine
        )
        out["reliability"] = rel.schedule_reliability(
            schedule, algorithm,
            {p: 0.01 for p in schedule.processor_names()},
            engine=engine,
        )
    out["document"] = serialization.schedule_to_dict(schedule)
    return out


def _pass_counters(out: dict, compile_delta: dict) -> dict:
    stats = out["result"].stats
    counters = {
        "ftbar.steps": stats.steps,
        "ftbar.pressure_evaluations": stats.pressure_evaluations,
        "ftbar.cache_hits": stats.cache_hits,
        "ftbar.symmetry_pruned": stats.symmetry_pruned,
        "ftbar.duplication_attempts": stats.duplication.attempts,
        "makespan": out["result"].makespan,
        **{f"compile.{k}": v for k, v in compile_delta.items()},
    }
    if "engine" in out:
        batch = out["engine"].stats
        counters.update({
            "batch.scenarios": batch.scenarios,
            "batch.simulated": batch.simulated,
            "batch.memo_hits": batch.memo_hits,
            "batch.decisions": batch.decisions,
            "batch.copied": batch.copied,
            "verdict": out["certificate"].verdict,
            "certify.levels": [lvl.method for lvl in out["certificate"].levels],
        })
    if "reliability" in out:
        counters["reliability"] = out["reliability"].reliability
    return counters


def _check_pass(run: Run, doc: dict, bound: float, topology: str):
    def check(out: dict) -> list[str]:
        problems: list[str] = []
        if not out["report"].ok:
            problems.append(f"validate_schedule: {out['report']}")
        if not out["rtc"].satisfied:
            problems.append("Rtc check failed")
        if run.full_check:
            problems += checks.check_schedule(doc, out["document"], bound)
        if "certificate" in out:
            problems += checks.check_verdict(topology, out["certificate"].verdict)
        return problems

    return check


def inprocess_cycle(run: Run, docs: list[dict], bounds: list[float]) -> None:
    """wide-arch: each problem cold, after a cache reset, then warm.

    The cold pass also certifies the schedule and computes its
    reliability; the warm pass only schedules again with the memos warm.
    """
    from repro.core.compile import compile_cache_stats, reset_compile_cache

    for index, doc in enumerate(docs):
        name = doc["name"]
        topology = doc["architecture"]["name"]
        n = len(doc["algorithm"]["operations"])
        check = _check_pass(run, doc, bounds[index], topology)
        reset_compile_cache()
        for warm in (False, True):
            before = compile_cache_stats()
            out, _ = run.request(
                name, lambda: _schedule_pass(doc, certify=not warm),
                check, n=n, warm=warm,
            )
            if out is None:
                continue
            after = compile_cache_stats()
            delta = {
                k: after[k] - before[k]
                for k in ("core_hits", "core_misses", "variant_hits", "variant_misses")
            }
            run.record(f"{name}/{'warm' if warm else 'cold'}", _pass_counters(out, delta))
            if not warm:
                run.quality(
                    out["result"].makespan / bounds[index],
                    out["certificate"].verdict == "certified",
                )


# ----------------------------------------------------------------------
# design-loop: cold CLI processes, then the same commands in-process
# ----------------------------------------------------------------------

def _spawn(run: Run, argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """One cold CLI process; traced runs go through the span shim."""
    recorder = run.recorder
    if recorder is None:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
    spans_path = run.workdir / "shim-spans.json"
    started = clock()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("shim.py")), str(spans_path), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    ended = clock()
    shim = json.loads(spans_path.read_text())
    recorder.add("process.start", started, shim["started"])
    recorder.graft(shim["spans"])
    recorder.add("process.exit", shim["ended"], ended)
    for key, value in shim["counters"].items():
        recorder.count(key, value)
    return done


def _certificate_fingerprint(path: Path) -> dict:
    document = json.loads(path.read_text())
    return {
        "verdict": document["verdict"],
        "certify.levels": [level["method"] for level in document["levels"]],
    }


def design_cycle(run: Run, files: list[tuple[Path, dict, float]], env: dict) -> None:
    from repro import cli

    commands = [("example", ["example"], None)]
    for path, doc, bound in files:
        stem = path.with_suffix("")
        commands.append(("schedule", ["schedule", str(path), "--output", f"{stem}.schedule.json"], (doc, bound)))
        commands.append(("certify", ["certify", str(path), "--probability", "0.01", "--json", f"{stem}.certificate.json"], (doc, bound)))

    for kind, argv, meta in commands:
        run.request(
            _label(kind, argv), lambda: _spawn(run, argv, env), _cold_check(run, kind, argv, meta),
            n=PAPER_EXAMPLE_OPS if meta is None else len(meta[0]["algorithm"]["operations"]),
        )

    # The same commands served by one long-lived process: imports paid,
    # the compile/symmetry/validation memos warm from the first pass.
    if run.full_check and run.recorder is None:
        for _, argv, _ in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(_warm_argv(argv))
    for kind, argv, meta in commands:
        warm_argv = _warm_argv(argv)

        def work(argv=warm_argv):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()

        run.request(_label(kind, argv), work, _warm_check(run, kind, argv, warm_argv), warm=True)


def _label(kind: str, argv: list[str]) -> str:
    return f"{kind} {Path(argv[1]).stem}" if len(argv) > 1 else kind


def _warm_argv(argv: list[str]) -> list[str]:
    return [a.replace(".schedule.json", ".warm-schedule.json").replace(
        ".certificate.json", ".warm-certificate.json") for a in argv]


def _cold_check(run: Run, kind: str, argv: list[str], meta):
    def check(done: subprocess.CompletedProcess) -> list[str]:
        if kind == "example":
            problems = checks.check_example_output(done.stdout)
            if done.returncode != 0:
                problems.append(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
            return problems
        doc, bound = meta
        topology = doc["architecture"]["name"]
        if kind == "schedule":
            if done.returncode != 0:
                return [f"exit {done.returncode}: {done.stderr.strip()[-200:]}"]
            schedule = json.loads(Path(argv[3]).read_text())
            length = checks.makespan(schedule)
            run.record(f"{doc['name']}/makespan", length)
            run.quality(length / bound, None)
            if not run.full_check:
                return []
            return checks.check_schedule(doc, schedule, bound) + _validate_document(doc, schedule)
        certificate = _certificate_fingerprint(Path(argv[-1]))
        batch = _BATCH_LINE.search(done.stdout)
        certificate["batch"] = [int(x) for x in batch.groups()] if batch else None
        run.record(f"{doc['name']}/certificate", certificate)
        if run.cycle == 0:
            run.verdicts.append(certificate["verdict"] == "certified")
        problems = checks.check_verdict(topology, certificate["verdict"])
        expected = {"certified": 0, "refuted": 1, "estimated": 2}[certificate["verdict"]]
        if done.returncode != expected:
            problems.append(f"exit {done.returncode} for verdict {certificate['verdict']}")
        return problems

    return check


def _warm_check(run: Run, kind: str, cold_argv: list[str], argv: list[str]):
    def check(output) -> list[str]:
        code, stdout = output
        if kind == "example":
            return checks.check_example_output(stdout) + (
                [f"exit {code}"] if code != 0 else []
            )
        if kind == "schedule":
            cold = json.loads(Path(cold_argv[3]).read_text())
            warm = json.loads(Path(argv[3]).read_text())
            return [] if code == 0 and cold == warm else ["warm schedule differs from cold"]
        cold = _certificate_fingerprint(Path(cold_argv[-1]))
        warm = _certificate_fingerprint(Path(argv[-1]))
        return [] if cold == warm else ["warm certificate differs from cold"]

    return check


def _validate_document(doc: dict, schedule_doc: dict) -> list[str]:
    """``validate_schedule`` on a schedule the CLI wrote to disk."""
    from repro.schedule import serialization, validation

    problem = serialization.problem_from_dict(doc)
    schedule = serialization.schedule_from_dict(schedule_doc)
    report = validation.validate_schedule(
        schedule, problem.algorithm, problem.architecture,
        problem.exec_times, problem.comm_times,
    )
    return [] if report.ok else [f"validate_schedule: {report}"]


# ----------------------------------------------------------------------
# campaign-grid: cold campaign run, then the cache-served rerun
# ----------------------------------------------------------------------

def campaign_cycle(run: Run, spec_doc: dict, state: dict) -> None:
    from repro import campaign
    from repro.core.compile import compile_cache_stats, reset_compile_cache

    spec = campaign.campaign_from_dict(spec_doc)
    root = run.workdir / "campaign"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    store, cache = root / "results.jsonl", root / "cache"
    reset_compile_cache()
    recorder = run.recorder

    latencies: list[tuple[str, float, float]] = []

    def job_done(line: str) -> None:
        # A job just completed ("[k/total] index: problem"): its latency
        # runs from the previous completion (or the start of the run).
        if line.startswith("["):
            now, cpu_now = clock(), cpu_clock()
            index = line.split("] ", 1)[1].split(":", 1)[0]
            latencies.append((index, now - marks[-1][0], cpu_now - marks[-1][1]))
            marks.append((now, cpu_now))

    def execute(progress):
        gc.collect()
        index = recorder.open("request") if recorder is not None else None
        start = clock()
        marks.append((start, cpu_clock()))
        try:
            report = campaign.run_campaign(
                spec, backend="serial", store=store, cache=cache, progress=progress,
            )
        finally:
            wall = clock() - start
            if recorder is not None:
                recorder.close(index)
        return report, wall

    marks: list[tuple[float, float]] = []
    try:
        cold, cold_wall = execute(job_done)
    except Exception:
        run.attempted += 1
        run.failed += 1
        run.errors.append("campaign cold run: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        return
    compile_delta = compile_cache_stats()
    stats = [compile_delta[k] for k in ("core_hits", "core_misses", "variant_hits", "variant_misses")]
    jobs = cold.records_in_order()
    run.attempted += cold.total_jobs
    sizes = state.setdefault("sizes", {})
    bounds = state.setdefault("bounds", {})
    if run.full_check or not sizes:
        for job in cold.jobs:
            problem_doc = campaign_problem_doc(job)
            sizes[str(job.index)] = len(problem_doc["algorithm"]["operations"])
            bounds[job.digest] = (checks.lower_bound(problem_doc), problem_doc)
    for index, wall, cpu in latencies:
        run.sample(f"job {index}", wall, cpu, sizes[index])

    rerun_index = len(recorder.spans) if recorder is not None else 0
    run.attempted += 1
    try:
        warm, rerun_wall = execute(None)
    except Exception:
        run.failed += 1
        run.errors.append("campaign rerun: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        return
    run.warm.append(rerun_wall / max(1, len(jobs)))
    run.cycle_wall += cold_wall + rerun_wall
    run.note("rerun_s", rerun_wall)
    run.note("cold_s", cold_wall)
    if recorder is not None:
        spans = recorder.spans
        expand = sum(s[2] - s[1] for s in spans[rerun_index:] if s[0] == "campaign.expand")
        run.note("campaign.expand_share", expand / rerun_wall)
        recorder.count("campaign.executed", cold.executed)
        recorder.count("campaign.cache_hits", warm.cache_hits)
        recorder.count("campaign.store_bytes", store.stat().st_size)
        recorder.count(
            "campaign.cache_bytes",
            sum(p.stat().st_size for p in cache.rglob("*") if p.is_file()),
        )

    # Whole-run problems count as one failed request; each job whose
    # schedule fails a check counts as one more.
    problems: list[str] = []
    if cold.executed != cold.total_jobs or cold.completed != cold.total_jobs:
        problems.append(f"cold run executed {cold.executed}/{cold.total_jobs} jobs")
    if warm.cache_hits != warm.total_jobs or warm.executed:
        problems.append(f"rerun served {warm.cache_hits}/{warm.total_jobs} from cache")
    if warm.records_in_order() != jobs:
        problems.append("rerun records differ from the cold run's")
    cache_reader = campaign.ScheduleCache(cache)
    outcome = []
    for job, record in zip(cold.jobs, jobs):
        bound, problem_doc = bounds[job.digest]
        length = record["ftbar"]["makespan"]
        certified = bool(record.get("reliability", {}).get("certified"))
        outcome.append([
            length,
            record["ftbar"]["replicas"],
            record["ftbar"]["pressure_evaluations"],
            record.get("non_ft", {}).get("makespan"),
            certified,
            record.get("reliability", {}).get("scenarios"),
            record.get("reliability", {}).get("simulated"),
        ])
        run.quality(length / bound, certified)
        if run.full_check:
            schedule_doc = cache_reader.get(job.digest)["schedule"]
            found = checks.check_schedule(problem_doc, schedule_doc, bound)
            found += _validate_document(problem_doc, schedule_doc)
            if job.topology in checks.CERTIFIED_TOPOLOGIES and not certified:
                found.append(f"{job.topology} job not certified")
            if found:
                run.failed += 1
                run.errors.extend(f"{record['problem']}: {p}" for p in found)
    run.record("jobs", outcome)
    run.record("compile", stats)
    if problems:
        run.failed += 1
        run.errors.extend(problems)
    shutil.rmtree(root, ignore_errors=True)


def campaign_problem_doc(job) -> dict:
    from repro.campaign import job_problem
    from repro.schedule.serialization import problem_to_dict

    return problem_to_dict(job_problem(job))


# ----------------------------------------------------------------------
# run loop
# ----------------------------------------------------------------------

def import_breakdown(env: dict, repeats: int = 3) -> dict[str, float]:
    """``python -X importtime -c 'import repro.cli'`` split by package."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        own = {"networkx": 0, "numpy": 0, "repro": 0}
        total = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = int(parts[0]), int(parts[1])
            except ValueError:
                continue
            name = parts[2].strip()
            top = name.split(".")[0]
            if top in own:
                own[top] += self_us
            if name == "repro.cli":
                total = cumulative_us
        runs.append((total, own))
    runs.sort(key=lambda item: item[0])
    total, own = runs[len(runs) // 2]
    result = {"import.total_s": total / 1e6}
    for top, micros in own.items():
        result[f"import.{top}_share"] = micros / total if total else 0.0
    return result


def run_workload(args) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, bool(args.trace), workdir)
    env = clean_env()

    if args.workload == "wide-arch":
        docs = gen.requests(args.workload, args.seed)
        bounds = [checks.lower_bound(doc) for doc in docs]
        cycle = lambda: inprocess_cycle(run, docs, bounds)  # noqa: E731
    elif args.workload == "design-loop":
        files = []
        for doc in gen.requests("design-loop", args.seed):
            path = workdir / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            files.append((path, doc, checks.lower_bound(doc)))
        cycle = lambda: design_cycle(run, files, env)  # noqa: E731
    elif args.workload == "campaign-grid":
        spec_doc = gen.campaign_spec(args.seed)
        state: dict = {}
        cycle = lambda: campaign_cycle(run, spec_doc, state)  # noqa: E731
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    fingerprints: list[dict] = []
    durations: list[float] = []
    traced: dict = {"walls": []}
    patches = None
    started = clock()
    while True:
        t0 = clock()
        run.fingerprint = {}
        run.cycle_wall = 0.0
        counters_before = dict(run.recorder.counters) if run.recorder else {}
        cycle()
        durations.append(clock() - t0)
        fingerprints.append(run.fingerprint)
        run.cycle += 1
        run.full_check = False
        if run.trace:
            if run.recorder is None:
                # The untraced first cycle is the overhead baseline; the
                # next cycle repeats it traced, with the full checks.
                traced["untraced_wall"] = run.cycle_wall
                run.recorder = tr.Recorder()
                patches = tr.install(run.recorder)
                run.full_check = True
                continue
            tr.drain_engines(run.recorder)
            if not traced["walls"]:
                traced["traced_wall"] = run.cycle_wall
                traced["counters"] = {
                    k: v - counters_before.get(k, 0)
                    for k, v in run.recorder.counters.items()
                }
            traced["walls"].append(run.cycle_wall)
        elapsed = clock() - started
        if elapsed + sum(durations) / len(durations) > args.seconds:
            break
    if patches is not None:
        patches.remove()

    for index, fingerprint in enumerate(fingerprints[1:], start=1):
        if fingerprint != fingerprints[0]:
            changed = sorted(
                k for k in set(fingerprint) | set(fingerprints[0])
                if fingerprint.get(k) != fingerprints[0].get(k)
            )
            run.failed += 1
            run.errors.append(f"drift: cycle {index} differs from cycle 0 in {changed[:5]}")

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "design-loop" else resource.RUSAGE_SELF
    )
    result = {
        "cycles": len(durations),
        "cold": run.cold,
        "warm": run.warm,
        "samples": run.samples,
        "cpu_samples": run.cpu_samples,
        "sizes": run.sizes,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "ratios": run.ratios,
        "verdicts": run.verdicts,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fingerprint": fingerprints[0],
        "extra": run.extra,
    }
    if run.trace and run.recorder is not None:
        result["layers"] = layer_metrics(run, traced, env)
        result["layer_names"] = [name for name in LAYERS if name != "certify.s"]
    return result


#: Span names that make up each reported per-layer self time.
LAYERS = {
    "serialization.load_s": ("serialization.load",),
    "serialization.emit_s": ("serialization.emit",),
    "problem.validate_s": ("problem.validate",),
    "compile.cold_s": ("compile.cold",),
    "compile.warm_s": ("compile.warm",),
    "symmetry.build_s": ("symmetry",),
    "ftbar.run_s": ("ftbar.run",),
    "ftbar.init_s": ("ftbar.init",),
    "rtc.check_s": ("rtc.check",),
    "validation.s": ("validation",),
    "batch.compile_s": ("batch.compile",),
    "certify.s": ("certify", "reliability"),
    "reliability.s": ("reliability",),
    "cli.main_s": ("cli.main",),
    "import.child_s": ("import",),
    "process.startup_s": ("process.start", "process.exit"),
    "baseline.s": ("baseline",),
    "campaign.io_s": ("campaign.store", "campaign.cache", "campaign.build_problem", "campaign.expand"),
}

COUNTERS = (
    "compile.core_hits", "compile.core_misses", "compile.variant_hits",
    "compile.variant_misses", "symmetry.generators",
    "ftbar.steps", "ftbar.pressure_evaluations", "ftbar.cache_hits",
    "ftbar.symmetry_pruned", "ftbar.duplication_attempts",
    "batch.scenarios", "batch.simulated", "batch.memo_hits",
    "batch.pruned_nominal", "batch.decisions", "batch.copied",
    "certify.levels_exact", "certify.levels_projected",
    "certify.levels_bounds", "certify.levels_sampled", "certify.samples",
    "campaign.executed", "campaign.cache_hits", "campaign.store_bytes",
    "campaign.cache_bytes",
)


def layer_metrics(run: Run, traced: dict, env: dict) -> dict[str, float]:
    recorder = run.recorder
    cycles = len(traced["walls"])
    own = tr.self_times(recorder.spans)
    inside = tr.self_times(recorder.spans, root="request")
    layers = {
        metric: sum(own.get(name, 0.0) for name in names) / cycles
        for metric, names in LAYERS.items()
    }
    wall = sum(traced["walls"])
    unattributed = inside.get("request", 0.0)
    layers["trace.coverage"] = 1.0 - unattributed / wall if wall else 0.0
    layers["trace.overhead_s"] = traced["traced_wall"] - traced["untraced_wall"]
    counters = traced["counters"]
    for name in COUNTERS:
        layers[name] = float(counters.get(name, 0))
    hits, evals = counters.get("ftbar.cache_hits", 0), counters.get("ftbar.pressure_evaluations", 0)
    layers["ftbar.hit_ratio"] = hits / (hits + evals) if hits + evals else 0.0
    copied, decisions = counters.get("batch.copied", 0), counters.get("batch.decisions", 0)
    layers["batch.reuse_ratio"] = copied / (copied + decisions) if copied + decisions else 0.0
    shares = run.extra.get("campaign.expand_share", [])
    layers["campaign.expand_share"] = sorted(shares)[len(shares) // 2] if shares else 0.0
    layers.update(import_breakdown(env))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = run_workload(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
