"""Reliability-certification throughput: batch engine vs per-scenario oracle.

The section-5 guarantee is machine-checked by replaying every crash
subset; the batch engine (compile-once arrays, crash lanes at
instant 0, footprint-equivalence pruning, a verdict memo) must
give *bit-identical* verdicts to the per-scenario oracle
(``tests/certify_oracle.py``, one executor replay per scenario) while
doing far less work.  This bench times ``fault_tolerance_certificate``
at t = 0 against the oracle over P ∈ {4, 6, 8, 16, 32} processors (Npf = 1,
N = 20 operations, CCR = 1, seed 2003), and next to it the q = 0.01
reliability sum (exact up to P = 12, the stratum sum beyond).  It
records scenarios/sec, the event-decision counts of both engines and
the batched engine's crash lanes and lane passes in
``BENCH_runtime.json`` (merging with the sweeps written by
``bench_runtime.py``), and asserts the verdicts agree.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_reliability.py [--smoke]

``--smoke`` runs a reduced configuration (P = 4 and P = 16, so the
stratum sum runs too), checks the engine agrees with the oracle, and
does not touch ``BENCH_runtime.json`` — the CI guard that keeps the
batch path exercised.
"""

import gc
import json
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale
except ModuleNotFoundError:  # invoked as `python benchmarks/bench_reliability.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale
from repro.analysis.reliability import (
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.core.ftbar import schedule_ftbar
from repro.simulation.batch import BatchScenarioEngine
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests import certify_oracle
from tests.simulation_oracle import ScheduleSimulator

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
_OPERATIONS = 20
_NPF = 1
_NPL = 1
_SEED = 2003


def _certificate_problem(processors: int, npl: int = 0):
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=_OPERATIONS,
            ccr=1.0,
            processors=processors,
            npf=_NPF,
            seed=_SEED,
        )
    )
    problem.npl = npl
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def _levels(certificate) -> list[tuple[int, int, int, int]]:
    return [
        (level.failures, level.link_failures,
         level.masked_subsets, level.total_subsets)
        for level in certificate.levels
    ]


def bench_certificate(processors: int, repeats: int = 5) -> dict:
    """Time the batch engine and the oracle; verify identical verdicts.

    Each repeat rebuilds its engine, so the batched times (certificate,
    then the q = 0.01 reliability sum) honestly include the
    compile-once cost the engine amortizes per schedule.  The work
    counters (scenarios replayed, event decisions) come from one
    dedicated fresh run of each.
    """
    schedule, algorithm = _certificate_problem(processors)

    legacy_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        legacy = certify_oracle.certificate(schedule, algorithm)
        legacy_s = min(legacy_s, time.perf_counter() - started)
    simulator = ScheduleSimulator(schedule, algorithm)
    certify_oracle.certificate(schedule, algorithm, simulator=simulator)

    batched_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        batched = fault_tolerance_certificate(schedule, algorithm)
        batched_s = min(batched_s, time.perf_counter() - started)
    engine = BatchScenarioEngine(schedule, algorithm)
    fault_tolerance_certificate(schedule, algorithm, engine=engine)

    probabilities = {p: 0.01 for p in schedule.processor_names()}
    reliability_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        report = schedule_reliability(schedule, algorithm, probabilities)
        reliability_s = min(reliability_s, time.perf_counter() - started)

    assert _levels(legacy) == _levels(batched), (
        f"engines diverge at P={processors}"
    )
    assert legacy.breaking_subsets == batched.breaking_subsets
    stats = engine.stats
    return {
        "legacy_s": legacy_s,
        "batched_s": batched_s,
        "speedup": legacy_s / batched_s,
        "legacy_scenarios": simulator.runs,
        "legacy_scenarios_per_s": simulator.runs / legacy_s,
        "batched_scenarios": stats.scenarios,
        "batched_scenarios_per_s": stats.scenarios / batched_s,
        "batched_simulated": stats.simulated,
        "batched_lanes": stats.lanes,
        "batched_lane_passes": stats.lane_passes,
        "batched_pruned_nominal": stats.pruned_nominal,
        "batched_memo_hits": stats.memo_hits,
        "legacy_decisions": simulator.decisions,
        "batched_decisions": stats.decisions,
        "batched_copied": stats.copied,
        "certified": batched.certified,
        "reliability_s": reliability_s,
        "reliability_method": report.method,
    }


def bench_combined_certificate(processors: int, repeats: int = 5) -> dict:
    """Combined processor+link certification on an ``npl = 1`` schedule.

    Enumerates every (≤ Npf crash, ≤ Npl link) combined subset through
    both engines on the fully connected topology — the setting where
    route replication plus relay avoidance makes the joint verdict a
    guarantee — and records the timings next to the processor-only
    sweep.
    """
    schedule, algorithm = _certificate_problem(processors, npl=_NPL)

    legacy_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        legacy = certify_oracle.certificate(schedule, algorithm)
        legacy_s = min(legacy_s, time.perf_counter() - started)

    batched_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        batched = fault_tolerance_certificate(schedule, algorithm)
        batched_s = min(batched_s, time.perf_counter() - started)
    engine = BatchScenarioEngine(schedule, algorithm)
    fault_tolerance_certificate(schedule, algorithm, engine=engine)

    assert _levels(legacy) == _levels(batched), (
        f"combined engines diverge at P={processors}"
    )
    assert legacy.breaking_combined == batched.breaking_combined
    stats = engine.stats
    return {
        "npl": _NPL,
        "legacy_s": legacy_s,
        "batched_s": batched_s,
        "speedup": legacy_s / batched_s,
        "batched_scenarios": stats.scenarios,
        "batched_simulated": stats.simulated,
        "batched_lanes": stats.lanes,
        "batched_lane_passes": stats.lane_passes,
        "batched_decisions": stats.decisions,
        "certified": batched.certified,
    }


def bench_sampled_certificate(
    processors: int = 32, npf: int = 2, budget: int = 4000
) -> dict:
    """A verdict-with-error-bars where exhaustive enumeration cannot go.

    One ``P = 32, Npf = 2`` schedule: the adaptive certificate resolves
    the small levels exactly, projects/samples the large ones (with a
    confidence interval), and the sampled reliability estimate covers a
    ``2^32``-subset exhaustive space — the ~10^9-enumeration the ROADMAP
    names — in seconds.
    """
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=_OPERATIONS,
            ccr=1.0,
            processors=processors,
            npf=npf,
            seed=_SEED,
        )
    )
    result = schedule_ftbar(problem)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    engine = BatchScenarioEngine(schedule, algorithm)

    gc.collect()
    started = time.perf_counter()
    certificate = fault_tolerance_certificate(
        schedule,
        algorithm,
        max_failures=npf + 2,  # push one level past the projection regime
        engine=engine,
        budget=budget,
    )
    certificate_s = time.perf_counter() - started

    # The ladder resolves every large level by closed-form bounds here
    # (no draws at all); lowering the exact caps to 0 forces the sampler
    # for the error-bar demonstration.
    with certify_oracle.sampled_certificates():
        started = time.perf_counter()
        sampled_cert = fault_tolerance_certificate(
            schedule,
            algorithm,
            engine=engine,
            budget=budget,
        )
        sampled_cert_s = time.perf_counter() - started

    started = time.perf_counter()
    report = schedule_reliability(
        schedule,
        algorithm,
        {p: 0.01 for p in schedule.processor_names()},
        engine=engine,
        budget=budget,
    )
    reliability_s = time.perf_counter() - started

    assert report.method == "sampled" and report.ci is not None
    assert report.exhaustive_subsets == 2 ** processors
    assert sampled_cert.ci is not None and sampled_cert.samples > 0
    return {
        "processors": processors,
        "operations": _OPERATIONS,
        "npf": npf,
        "seed": _SEED,
        "budget": budget,
        "certificate_s": certificate_s,
        "certificate_verdict": certificate.verdict,
        "certificate_method": certificate.method,
        "certificate_samples": certificate.samples,
        "certificate_ci": (
            list(certificate.ci) if certificate.ci is not None else None
        ),
        "level_methods": {
            str(level.failures): level.method for level in certificate.levels
        },
        "level_populations": {
            str(level.failures): level.population or level.total_subsets
            for level in certificate.levels
        },
        "sampled_certificate_s": sampled_cert_s,
        "sampled_certificate_verdict": sampled_cert.verdict,
        "sampled_certificate_samples": sampled_cert.samples,
        "sampled_certificate_ci": list(sampled_cert.ci),
        "reliability_s": reliability_s,
        "reliability": report.reliability,
        "reliability_ci": list(report.ci),
        "confidence": report.confidence,
        "reliability_samples": report.samples,
        "evaluated_subsets": report.evaluated_subsets,
        "exhaustive_subsets": report.exhaustive_subsets,
        "guaranteed_lower_bound": report.guaranteed_lower_bound,
    }


def bench_agreement(processors: int, seed: int) -> dict:
    """Exhaustive vs forced-sampled agreement on one small instance.

    The sampled machinery must land on the exhaustive truth: same
    refuted-or-not verdict, and the exhaustive reliability inside the
    sampled confidence interval.  ``auto`` enumerates every level and
    the whole ``2^P`` sum of these small instances exactly.
    """
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=12, ccr=1.0, processors=processors, npf=1, seed=seed
        )
    )
    result = schedule_ftbar(problem)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    engine = BatchScenarioEngine(schedule, algorithm)
    probabilities = {p: 0.05 for p in schedule.processor_names()}

    exact_cert = fault_tolerance_certificate(
        schedule, algorithm, engine=engine
    )
    with certify_oracle.sampled_certificates():
        sampled_cert = fault_tolerance_certificate(
            schedule, algorithm, engine=engine
        )
    exact_rel = schedule_reliability(
        schedule, algorithm, probabilities, engine=engine
    )
    with certify_oracle.sampled_reliability():
        sampled_rel = schedule_reliability(
            schedule, algorithm, probabilities, engine=engine
        )

    assert exact_cert.method == "exact" and exact_rel.method == "exact"
    verdicts_agree = (exact_cert.verdict == "refuted") == (
        sampled_cert.verdict == "refuted"
    )
    lo, hi = sampled_rel.ci
    reliability_in_ci = lo - 1e-12 <= exact_rel.reliability <= hi + 1e-12
    levels_in_ci = all(
        level.ci[0] - 1e-12
        <= exact_cert.level(level.failures, level.link_failures).masked_fraction
        <= level.ci[1] + 1e-12
        for level in sampled_cert.levels
        if level.ci is not None
    )
    assert verdicts_agree, (
        f"P={processors} seed={seed}: sampled verdict "
        f"{sampled_cert.verdict!r} contradicts exhaustive "
        f"{exact_cert.verdict!r}"
    )
    assert reliability_in_ci, (
        f"P={processors} seed={seed}: exhaustive reliability "
        f"{exact_rel.reliability} outside sampled ci {sampled_rel.ci}"
    )
    assert levels_in_ci, (
        f"P={processors} seed={seed}: an exhaustive level fraction "
        f"escaped its sampled ci"
    )
    return {
        "processors": processors,
        "seed": seed,
        "exact_verdict": exact_cert.verdict,
        "sampled_verdict": sampled_cert.verdict,
        "verdicts_agree": verdicts_agree,
        "exact_reliability": exact_rel.reliability,
        "sampled_reliability": sampled_rel.reliability,
        "sampled_ci": list(sampled_rel.ci),
        "reliability_in_ci": reliability_in_ci,
        "levels_in_ci": levels_in_ci,
        "sampled_draws": sampled_rel.samples + sampled_cert.samples,
    }


def run_sampled_sweep(
    agreement_processors=(3, 4, 5, 6), smoke: bool = False
) -> dict:
    """The ``reliability_sampled_vs_exhaustive`` BENCH section."""
    section: dict = {
        "agreement": [
            bench_agreement(processors, seed)
            for processors in agreement_processors
            for seed in ((2003,) if smoke else (2003, 7))
        ],
    }
    if not smoke:
        section["p32"] = bench_sampled_certificate()
    return section


def run_reliability_sweep(
    processor_counts=(4, 6, 8, 16, 32), repeats: int = 5
) -> dict:
    """The recorded table: one certificate comparison per P."""
    sweep = {
        "operations": _OPERATIONS,
        "npf": _NPF,
        "seed": _SEED,
        "crash_times": 1,
    }
    for processors in processor_counts:
        sweep[str(processors)] = bench_certificate(processors, repeats)
    return sweep


def run_combined_sweep(processor_counts=(4, 6), repeats: int = 5) -> dict:
    """Combined processor+link certificates, one comparison per P."""
    sweep = {
        "operations": _OPERATIONS,
        "npf": _NPF,
        "npl": _NPL,
        "seed": _SEED,
        "crash_times": 1,
    }
    for processors in processor_counts:
        sweep[str(processors)] = bench_combined_certificate(processors, repeats)
    return sweep


def write_bench_json(repeats: int = 5) -> dict:
    """Merge the reliability sweeps into ``BENCH_runtime.json``."""
    payload = (
        json.loads(_RESULT_PATH.read_text()) if _RESULT_PATH.exists() else {}
    )
    payload["reliability_certificate_batched_vs_scenario"] = (
        run_reliability_sweep(repeats=repeats)
    )
    payload["reliability_certificate_combined_npf_npl"] = (
        run_combined_sweep(repeats=repeats)
    )
    payload["reliability_sampled_vs_exhaustive"] = run_sampled_sweep()
    _RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv and not full_scale()
    if smoke:
        sweep = run_reliability_sweep(processor_counts=(4, 16), repeats=2)
        combined = run_combined_sweep(processor_counts=(4,), repeats=2)
        sampled = run_sampled_sweep(agreement_processors=(4,), smoke=True)
    else:
        payload = write_bench_json()
        sweep = payload["reliability_certificate_batched_vs_scenario"]
        combined = payload["reliability_certificate_combined_npf_npl"]
        sampled = payload["reliability_sampled_vs_exhaustive"]
    for key in sorted((k for k in sweep if k.isdigit()), key=int):
        point = sweep[key]
        print(
            f"P={key}: certificate {point['legacy_s']*1e3:8.2f} ms -> "
            f"{point['batched_s']*1e3:8.2f} ms  ({point['speedup']:.2f}x, "
            f"q=0.01 {point['reliability_method']} reliability "
            f"{point['reliability_s']*1e3:.2f} ms, "
            f"{point['legacy_scenarios_per_s']:.0f} -> "
            f"{point['batched_scenarios_per_s']:.0f} scenarios/s, "
            f"{point['legacy_decisions']} -> {point['batched_decisions']} "
            f"event decisions, {point['batched_lanes']} lanes in "
            f"{point['batched_lane_passes']} passes)"
        )
    for key in sorted((k for k in combined if k.isdigit()), key=int):
        point = combined[key]
        print(
            f"P={key} npl={point['npl']}: combined certificate "
            f"{point['legacy_s']*1e3:8.2f} ms -> "
            f"{point['batched_s']*1e3:8.2f} ms  ({point['speedup']:.2f}x, "
            f"{point['batched_scenarios']} combined scenario verdicts, "
            f"certified={point['certified']})"
        )
    for entry in sampled["agreement"]:
        print(
            f"P={entry['processors']} seed={entry['seed']}: "
            f"exhaustive {entry['exact_verdict']} vs sampled "
            f"{entry['sampled_verdict']} — agree={entry['verdicts_agree']}, "
            f"reliability {entry['exact_reliability']:.6f} in "
            f"[{entry['sampled_ci'][0]:.6f}, {entry['sampled_ci'][1]:.6f}]"
        )
    if "p32" in sampled:
        p32 = sampled["p32"]
        print(
            f"P={p32['processors']} npf={p32['npf']}: sampled certificate "
            f"{p32['certificate_s']:.2f} s ({p32['certificate_verdict']}, "
            f"{p32['certificate_samples']} draws), reliability "
            f"{p32['reliability']:.6f} ci [{p32['reliability_ci'][0]:.6f}, "
            f"{p32['reliability_ci'][1]:.6f}] in {p32['reliability_s']:.2f} s "
            f"over a {p32['exhaustive_subsets']}-subset exhaustive space"
        )
    if smoke:
        print(
            "smoke ok: batch-engine and oracle certificates bit-identical, "
            "sampled verdicts agree with exhaustive on the small corpus"
        )
    else:
        print(f"recorded in {_RESULT_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
