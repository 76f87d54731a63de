"""Render the README performance table from ``BENCH_runtime.json``.

The repository's perf trajectory accumulates in ``BENCH_runtime.json``
(each bench merges its own keys); this script turns the recorded
sections into the Markdown tables the README's "Performance" section
embeds, so the published numbers are always regenerable from the
recorded data rather than hand-copied::

    PYTHONPATH=src python benchmarks/render_perf_table.py [path]

Covered sections, one table per engine-trajectory PR:

* ``ftbar_kernel_vs_reference`` — the compiled kernel (PRs 5/6) vs the
  paper-literal reference engine, with and without symmetry pruning;
* ``reliability_certificates`` — the batched scenario engine and its
  crash lanes;
* ``reliability_sampled_vs_exhaustive`` — PR 8's adaptive sampled
  certification (bounds + confidence intervals past the enumeration
  cap, pinned against exhaustive truth on the small corpus);
* ``campaign_compile_reuse`` — PR 6's shared-compilation memo hits
  across a npf/npl/ccr variant grid;
* ``campaign_jobs1_vs_cpu`` — PR 2's worker pool;
* ``campaign_backend_scaling`` — campaign scaling over worker counts
  (serial reference vs 1/2/4 workers — recorded on PR 9's directory
  backend, later on the one campaign dispatch — merged stores verified
  byte-identical before timing);
* ``phase_breakdown`` — PR 7's traced per-phase split of the smoke
  problems (where a scheduling run's wall time actually goes);
* ``obs_overhead`` — PR 7's pinned no-op cost of disabled telemetry;
* ``cold_start`` — PR 35's cold ``example`` / ``schedule`` /
  ``certify`` processes: CPU, peak RSS and what each one compiles.

Entries that are missing fields (interrupted bench, older schema,
partial sweep) are skipped with a visible note instead of crashing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:,.1f} ms"


def _complete_rows(section: dict, required: tuple[str, ...]) -> tuple[list, list]:
    """Rows of a sweep section split into (renderable, skipped-Ns).

    A bench that was interrupted, ran on an older schema or merged a
    partial sweep leaves entries without some fields; those rows are
    skipped — with a visible note — instead of crashing the render.
    """
    rows, skipped = [], []
    for n, point in sorted(section.items(), key=lambda kv: int(kv[0])):
        if isinstance(point, dict) and all(key in point for key in required):
            rows.append((n, point))
        else:
            skipped.append(n)
    return rows, skipped


def _skip_note(skipped: list) -> list[str]:
    if not skipped:
        return []
    return [
        "",
        f"*(N = {', '.join(skipped)} skipped: entries incomplete in "
        "`BENCH_runtime.json` — rerun `benchmarks/bench_runtime.py --full`)*",
    ]


def render_kernel_vs_reference(section: dict, scale: str | None) -> list[str]:
    rows, skipped = _complete_rows(
        section,
        (
            "reference_s", "kernel_s", "kernel_nosym_s", "speedup",
            "pressure_evaluations", "reference_pressure_evaluations",
        ),
    )
    lines = [
        "### Compiled kernel vs reference engine",
        "",
        f"Scale: {scale or 'unrecorded'} (P=4, npf=1, CCR 1.0, seed 2003).",
        "",
        "| N | reference | kernel | kernel, no symmetry | speedup "
        "| plans computed (vs reference) | symmetry-pruned |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for n, point in rows:
        lines.append(
            f"| {n} | {_fmt_ms(point['reference_s'])} "
            f"| {_fmt_ms(point['kernel_s'])} "
            f"| {_fmt_ms(point['kernel_nosym_s'])} "
            f"| {point['speedup']:.1f}x "
            f"| {point['pressure_evaluations']} vs "
            f"{point['reference_pressure_evaluations']} "
            f"| {point.get('symmetry_pruned', '-')} |"
        )
    return lines + _skip_note(skipped) if rows else []


def render_compile_reuse(section: dict) -> list[str]:
    cache = section.get("compile_cache")
    if not isinstance(cache, dict) or "jobs" not in section:
        return []
    grid = section.get("grid", {})
    axes = ", ".join(
        f"{axis}={values}" for axis, values in sorted(grid.items())
    )
    return [
        "### PR 6 — shared compilation across a campaign grid",
        "",
        f"One campaign grid ({axes}) of {section['jobs']} variant jobs over "
        "a single workload: the content-addressed compile memos build the "
        f"core tables once ({cache.get('core_misses', '?')} miss) and serve "
        f"every other variant from cache — {cache.get('core_hits', '?')} "
        f"core hits, {cache.get('variant_hits', '?')} variant hits / "
        f"{cache.get('variant_misses', '?')} misses.",
    ]


def render_reliability(label: str, section: dict) -> list[str]:
    lines = [
        f"### Batched scenario engine and crash lanes ({label})",
        "",
        "| P | per-scenario | batched | speedup | verdicts | replays "
        "| lanes (passes) | reliability q=0.01 |",
        "|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for processors, point in sorted(
        ((k, v) for k, v in section.items() if isinstance(v, dict)),
        key=lambda kv: int(kv[0]),
    ):
        if "batched_s" not in point:
            continue
        lanes = (
            f"{point['batched_lanes']} ({point['batched_lane_passes']})"
            if "batched_lanes" in point
            else "–"
        )
        reliability = (
            f"{_fmt_ms(point['reliability_s'])} "
            f"({point['reliability_method']})"
            if "reliability_s" in point
            else "–"
        )
        lines.append(
            f"| {processors} | {_fmt_ms(point['legacy_s'])} "
            f"| {_fmt_ms(point['batched_s'])} "
            f"| {point['speedup']:.1f}x "
            f"| {point.get('batched_scenarios', '–')} "
            f"| {point.get('batched_simulated', '–')} | {lanes} "
            f"| {reliability} |"
        )
    return lines


def render_sampled(section: dict) -> list[str]:
    lines = ["### PR 8 — sampled certification vs exhaustive enumeration", ""]
    p32 = section.get("p32")
    if isinstance(p32, dict) and "reliability_ci" in p32:
        lo, hi = p32["reliability_ci"]
        lines += [
            f"At P = {p32['processors']}, Npf = {p32['npf']} the "
            f"exhaustive reliability sum is "
            f"{p32['exhaustive_subsets']:,} subsets; the adaptive "
            f"certifier answers in "
            f"{p32['certificate_s'] + p32['reliability_s']:.2f} s — "
            f"certificate **{p32['certificate_verdict']}** "
            f"(large levels by closed-form bounds; forced sampling: "
            f"ci [{p32['sampled_certificate_ci'][0]:.4f}, "
            f"{p32['sampled_certificate_ci'][1]:.4f}] from "
            f"{p32['sampled_certificate_samples']} draws), reliability "
            f"{p32['reliability']:.6f} in [{lo:.6f}, {hi:.6f}] at "
            f"{p32['confidence']:.0%} confidence from "
            f"{p32['reliability_samples']} draws "
            f"({p32['evaluated_subsets']} subsets evaluated).",
            "",
        ]
    agreement = [
        entry
        for entry in section.get("agreement", ())
        if isinstance(entry, dict) and "sampled_ci" in entry
    ]
    if agreement:
        lines += [
            "| P | seed | exhaustive | sampled | reliability | sampled ci |"
            " agree |",
            "|---:|---:|:--|:--|---:|:--|:--|",
        ]
        for entry in agreement:
            lo, hi = entry["sampled_ci"]
            ok = (
                entry["verdicts_agree"]
                and entry["reliability_in_ci"]
                and entry["levels_in_ci"]
            )
            lines.append(
                f"| {entry['processors']} | {entry['seed']} "
                f"| {entry['exact_verdict']} | {entry['sampled_verdict']} "
                f"| {entry['exact_reliability']:.6f} "
                f"| [{lo:.6f}, {hi:.6f}] | {'yes' if ok else 'NO'} |"
            )
    if len(lines) <= 2:
        return []
    return lines


def render_campaign(section: dict) -> list[str]:
    lines = ["### PR 2 — campaign worker pool", ""]
    if section.get("skipped"):
        lines.append(
            f"Skipped on this host: "
            f"{section.get('reason', 'no reason recorded')}"
        )
        return lines
    if not all(
        key in section
        for key in ("graphs", "operations", "jobs1_s", "jobs_cpu_s",
                    "workers", "speedup")
    ):
        lines.append(
            "*(entry incomplete in `BENCH_runtime.json` — rerun "
            "`benchmarks/bench_runtime.py`)*"
        )
        return lines
    suffix = " (oversubscribed)" if section.get("oversubscribed") else ""
    lines += [
        "| jobs | graphs x N | wall clock | speedup |",
        "|---:|:--|---:|---:|",
        f"| 1 | {section['graphs']} x N={section['operations']} "
        f"| {_fmt_ms(section['jobs1_s'])} | 1.0x |",
        f"| {section['workers']}{suffix} "
        f"| {section['graphs']} x N={section['operations']} "
        f"| {_fmt_ms(section['jobs_cpu_s'])} "
        f"| {section['speedup']:.1f}x |",
    ]
    return lines


def render_backend_scaling(section: dict) -> list[str]:
    lines = ["### PR 9 — execution-backend scaling", ""]
    host = ""
    if "cpu_count" in section:
        affinity = section.get("cpu_affinity")
        host = (
            f" (host: {section['cpu_count']} CPUs"
            + (f", affinity {affinity}" if affinity is not None else "")
            + ")"
        )
    if section.get("skipped"):
        lines.append(
            f"Skipped on this host{host}: "
            f"{section.get('reason', 'no reason recorded')}"
        )
        return lines
    sweep = section.get("sweep")
    if not isinstance(sweep, dict) or "serial_s" not in section:
        lines.append(
            "*(entry incomplete in `BENCH_runtime.json` — rerun "
            "`benchmarks/bench_runtime.py`)*"
        )
        return lines
    suffix = " — oversubscribed" if section.get("oversubscribed") else ""
    # Sections recorded before dispatch had one path name their backend.
    backend = section.get("backend", "run_campaign")
    lines += [
        f"Campaign of {section.get('graphs', '?')} x "
        f"N={section.get('operations', '?')} on the "
        f"`{backend}` backend{host}{suffix}; every leg's "
        "canonically merged store verified byte-identical to the serial "
        "reference.",
        "",
        "| backend | workers | wall clock | speedup vs serial |",
        "|:--|---:|---:|---:|",
        f"| serial | 1 | {_fmt_ms(section['serial_s'])} | 1.0x |",
    ]
    for workers, point in sorted(sweep.items(), key=lambda kv: int(kv[0])):
        if not isinstance(point, dict) or "elapsed_s" not in point:
            continue
        lines.append(
            f"| {backend} | {workers} "
            f"| {_fmt_ms(point['elapsed_s'])} "
            f"| {point['speedup_vs_serial']:.1f}x |"
        )
    return lines


def render_phase_breakdown(section: dict) -> list[str]:
    rows, skipped = [], []
    for label, point in sorted(section.items()):
        if isinstance(point, dict) and {"total_s", "phases"} <= set(point):
            rows.append((label, point))
        else:
            skipped.append(label)
    if not rows:
        return []
    lines = [
        "### PR 7 — per-phase breakdown of a traced scheduling run",
        "",
        "| problem | phase | calls | wall time | share |",
        "|:--|:--|---:|---:|---:|",
    ]
    for label, point in rows:
        name = f"{label} ({_fmt_ms(point['total_s'])} total)"
        for phase in sorted(point["phases"], key=lambda p: -p["total_s"]):
            lines.append(
                f"| {name} | `{phase['name']}` | {phase['count']} "
                f"| {_fmt_ms(phase['total_s'])} "
                f"| {phase['share']*100:.1f}% |"
            )
            name = ""
    if skipped:
        lines += [
            "",
            f"*({', '.join(skipped)} skipped: entries incomplete in "
            "`BENCH_runtime.json` — rerun `benchmarks/bench_runtime.py`)*",
        ]
    return lines


def render_obs_overhead(section: dict) -> list[str]:
    required = (
        "noop_site_ns", "sites_per_run", "step_clock_ns", "steps",
        "run_untraced_s", "noop_overhead_projected", "bound",
    )
    if not all(key in section for key in required):
        return []
    lines = [
        "### PR 7 — telemetry overhead while disabled",
        "",
        f"The per-step phase clock costs {section['step_clock_ns']:.0f} ns "
        f"and one disabled per-run instrumentation site "
        f"{section['noop_site_ns']:.0f} ns; the {section['steps']} steps "
        f"and {section['sites_per_run']} sites of a smoke scheduling run "
        f"project to {section['noop_overhead_projected']:.2%} of its "
        f"{_fmt_ms(section['run_untraced_s'])} wall time — enforced "
        f"below {section['bound']:.0%} by CI's obs-smoke job.",
    ]
    if "traced_ratio" in section:
        lines.append(
            f"With tracing *enabled* (in-memory exporter) the same run "
            f"costs {section['traced_ratio']:.2f}x."
        )
    return lines


def render_cold_start(section: dict) -> list[str]:
    required = (
        "cpu_s", "peak_rss_mb", "repro_modules", "repro_source_lines",
        "other_modules",
    )
    rows = [
        (label, point) for label, point in section.items()
        if label != "config" and isinstance(point, dict)
        and all(key in point for key in required)
    ]
    if not rows:
        return []
    config = section.get("config", {})
    lines = [
        "### PR 35 — cold processes",
        "",
        f"Each command as a fresh `python -m repro` process with bytecode "
        f"writing off (Python {config.get('python', '?')}): CPU is the "
        f"minimum of {config.get('repeats', '?')} runs, peak RSS the "
        f"`VmHWM` of one; `repro` source lines are all compiled.",
        "",
        "| command | CPU | peak RSS | `repro` modules | `repro` source lines "
        "| other modules |",
        "|:--|--:|--:|--:|--:|--:|",
    ]
    for label, point in rows:
        lines.append(
            f"| `{label}` | {_fmt_ms(point['cpu_s'])} "
            f"| {point['peak_rss_mb']:.1f} MB | {point['repro_modules']} "
            f"| {point['repro_source_lines']:,} | {point['other_modules']} |"
        )
    return lines


def render(payload: dict) -> str:
    blocks: list[list[str]] = []
    if "ftbar_kernel_vs_reference" in payload:
        blocks.append(
            render_kernel_vs_reference(
                payload["ftbar_kernel_vs_reference"],
                payload.get("scale", {}).get("ftbar_kernel_vs_reference"),
            )
        )
    for key, label in (
        (
            "reliability_certificate_batched_vs_scenario",
            "processor certificates",
        ),
        (
            "reliability_certificate_combined_npf_npl",
            "combined npf=1 + npl=1 certificates",
        ),
    ):
        if key in payload:
            rendered = render_reliability(label, payload[key])
            if len(rendered) > 4:
                blocks.append(rendered)
    if "reliability_sampled_vs_exhaustive" in payload:
        blocks.append(
            render_sampled(payload["reliability_sampled_vs_exhaustive"])
        )
    if "campaign_compile_reuse" in payload:
        blocks.append(render_compile_reuse(payload["campaign_compile_reuse"]))
    if "campaign_jobs1_vs_cpu" in payload:
        blocks.append(render_campaign(payload["campaign_jobs1_vs_cpu"]))
    if "campaign_backend_scaling" in payload:
        blocks.append(
            render_backend_scaling(payload["campaign_backend_scaling"])
        )
    if "phase_breakdown" in payload:
        blocks.append(render_phase_breakdown(payload["phase_breakdown"]))
    if "obs_overhead" in payload:
        blocks.append(render_obs_overhead(payload["obs_overhead"]))
    if "cold_start" in payload:
        blocks.append(render_cold_start(payload["cold_start"]))
    return "\n\n".join("\n".join(block) for block in blocks if block) + "\n"


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else _DEFAULT
    print(render(json.loads(path.read_text())), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
