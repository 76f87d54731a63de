"""Text rendering of experiment results.

The benchmarks print "the same rows/series the paper reports": one table
per figure, plus a tiny ASCII plot helper for eyeballing curve shapes in
a terminal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotations only: ``repro example`` stays light
    from repro.analysis.experiments import (
        AblationPoint,
        BusComparisonPoint,
        NpfPoint,
        OptimalityGapPoint,
        OverheadSweep,
        RuntimePoint,
    )
    from repro.analysis.paper_example import PaperExampleResults


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align a list of rows under headers, numbers rendered with %g."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    grid = [list(headers)] + [[render(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(grid):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_overhead_sweep(sweep: OverheadSweep, title: str) -> str:
    """Render a Figure 9/10-style sweep as two tables (absence/presence)."""
    absence_rows = [
        (point.x, point.ftbar_absence, point.hbp_absence, point.graphs)
        for point in sweep.points
    ]
    presence_rows = [
        (point.x, point.ftbar_presence, point.hbp_presence, point.graphs)
        for point in sweep.points
    ]
    parts = [
        title,
        "",
        "(a) average overheads [%] in the ABSENCE of failure",
        format_table(
            (sweep.parameter, "FTBAR", "HBP", "graphs"), absence_rows
        ),
        "",
        "(b) average overheads [%] in the PRESENCE of one failure "
        "(max over crashed processors)",
        format_table(
            (sweep.parameter, "FTBAR", "HBP", "graphs"), presence_rows
        ),
    ]
    return "\n".join(parts)


def format_paper_example(results: PaperExampleResults, references: dict) -> str:
    """Render the E1 reproduction next to the paper's reference numbers."""
    rows = [
        ("fault-tolerant schedule length", f"{results.ft_length:.2f}",
         f"{references['ft_length']:.2f}"),
        ("basic (SynDEx-like) schedule length", f"{results.basic_length:.2f}",
         f"{references['basic_length']:.2f}"),
        ("fault-tolerance overhead", f"{results.overhead:.2f}",
         f"{references['overhead']:.2f}"),
        ("Rtc = 16 satisfied", str(results.rtc_satisfied), "True"),
    ]
    for processor in sorted(results.degraded):
        rows.append(
            (
                f"degraded length, {processor} crashes at t=0",
                f"{results.degraded[processor]:.2f}",
                f"{references['degraded'][processor]:.2f}",
            )
        )
    return format_table(("quantity", "measured", "paper"), rows)


def format_npf_sweep(points: list[NpfPoint]) -> str:
    """Render the E7 Npf sweep."""
    rows = [(p.npf, p.overhead, p.makespan, p.graphs) for p in points]
    return format_table(("Npf", "overhead %", "makespan", "graphs"), rows)


def format_runtime_comparison(points: list[RuntimePoint]) -> str:
    """Render the E6 scheduling-time comparison."""
    rows = [
        (
            p.operations,
            p.ftbar_seconds * 1000.0,
            p.hbp_seconds * 1000.0,
            (p.hbp_seconds / p.ftbar_seconds) if p.ftbar_seconds else float("nan"),
            p.graphs,
        )
        for p in points
    ]
    return format_table(
        ("N", "FTBAR [ms]", "HBP [ms]", "HBP/FTBAR", "graphs"), rows
    )


def format_bus_comparison(points: list[BusComparisonPoint]) -> str:
    """Render the E9 point-to-point-versus-bus table."""
    rows = [
        (
            p.ccr,
            p.p2p_overhead,
            p.bus_overhead,
            p.p2p_makespan,
            p.bus_makespan,
            p.graphs,
        )
        for p in points
    ]
    return format_table(
        (
            "CCR",
            "p2p overhead %",
            "bus overhead %",
            "p2p makespan",
            "bus makespan",
            "graphs",
        ),
        rows,
    )


def format_ablation(points: list[AblationPoint]) -> str:
    """Render the E8 ablation table."""
    rows = [(p.label, p.makespan, p.overhead, p.graphs) for p in points]
    return format_table(("variant", "makespan", "overhead %", "graphs"), rows)


def format_optimality_gap(points: list[OptimalityGapPoint]) -> str:
    """Render the E10 optimality-gap table."""
    rows = [
        (
            p.seed,
            p.ftbar_makespan,
            p.best_makespan,
            p.gap_percent,
            p.assignments,
        )
        for p in points
    ]
    table = format_table(
        ("seed", "FTBAR", "best assignment", "gap %", "assignments"), rows
    )
    gaps = [p.gap_percent for p in points]
    if gaps:
        summary = (
            f"\nmean gap {sum(gaps) / len(gaps):.2f} %, "
            f"worst {max(gaps):.2f} %, best {min(gaps):.2f} %"
        )
    else:
        summary = ""
    return table + summary


def ascii_plot(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
) -> str:
    """A tiny ASCII scatter of several named series (for terminals).

    Each series is plotted with its own marker (first letter of its
    name); axes are scaled to the data range.
    """
    if not xs or not series:
        return "(no data)"
    all_ys = [y for ys in series.values() for y in ys]
    y_low, y_high = min(all_ys), max(all_ys)
    x_low, x_high = min(xs), max(xs)
    y_span = (y_high - y_low) or 1.0
    x_span = (x_high - x_low) or 1.0
    canvas = [[" "] * width for _ in range(height)]
    for name, ys in sorted(series.items()):
        marker = name[0].upper()
        for x, y in zip(xs, ys):
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            canvas[row][column] = marker
    lines = [f"{y_high:10.2f} |" + "".join(canvas[0])]
    for row in canvas[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_low:10.2f} |" + "".join(canvas[-1]))
    lines.append(" " * 12 + f"{x_low:<10.3g}" + " " * max(0, width - 20) + f"{x_high:>10.3g}")
    legend = ", ".join(f"{name[0].upper()}={name}" for name in sorted(series))
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
