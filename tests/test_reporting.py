"""Tests for the text reporting helpers."""

from repro.analysis.experiments import (
    AblationPoint,
    NpfPoint,
    OverheadPoint,
    OverheadSweep,
    RuntimePoint,
)
from repro.analysis.paper_example import PaperExampleResults
from repro.analysis.reporting import (
    ascii_plot,
    format_ablation,
    format_npf_sweep,
    format_overhead_sweep,
    format_paper_example,
    format_runtime_comparison,
    format_table,
)


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 3.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        assert "2.50" in lines[2]

    def test_floats_rendered_with_two_decimals(self):
        assert "3.14" in format_table(("x",), [(3.14159,)])


class TestSweepFormatting:
    def make_sweep(self) -> OverheadSweep:
        return OverheadSweep(
            parameter="N",
            points=[
                OverheadPoint(10.0, 40.0, 55.0, 45.0, 60.0, 5),
                OverheadPoint(20.0, 42.0, 58.0, 47.0, 62.0, 5),
            ],
        )

    def test_both_sections_present(self):
        text = format_overhead_sweep(self.make_sweep(), "Figure 9")
        assert "ABSENCE" in text
        assert "PRESENCE" in text
        assert "FTBAR" in text
        assert "HBP" in text
        assert "Figure 9" in text

    def test_points_rendered(self):
        text = format_overhead_sweep(self.make_sweep(), "t")
        assert "40.00" in text
        assert "62.00" in text


class TestOtherFormatters:
    def test_paper_example(self):
        results = PaperExampleResults(
            ft_length=15.05,
            basic_length=10.7,
            non_ft_length=10.5,
            overhead=4.35,
            degraded={"P1": 15.35},
            rtc_satisfied=True,
            replicas=20,
            comms=7,
        )
        references = {
            "ft_length": 15.05,
            "basic_length": 10.7,
            "overhead": 4.35,
            "degraded": {"P1": 15.35},
        }
        text = format_paper_example(results, references)
        assert "15.05" in text
        assert "P1 crashes" in text

    def test_npf_sweep(self):
        text = format_npf_sweep([NpfPoint(1, 33.0, 120.0, 10)])
        assert "Npf" in text and "33.00" in text

    def test_runtime_comparison(self):
        text = format_runtime_comparison(
            [RuntimePoint(20, 0.010, 0.030, 5)]
        )
        assert "HBP/FTBAR" in text
        assert "3.00" in text

    def test_ablation(self):
        text = format_ablation([AblationPoint("no duplication", 50.0, 30.0, 4)])
        assert "no duplication" in text


class TestAsciiPlot:
    def test_plots_markers_for_each_series(self):
        text = ascii_plot(
            [1.0, 2.0, 3.0],
            {"ftbar": [10.0, 20.0, 30.0], "hbp": [15.0, 25.0, 40.0]},
        )
        assert "F" in text
        assert "H" in text
        assert "F=ftbar" in text

    def test_empty_input(self):
        assert ascii_plot([], {}) == "(no data)"

    def test_constant_series_does_not_crash(self):
        text = ascii_plot([1.0, 2.0], {"flat": [5.0, 5.0]})
        assert "F" in text
