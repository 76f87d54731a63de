"""Tests for the experiment harness (reduced parameters)."""

import pytest

from repro.analysis.experiments import (
    run_ablation,
    run_npf_sweep,
    run_overhead_vs_ccr,
    run_overhead_vs_operations,
    run_runtime_comparison,
)
from repro.analysis.paper_example import run_paper_example


class TestPaperExampleExperiment:
    def test_all_reference_quantities_present(self):
        results = run_paper_example()
        assert results.ft_length == pytest.approx(15.05)
        assert results.rtc_satisfied
        assert set(results.degraded) == {"P1", "P2", "P3"}
        assert results.overhead == pytest.approx(
            results.ft_length - results.basic_length
        )
        assert results.replicas >= 18


class TestOverheadSweeps:
    def test_overhead_vs_operations_structure(self):
        sweep = run_overhead_vs_operations(
            operation_counts=(8, 16), ccr=5.0, graphs_per_point=2, seed=11
        )
        assert sweep.parameter == "N"
        assert [p.x for p in sweep.points] == [8.0, 16.0]
        for point in sweep.points:
            assert point.graphs == 2
            assert 0.0 <= point.ftbar_absence <= 100.0
            assert 0.0 <= point.hbp_absence <= 100.0

    def test_overhead_vs_ccr_structure(self):
        sweep = run_overhead_vs_ccr(
            ccrs=(0.5, 5.0), operations=10, graphs_per_point=2, seed=13
        )
        assert sweep.parameter == "CCR"
        assert [p.x for p in sweep.points] == [0.5, 5.0]

    def test_ftbar_beats_hbp_at_high_ccr(self):
        sweep = run_overhead_vs_ccr(
            ccrs=(5.0,), operations=20, graphs_per_point=3, seed=17
        )
        point = sweep.points[0]
        assert point.ftbar_absence < point.hbp_absence


class TestNpfSweep:
    def test_overhead_grows_with_npf(self):
        points = run_npf_sweep(
            npfs=(0, 1, 2), operations=12, processors=4,
            graphs_per_point=3, seed=19,
        )
        overheads = [p.overhead for p in points]
        assert overheads[0] == pytest.approx(0.0, abs=1e-9)
        assert overheads[1] > overheads[0]
        assert overheads[2] > overheads[1]

    def test_makespan_grows_with_npf(self):
        points = run_npf_sweep(
            npfs=(0, 2), operations=12, processors=4, graphs_per_point=3, seed=23
        )
        assert points[1].makespan > points[0].makespan


class TestRuntimeComparison:
    def test_structure(self):
        points = run_runtime_comparison(
            operation_counts=(10,), graphs_per_point=2, seed=29
        )
        assert points[0].operations == 10
        assert points[0].ftbar_seconds > 0
        assert points[0].hbp_seconds > 0


class TestAblation:
    def test_five_variants(self):
        # Three rows: the paper, no duplication, processor-aware.
        points = run_ablation(operations=10, graphs_per_point=2, seed=31)
        assert len(points) == 3
        labels = {p.label for p in points}
        assert any("no duplication" in label for label in labels)
        assert any("processor-aware" in label for label in labels)

    def test_duplication_helps_at_high_ccr(self):
        points = run_ablation(operations=15, ccr=5.0, graphs_per_point=3, seed=37)
        by_label = {p.label: p for p in points}
        paper = by_label["ftbar (paper: duplication, append-only links)"]
        no_dup = by_label["no duplication"]
        assert paper.makespan <= no_dup.makespan
