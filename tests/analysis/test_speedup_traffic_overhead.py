"""Speedup curves, traffic summaries, overhead sweeps, α/β stats."""

import pytest

from repro.analysis import (
    OverheadSweep,
    SpeedupCurve,
    SweepPoint,
    format_overhead_table,
    format_speedup_table,
    format_traffic_series,
    knee,
    measure_beta,
    parallelism_stats,
    summarize_traffic,
)
from repro.machine.report import OverheadBreakdown


class TestSpeedupCurve:
    def make_curve(self):
        curve = SpeedupCurve("demo")
        for pes, time in ((1, 100.0), (4, 30.0), (16, 10.0), (64, 9.0)):
            curve.add(SweepPoint(pes, pes, time))
        return curve

    def test_baseline_is_smallest_config(self):
        assert self.make_curve().baseline_time_us == 100.0

    def test_speedups_ascending_processors(self):
        speedups = self.make_curve().speedups()
        assert [p for p, _s in speedups] == [1, 4, 16, 64]
        assert speedups[0][1] == 1.0
        assert speedups[2][1] == pytest.approx(10.0)

    def test_max_and_efficiency(self):
        curve = self.make_curve()
        eff = dict(curve.efficiency())
        assert eff[1] == pytest.approx(1.0)
        assert eff[64] < 0.2

    def test_knee_detects_saturation(self):
        assert knee(self.make_curve(), threshold=0.05) == 16

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            SpeedupCurve("empty").baseline_time_us

    def test_table_renders_all_curves(self):
        a, b = self.make_curve(), self.make_curve()
        b.label = "other"
        text = format_speedup_table([a, b])
        assert "demo" in text and "other" in text


class TestTraffic:
    def test_summary(self):
        summary = summarize_traffic([10, 40, 5, 0])
        assert summary.sync_points == 4
        assert summary.total_messages == 55
        assert summary.mean == pytest.approx(13.75)
        assert summary.peak == 40
        assert summary.bursts_over_30 == 1
        assert summary.bursty

    def test_empty_series(self):
        summary = summarize_traffic([])
        assert summary.sync_points == 0
        assert not summary.bursty

    def test_render(self):
        text = format_traffic_series([5, 35], title="t")
        assert "t" in text
        assert "mean=" in text


class TestOverheadSweep:
    def make_sweep(self):
        sweep = OverheadSweep()
        sweep.add(1, 5, OverheadBreakdown(10, 0, 1, 100))
        sweep.add(4, 20, OverheadBreakdown(10, 20, 3, 400))
        sweep.add(16, 72, OverheadBreakdown(11, 40, 9, 1600))
        return sweep

    def test_series(self):
        sweep = self.make_sweep()
        assert sweep.series("collection") == [
            (1, 100.0), (4, 400.0), (16, 1600.0)
        ]

    def test_shape_checks(self):
        sweep = self.make_sweep()
        assert sweep.is_roughly_constant("broadcast")
        assert sweep.is_sublinear("communication")
        assert not sweep.is_sublinear("collection")
        assert sweep.dominant_component() == "collection"

    def test_growth_ratio(self):
        assert self.make_sweep().growth_ratio("collection") == 16.0

    def test_render(self):
        text = format_overhead_table(self.make_sweep())
        assert "clusters" in text
        assert "collection" in text


class TestParallelismStats:
    def test_beta_from_programs(self):
        from repro.isa import Propagate, SnapProgram, chain

        program = SnapProgram([
            Propagate(0, 10, chain("r")),
            Propagate(1, 11, chain("r")),
            Propagate(10, 12, chain("r")),  # dependent
        ])
        assert measure_beta([program]) == [2, 1]

    def test_combined_stats(self, fig5_kb):
        from repro.baselines import SerialMachine
        from repro.isa import assemble

        program = assemble("""
        SEARCH-NODE w:we m1
        SEARCH-NODE w:saw m2
        PROPAGATE m1 m3 chain(is-a) identity
        PROPAGATE m2 m4 chain(is-a) identity
        """)
        report = SerialMachine(fig5_kb).run(program)
        stats = parallelism_stats([report], [program])
        assert stats.propagates == 2
        assert stats.alpha_min == 1
        assert stats.beta_max == 2.0
        assert "alpha_mean" in stats.as_dict()

    def test_empty(self):
        stats = parallelism_stats([], [])
        assert stats.propagates == 0
