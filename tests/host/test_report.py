"""Unit tests for serving-report statistics (percentiles, caching)."""

import pytest

from repro.host.query import QueryOutcome, QueryStatus
from repro.host.report import ServingReport, percentile


def _served(query_id, latency_us):
    return QueryOutcome(
        query_id=query_id,
        status=QueryStatus.SERVED,
        arrival_us=0.0,
        finish_us=latency_us,
        latency_us=latency_us,
        service_us=latency_us,
        attempts=1,
    )


def _shed(query_id):
    return QueryOutcome(
        query_id=query_id,
        status=QueryStatus.SHED,
        arrival_us=0.0,
        finish_us=0.0,
        latency_us=0.0,
        shed_reason="queue-full",
    )


class TestPercentile:
    def test_empty_sample_returns_zero(self):
        assert percentile([], 50) == 0.0

    def test_empty_sample_out_of_range_still_returns_zero(self):
        # Historical behavior: the empty check precedes range
        # validation, so an empty sample never raises.
        assert percentile([], 500) == 0.0

    def test_p0_returns_minimum(self):
        assert percentile([30.0, 10.0, 20.0], 0) == 10.0

    def test_p100_returns_maximum(self):
        assert percentile([30.0, 10.0, 20.0], 100) == 30.0

    @pytest.mark.parametrize("p", [-1, -0.001, 100.001, 500])
    def test_out_of_range_raises(self, p):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], p)

    def test_nearest_rank_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_single_element_any_percentile(self):
        for p in (0, 50, 100):
            assert percentile([7.0], p) == 7.0

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 50)
        assert values == [3.0, 1.0, 2.0]


class TestLatencySummary:
    def test_summary_matches_individual_percentiles(self):
        report = ServingReport(
            outcomes=[_served(i, float(100 * (i + 1))) for i in range(10)]
            + [_shed(99)]
        )
        summary = report.latency_summary()
        assert summary["p50"] == report.latency_percentile(50)
        assert summary["p95"] == report.latency_percentile(95)
        assert summary["p99"] == report.latency_percentile(99)
        assert summary["mean"] == pytest.approx(550.0)

    def test_empty_report_summary_is_zero(self):
        summary = ServingReport().latency_summary()
        assert summary == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_as_dict_uses_summary(self):
        report = ServingReport(
            outcomes=[_served(0, 100.0), _served(1, 300.0)]
        )
        assert report.as_dict()["latency_us"] == report.latency_summary()

    def test_shed_outcomes_excluded_from_sample(self):
        report = ServingReport(outcomes=[_served(0, 100.0), _shed(1)])
        assert report.served_latencies() == [100.0]
        assert report.latency_percentile(100) == 100.0

    def test_cache_is_reused_across_calls(self):
        report = ServingReport(outcomes=[_served(0, 50.0)])
        report.latency_percentile(50)
        first = report._latency_cache
        report.latency_summary()
        report.latency_percentile(99)
        assert report._latency_cache is first

    def test_cache_invalidated_when_outcomes_grow(self):
        report = ServingReport(outcomes=[_served(0, 100.0)])
        assert report.latency_percentile(100) == 100.0
        report.outcomes.append(_served(1, 900.0))
        assert report.latency_percentile(100) == 900.0

    def test_summary_percentiles_consistent(self):
        report = ServingReport(
            outcomes=[_served(i, float(i)) for i in range(1, 101)]
        )
        headline = report.summary()
        assert headline["p50_ms"] == pytest.approx(50.0 / 1e3)
        assert headline["p99_ms"] == pytest.approx(99.0 / 1e3)
