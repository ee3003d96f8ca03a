"""Window-semantics edge cases: boundaries, empty windows, ordering."""

import pytest

from repro.obs.live.events import TelemetryEvent, TelemetrySink
from repro.obs.live.windows import (
    WindowConfig, WindowError, aggregate_windows, percentile,
)


def _event(ts, kind, seq=0, **fields):
    return TelemetryEvent(ts_us=ts, kind=kind, seq=seq, fields=fields)


def _query(ts, seq=0, ok=True, latency=100.0, status="served"):
    return _event(
        ts, "query", seq=seq, status=status, ok=ok, latency_us=latency
    )


class TestWindowConfig:
    def test_tumbling_step_is_width(self):
        windows = aggregate_windows([], WindowConfig(10.0), horizon_us=25.0)
        assert [(w.start_us, w.end_us) for w in windows] == [
            (0.0, 10.0), (10.0, 20.0), (20.0, 30.0),
        ]

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_bad_width_raises(self, width):
        with pytest.raises(WindowError):
            WindowConfig(width)


class TestHalfOpenBoundary:
    def test_event_on_boundary_lands_in_next_window(self):
        windows = aggregate_windows(
            [_event(10.0, "arrival")], WindowConfig(10.0), horizon_us=20.0
        )
        assert [w.arrivals for w in windows] == [0, 1, 0]

    def test_event_at_zero_lands_in_first_window(self):
        windows = aggregate_windows(
            [_event(0.0, "arrival")], WindowConfig(10.0), horizon_us=10.0
        )
        assert windows[0].arrivals == 1

    def test_event_just_under_boundary_stays(self):
        windows = aggregate_windows(
            [_event(9.999, "arrival")], WindowConfig(10.0),
            horizon_us=20.0,
        )
        assert windows[0].arrivals == 1

    def test_event_exactly_at_horizon_has_a_window(self):
        windows = aggregate_windows(
            [_event(20.0, "arrival")], WindowConfig(10.0), horizon_us=20.0
        )
        assert windows[-1].start_us == 20.0
        assert windows[-1].arrivals == 1


class TestEmptyWindows:
    def test_gapless_series_with_quiet_middle(self):
        events = [_event(1.0, "arrival"), _event(45.0, "arrival", seq=1)]
        windows = aggregate_windows(events, WindowConfig(10.0))
        assert [w.arrivals for w in windows] == [1, 0, 0, 0, 1]
        assert [w.index for w in windows] == [0, 1, 2, 3, 4]

    def test_no_events_at_all_still_covers_horizon(self):
        windows = aggregate_windows([], WindowConfig(10.0), horizon_us=35.0)
        assert len(windows) == 4
        assert all(w.finished == 0 for w in windows)
        # Empty window percentiles are 0.0, never an exception.
        assert windows[0].latency_pct(99) == 0.0
        assert windows[0].qps() == 0.0

    def test_horizon_extends_but_never_truncates(self):
        events = [_event(25.0, "arrival")]
        windows = aggregate_windows(
            events, WindowConfig(10.0), horizon_us=5.0
        )
        assert len(windows) == 3  # the late event keeps its window

    def test_event_before_t_start_raises(self):
        with pytest.raises(WindowError, match="precedes t_start"):
            aggregate_windows(
                [_event(1.0, "arrival")], WindowConfig(10.0), t_start=5.0
            )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_sample(self):
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 100) == 42.0

    def test_linear_interpolation(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 50) == pytest.approx(25.0)
        assert percentile(samples, 100) == 40.0
        assert percentile(samples, 0) == 10.0

    def test_out_of_range_raises(self):
        with pytest.raises(WindowError):
            percentile([1.0], 101)


class TestIngestKinds:
    def test_query_ok_defaults_to_served_status(self):
        events = [
            _event(1.0, "query", seq=0, status="served", latency_us=5.0),
            _event(2.0, "query", seq=1, status="shed"),
        ]
        (window,) = aggregate_windows(
            events, WindowConfig(10.0), horizon_us=9.0
        )
        assert window.ok == 1
        assert window.errors == 1
        assert window.outcomes == {"served": 1, "shed": 1}

    def test_lifecycle_signals_counted(self):
        events = [
            _event(1.0, "health", seq=0, to_state="quarantined"),
            _event(2.0, "health", seq=1, to_state="active"),
            _event(3.0, "breaker", seq=2, to_state="open"),
            _event(4.0, "breaker", seq=3, to_state="closed"),
            _event(5.0, "audit", seq=4, ok=False),
            _event(6.0, "audit", seq=5, ok=True),
        ]
        (window,) = aggregate_windows(
            events, WindowConfig(10.0), horizon_us=9.0
        )
        assert window.health_transitions == 2
        assert window.quarantines == 1
        assert window.breaker_opens == 1
        assert window.audit_checks == 2
        assert window.audit_mismatches == 1

    def test_fault_labels(self):
        events = [
            _event(1.0, "fault", seq=0, event="region-fail", region=0),
            _event(
                2.0, "fault", seq=1, event="region-slowdown", region=2,
                value=3.0,
            ),
        ]
        (window,) = aggregate_windows(
            events, WindowConfig(10.0), horizon_us=9.0
        )
        assert window.faults == ["region-fail r0", "region-slowdown r2 x3"]

    def test_order_independence(self):
        events = [
            _query(3.0, seq=0, latency=50.0),
            _query(17.0, seq=1, latency=150.0),
            _event(9.0, "arrival", seq=2),
        ]
        config = WindowConfig(10.0)
        forward = aggregate_windows(events, config, horizon_us=30.0)
        backward = aggregate_windows(
            list(reversed(events)), config, horizon_us=30.0
        )
        assert [w.as_dict() for w in forward] == [
            w.as_dict() for w in backward
        ]

    def test_time_and_seq_ties_keep_input_order(self):
        # Events order by (ts_us, seq) only: a tie keeps its input
        # order and never compares field values (None against str).
        events = [
            _event(1.0, "fault", event="region-fail", region="a"),
            _event(1.0, "fault", event="region-fail", region=None),
        ]
        config = WindowConfig(10.0)
        (window,) = aggregate_windows(events, config, horizon_us=9.0)
        assert window.faults == ["region-fail ra", "region-fail"]
        (window,) = aggregate_windows(events[::-1], config, horizon_us=9.0)
        assert window.faults == ["region-fail", "region-fail ra"]


class TestSink:
    def test_emit_orders_by_time_then_seq(self):
        sink = TelemetrySink()
        sink.emit(5.0, "arrival")
        sink.emit(1.0, "arrival")
        sink.emit(1.0, "query", ("status",), "served")
        assert len(sink) == 3
        ordered = sink.ordered()
        assert [e.ts_us for e in ordered] == [1.0, 1.0, 5.0]
        # Ties break by emission order (seq).
        assert [e.kind for e in ordered] == ["arrival", "query", "arrival"]
