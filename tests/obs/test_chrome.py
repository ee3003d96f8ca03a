"""Tests for the Chrome trace-event exporter and schema validator."""

import json

import pytest

from repro.obs.chrome import export_chrome_json, write_chrome_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import (
    TraceValidationError, validate_chrome_trace, validate_file,
    validation_errors,
)


def _small_capture():
    tracer = Tracer()
    host = tracer.track("host", "queue")
    replica = tracer.track("replica 00", "controller")
    tracer.counter(host, "queue_depth", 0.0, 1)
    tracer.span(replica, "attempt q0", 1.0, 5.0, ("ok",), True)
    tracer.instant(host, "outcome", 6.5, ("status",), "served")
    return tracer


class TestExporter:
    def test_document_shape(self):
        document = export_chrome_json(_small_capture())
        assert document["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in document["traceEvents"]]
        # Two processes + two threads announced, then the body.
        assert phases.count("M") == 4
        assert phases.count("X") == 1
        assert phases.count("i") == 1
        assert phases.count("C") == 1

    def test_pid_tid_assignment(self):
        document = export_chrome_json(_small_capture())
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in document["traceEvents"] if e["ph"] == "M"
            and e["name"] == "thread_name"
        }
        assert names == {(1, 1): "queue", (2, 1): "controller"}

        # Threads of two processes registered interleaved: each
        # process numbers its own threads from 1 in registration order.
        tracer = Tracer()
        for process, thread in (("A", "t1"), ("B", "t1"), ("A", "t2"),
                                ("B", "t2"), ("A", "t3")):
            tracer.instant(tracer.track(process, thread), "x", 0.0)
        document = export_chrome_json(tracer)
        ids = [
            (e["pid"], e["tid"]) for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert ids == [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]

    def test_body_sorted_by_timestamp(self):
        tracer = _small_capture()
        # Captured out of order on the same track.
        track = tracer.track("host", "queue")
        tracer.instant(track, "early", 0.25)
        document = export_chrome_json(tracer)
        body = [e for e in document["traceEvents"] if e["ph"] != "M"]
        assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)

    def test_open_span_closed_at_last_timestamp(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.begin(track, "never-ended", 1.0)
        tracer.instant(track, "last", 9.0)
        document = export_chrome_json(tracer)
        span = next(e for e in document["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 1.0
        assert span["dur"] == 8.0

    def test_metrics_embedded(self):
        metrics = MetricsRegistry()
        metrics.counter("host.queries").inc(2)
        document = export_chrome_json(_small_capture(), metrics=metrics)
        assert document["metrics"]["counters"] == {"host.queries": 2}

    def test_export_validates_and_roundtrips(self):
        document = export_chrome_json(_small_capture())
        validate_chrome_trace(document)
        validate_chrome_trace(json.loads(json.dumps(document)))

    def test_dict_counter_values(self):
        tracer = Tracer()
        track = tracer.track("kernel", "des")
        tracer.series(track, "heap", 1.0, ("heap_size", "pending"), 4, 2)
        document = export_chrome_json(tracer)
        event = next(e for e in document["traceEvents"] if e["ph"] == "C")
        assert event["args"] == {"heap_size": 4, "pending": 2}
        validate_chrome_trace(document)

    def test_shared_args_serialize_as_captured(self):
        # Equal values that serialize differently never share a dict.
        values = (0.0, -0.0, 1, True, 1.0, -0.0, 1)
        tracer = Tracer()
        track = tracer.track("p", "t")
        for ts, value in enumerate(values):
            tracer.instant(track, "i", float(ts), ("v",), value)
            tracer.counter(track, "c", float(ts), value)
        document = export_chrome_json(tracer)
        for phase, name in (("i", "v"), ("C", "value")):
            args = [json.dumps(e["args"]) for e in document["traceEvents"]
                    if e["ph"] == phase]
            assert args == [json.dumps({name: v}) for v in values]

    def test_write_chrome_json(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_json(str(path), _small_capture())
        assert validate_file(str(path)) == len(written["traceEvents"])


class TestValidator:
    def test_bare_array_accepted(self):
        assert validation_errors([]) == []

    def test_non_trace_rejected(self):
        assert validation_errors(42)
        assert validation_errors({"no": "events"})

    def test_unknown_phase(self):
        errors = validation_errors(
            [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
        )
        assert any("unknown phase" in e for e in errors)

    def test_negative_duration(self):
        errors = validation_errors([
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0,
             "dur": -1.0},
        ])
        assert any("negative dur" in e for e in errors)

    def test_counter_needs_numeric_args(self):
        errors = validation_errors([
            {"ph": "C", "name": "c", "pid": 1, "tid": 1, "ts": 0,
             "args": {"value": "high"}},
        ])
        assert any("numeric" in e for e in errors)

    def test_monotonicity_per_track(self):
        good = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5, "s": "t"},
            {"ph": "i", "name": "b", "pid": 1, "tid": 2, "ts": 1, "s": "t"},
        ]
        assert validation_errors(good) == []
        bad = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5, "s": "t"},
            {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 1, "s": "t"},
        ]
        assert any("goes backwards" in e for e in validation_errors(bad))

    def test_validate_raises_with_all_violations(self):
        with pytest.raises(TraceValidationError, match="violation"):
            validate_chrome_trace(
                [{"ph": "X", "name": "", "pid": "x", "tid": 1, "ts": -1,
                  "dur": 1}]
            )


class TestValidatorHardening:
    """The explicit-message checks: dict-valued counter series and
    duplicate track-naming metadata are named, not failed generically."""

    def test_dict_valued_counter_series_named(self):
        errors = validation_errors([
            {"ph": "C", "name": "occupancy", "pid": 1, "tid": 1, "ts": 0,
             "args": {"mu": {"busy": 1, "idle": 2}}},
        ])
        (error,) = errors
        assert "occupancy.mu" in error
        assert "dict value" in error
        assert "flatten" in error

    def test_dict_valued_series_distinct_from_plain_non_numeric(self):
        errors = validation_errors([
            {"ph": "C", "name": "c", "pid": 1, "tid": 1, "ts": 0,
             "args": {"good": 1, "bad": "high", "worse": {"x": 1}}},
        ])
        assert len(errors) == 2
        assert any("c.bad is str" in e for e in errors)
        assert any("c.worse has a dict value" in e for e in errors)

    def test_duplicate_thread_name_metadata(self):
        errors = validation_errors([
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2,
             "args": {"name": "queue"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2,
             "args": {"name": "renamed"}},
        ])
        (error,) = errors
        assert "duplicate thread_name" in error
        assert "pid=1 tid=2" in error
        assert "'queue'" in error and "'renamed'" in error

    def test_duplicate_process_name_metadata(self):
        errors = validation_errors([
            {"ph": "M", "name": "process_name", "pid": 3, "tid": 0,
             "args": {"name": "host"}},
            {"ph": "M", "name": "process_name", "pid": 3, "tid": 0,
             "args": {"name": "other"}},
        ])
        (error,) = errors
        assert "duplicate process_name" in error
        assert "pid=3" in error

    def test_same_name_on_different_tracks_is_fine(self):
        errors = validation_errors([
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "controller"}},
            {"ph": "M", "name": "thread_name", "pid": 2, "tid": 1,
             "args": {"name": "controller"}},
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "replica 00"}},
            {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
             "args": {"name": "replica 01"}},
        ])
        assert errors == []

    def test_exported_captures_have_unique_metadata(self):
        document = export_chrome_json(_small_capture())
        assert validation_errors(document) == []


class TestNonFiniteRejection:
    """NaN/inf is poison everywhere a number is expected."""

    def test_nan_ts_rejected(self):
        errors = validation_errors([
            {"ph": "i", "name": "x", "pid": 1, "tid": 1,
             "ts": float("nan"), "s": "t"},
        ])
        assert any("non-finite ts" in e for e in errors)

    def test_inf_dur_rejected(self):
        errors = validation_errors([
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0,
             "dur": float("inf")},
        ])
        assert any("non-finite dur" in e for e in errors)

    def test_nan_counter_value_rejected(self):
        errors = validation_errors([
            {"ph": "C", "name": "c", "pid": 1, "tid": 1, "ts": 0,
             "args": {"depth": float("nan")}},
        ])
        (error,) = errors
        assert "c.depth" in error
        assert "non-finite" in error


class TestCounterMonotonicity:
    """Cumulative counter series (by naming convention) must never
    decrease on a track; gauge-like series are exempt."""

    @staticmethod
    def _series(name, values, tid=1):
        return [
            {"ph": "C", "name": name, "pid": 1, "tid": tid, "ts": float(i),
             "args": {name: v}}
            for i, v in enumerate(values)
        ]

    def test_decreasing_counter_series_flagged(self):
        errors = validation_errors(
            self._series("hops_total", [1, 5, 3])
        )
        (error,) = errors
        assert "hops_total" in error
        assert "decreased from 5 to 3" in error

    def test_nondecreasing_counter_series_accepted(self):
        assert validation_errors(
            self._series("hops_total", [1, 1, 5, 9])
        ) == []

    def test_gauge_like_series_exempt(self):
        # queue_depth/busy/mu_busy go up and down by design — the
        # naming convention keeps them out of the monotone check.
        for name in ("queue_depth", "busy", "mu_busy"):
            assert validation_errors(
                self._series(name, [0, 4, 1, 3])
            ) == []

    def test_tracks_checked_independently(self):
        events = (
            self._series("msgs.count", [1, 9], tid=1)
            + self._series("msgs.count", [2, 4], tid=2)
        )
        assert validation_errors(sorted(events, key=lambda e: e["ts"])) == []


class TestEmbeddedMetricsValidation:
    @staticmethod
    def _doc(metrics):
        return {"traceEvents": [], "metrics": metrics}

    def test_valid_registry_dump_accepted(self):
        metrics = MetricsRegistry()
        metrics.counter("host.queries").inc(2)
        metrics.gauge("host.queue_depth").set(1.0, 3)
        metrics.histogram("lat", bounds=(10.0,)).observe(4.0)
        assert validation_errors(self._doc(metrics.as_dict())) == []

    def test_nan_gauge_sample_rejected(self):
        metrics = {
            "gauges": {"g": {"samples": [[1.0, float("nan")]],
                             "last": 0.0, "peak": 0.0}},
        }
        errors = validation_errors(self._doc(metrics))
        assert any("gauge g.samples[0]" in e for e in errors)

    def test_inf_counter_rejected(self):
        errors = validation_errors(
            self._doc({"counters": {"c": float("inf")}})
        )
        assert any("counter c must be finite" in e for e in errors)

    def test_negative_counter_rejected(self):
        errors = validation_errors(self._doc({"counters": {"c": -1}}))
        assert any("counter c is negative" in e for e in errors)

    def test_unordered_gauge_samples_rejected(self):
        metrics = {
            "gauges": {"g": {"samples": [[5.0, 1.0], [1.0, 2.0]],
                             "last": 2.0, "peak": 2.0}},
        }
        errors = validation_errors(self._doc(metrics))
        assert any("goes backwards" in e for e in errors)

    def test_histogram_total_mismatch_rejected(self):
        metrics = {
            "histograms": {"h": {"bounds": [1.0], "counts": [1, 0],
                                 "total": 5, "sum": 0.5}},
        }
        errors = validation_errors(self._doc(metrics))
        assert any("!= sum of counts" in e for e in errors)

    def test_malformed_payload_named_not_crashed(self):
        errors = validation_errors(self._doc("not a dict"))
        assert any("metrics: must be an object" in e for e in errors)
