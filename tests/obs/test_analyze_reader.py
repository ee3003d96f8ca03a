"""Tests for trace ingestion (`repro.obs.analyze.reader`)."""

import pytest

from repro.obs.analyze import TraceModel, from_tracer, read_document
from repro.obs.chrome import export_chrome_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import TraceValidationError


def _nested_capture():
    tracer = Tracer()
    track = tracer.track("host", "replica 00")
    tracer.span(track, "outer", 0.0, 100.0)      # 0..100
    tracer.span(track, "inner-a", 10.0, 30.0)    # 10..40
    tracer.span(track, "inner-b", 50.0, 40.0)    # 50..90
    tracer.span(track, "leaf", 20.0, 10.0)       # 20..30
    tracer.instant(track, "ping", 55.0, ("n",), 1)
    tracer.counter(track, "depth", 5.0, 1)
    tracer.counter(track, "depth", 60.0, 2)
    return tracer


class TestReader:
    def test_forest_nesting_by_containment(self):
        model = read_document(export_chrome_json(_nested_capture()))
        track = model.track("host", "replica 00")
        assert track is not None
        (outer,) = track.spans
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        uncovered = outer.duration_us - sum(
            c.duration_us for c in outer.children
        )
        assert uncovered == pytest.approx(30.0)

    def test_instants_and_counters(self):
        model = read_document(export_chrome_json(_nested_capture()))
        track = model.track("host", "replica 00")
        assert [(i.name, i.ts_us) for i in track.instants] == [("ping", 55.0)]
        assert track.counters["depth"] == [(5.0, 1), (60.0, 2)]

    def test_multi_series_counters_split(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.series(track, "occupancy", 1.0, ("busy", "idle"), 2, 3)
        model = read_document(export_chrome_json(tracer))
        counters = model.track("p", "t").counters
        assert counters == {
            "occupancy.busy": [(1.0, 2)],
            "occupancy.idle": [(1.0, 3)],
        }

    def test_model_accessors(self):
        tracer = _nested_capture()
        other = tracer.track("queries", "query 00001")
        tracer.span(other, "query 1", 0.0, 10.0)
        model = read_document(export_chrome_json(tracer))
        assert model.processes() == ["host", "queries"]
        assert [t.thread for t in model.tracks_of("host")] == ["replica 00"]
        assert model.end_us == pytest.approx(100.0)
        assert sum(1 for t in model.tracks for _ in t.all_spans()) == 5

    def test_metrics_and_capture_ride_along(self):
        metrics = MetricsRegistry()
        metrics.counter("host.queries").inc(3)
        document = export_chrome_json(_nested_capture(), metrics=metrics)
        document["capture"] = {"workload": "unit"}
        model = read_document(document)
        assert model.metrics["counters"]["host.queries"] == 3
        assert model.capture == {"workload": "unit"}

    def test_from_tracer_marks_open_spans(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.begin(track, "unfinished", 1.0)
        tracer.instant(track, "later", 9.0)
        model = from_tracer(tracer)
        (span,) = model.track("p", "t").spans
        assert span.open_at_eof
        assert span.end_us == pytest.approx(9.0)

    def test_invalid_document_raises_validation_error(self):
        bad = [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1,
                "dur": 2}]
        with pytest.raises(TraceValidationError):
            read_document(bad)

    def test_bare_array_and_unnamed_tracks(self):
        events = [
            {"ph": "X", "name": "a", "pid": 7, "tid": 3, "ts": 0,
             "dur": 5, "args": {}},
        ]
        model = read_document(events)
        assert isinstance(model, TraceModel)
        (track,) = model.tracks
        assert (track.process, track.thread) == ("pid 7", "tid 3")
