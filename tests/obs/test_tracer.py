"""Unit tests for the tracer event model (spans/instants/counters)."""

import gc

import pytest

from repro.obs.tracer import (
    NULL_TRACER, NullTracer, Tracer, get_tracer, set_tracer,
)


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_all_methods_are_noops(self):
        tracer = NullTracer()
        track = tracer.track("p", "t")
        assert track == 0
        tracer.span(track, "s", 0.0, 1.0)
        handle = tracer.begin(track, "s", 0.0)
        assert handle is None
        tracer.end(handle, 1.0)
        tracer.instant(track, "i", 0.5)
        tracer.counter(track, "c", 0.5, 3)
        assert tracer.to_chrome_json() == {"traceEvents": []}


class TestTracer:
    def test_track_interning(self):
        tracer = Tracer()
        a = tracer.track("host", "queue")
        b = tracer.track("host", "replica 00")
        assert a != b
        assert tracer.track("host", "queue") == a
        assert list(tracer.tracks) == [
            ("host", "queue"), ("host", "replica 00")]

    def test_complete_span(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.span(track, "work", 10.0, 5.0, ("ok",), True)
        assert tracer.spans == [(track, "work", 10.0, 15.0, ("ok",), (), True)]

    def test_begin_end_lifecycle(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        handle = tracer.begin(track, "work", 1.0, ("template",), "t1")
        assert tracer.spans[handle][3] is None
        tracer.end(handle, 4.0, ("status",), "served")
        assert tracer.spans[handle][3] == 4.0
        assert tracer.spans[handle][4:] == (
            ("template",), ("status",), "t1", "served")

    def test_end_is_idempotent(self):
        tracer = Tracer()
        handle = tracer.begin(tracer.track("p", "t"), "work", 1.0)
        tracer.end(handle, 4.0)
        tracer.end(handle, 9.0, ("late",), True)  # already closed: no-op
        assert tracer.spans[handle][3] == 4.0
        assert tracer.spans[handle][4:] == ((), ())

    def test_end_none_handle_is_noop(self):
        Tracer().end(None, 1.0)

    def test_close_open_spans(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.begin(track, "open", 5.0)
        late = tracer.begin(track, "later-than-close", 20.0)
        done = tracer.begin(track, "done", 1.0)
        tracer.end(done, 2.0)
        assert tracer.close_open_spans(10.0) == 2
        # Never closed before its own begin.
        assert tracer.spans[late][3] == 20.0
        assert all(span[3] is not None for span in tracer.spans)
        assert tracer.spans[late][5:] == (("open_at_eof",), True)
        assert tracer.spans[done][5] == ()

    def test_num_events(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.span(track, "s", 0.0, 1.0)
        tracer.instant(track, "i", 0.5)
        tracer.series(track, "c", 0.5, ("a", "b"), 1, 2)
        assert tracer.num_events == 3


class TestRecordsUntracked:
    def test_observed_host_stream_leaves_no_tracked_record(self):
        # Spans and instants are flat tuples of atoms and counters are
        # columns of atoms, so the cycle collector untracks every
        # record and full collections never walk the capture.
        from repro.experiments.chaos import build_scenario
        from repro.host import ServingHost
        from repro.obs import MetricsRegistry, TelemetrySink

        network, config, queries, _ = build_scenario(fast=True)
        tracer = Tracer()
        ServingHost(
            network, config, tracer=tracer, metrics=MetricsRegistry(),
            sink=TelemetrySink(),
        ).serve(queries[: len(queries) // 2])
        gc.collect()
        for kind in ("spans", "instants"):
            records = getattr(tracer, kind)
            assert records, kind
            tracked = [r for r in records if gc.is_tracked(r)]
            assert tracked == [], (kind, tracked[:3])
        assert list(tracer.counters)
        stored = [
            item for column in vars(tracer).values()
            if isinstance(column, list) for item in column
        ]
        assert [item for item in stored if gc.is_tracked(item)] == []


class TestGlobalTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_set_and_clear(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    @pytest.fixture(autouse=True)
    def _restore_global(self):
        yield
        set_tracer(None)
