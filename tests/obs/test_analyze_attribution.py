"""Tests for latency attribution and measured parallelism
(`repro.obs.analyze.attribution`).

Fixtures are hand-built traces with attributions known by
construction; the hypothesis property pins the partition invariant
(buckets sum to each query's end-to-end latency) over arbitrary
queued/attempt interval layouts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.analyze import (
    aggregate_buckets,
    attribute_queries,
    from_tracer,
    machine_processes,
    machine_profile,
    measured_parallelism,
    overlap_profile,
    track_utilization,
)
from repro.obs.tracer import Tracer


def _query_capture():
    """One query with a known layout::

        0        10             30        50          70   80
        |queued--|              |                     |    |
        arrival  attempt1(10..30, damaged)            |    |
                  retry attempt2(30..70)              |    |
                                hedge(50..80) ... wins at 80

    queued 0..10 = 10; service (first primary alone) 10..30 = 20;
    retry (second primary alone) 30..50 = 20; hedge (two racing
    50..70, then hedge alone 70..80) = 30.  Latency 80.
    """
    tracer = Tracer()
    q = tracer.track("queries", "query 00007")
    root = tracer.begin(q, "query 7", 0.0)
    tracer.span(q, "queued", 0.0, 10.0)
    r0 = tracer.track("host", "replica 00")
    r1 = tracer.track("host", "replica 01")
    tracer.span(r0, "attempt q7", 10.0, 20.0)   # 10..30 primary 1
    tracer.span(r0, "attempt q7", 30.0, 40.0)   # 30..70 primary 2 (retry)
    tracer.span(r1, "hedge q7", 50.0, 30.0)     # 50..80 hedge, wins
    # Close the root at the hedge's completion.
    tracer.end(root, 80.0, ("status", "attempts", "hedges"), "served", 2, 1)
    return tracer


class TestQueryAttribution:
    def test_known_buckets(self):
        model = from_tracer(_query_capture())
        (record,) = attribute_queries(model)
        assert record.query_id == 7
        assert record.status == "served"
        assert record.latency_us == pytest.approx(80.0)
        assert record.buckets["queued"] == pytest.approx(10.0)
        assert record.buckets["service"] == pytest.approx(20.0)
        assert record.buckets["retry"] == pytest.approx(20.0)
        assert record.buckets["hedge"] == pytest.approx(30.0)
        assert record.buckets["other"] == pytest.approx(0.0)
        assert record.bucket_sum_us() == pytest.approx(record.latency_us)

    def test_critical_path_covers_latency(self):
        model = from_tracer(_query_capture())
        (record,) = attribute_queries(model)
        assert sum(record.critical_path.values()) == \
            pytest.approx(record.latency_us)
        # The winning hedge is the last on-path activity.
        assert record.critical_path["hedge"] == pytest.approx(30.0)

    def test_aggregate_buckets(self):
        model = from_tracer(_query_capture())
        totals = aggregate_buckets(attribute_queries(model))
        assert sum(totals.values()) == pytest.approx(80.0)

    def test_gap_between_attempts_is_other(self):
        tracer = Tracer()
        q = tracer.track("queries", "query 00002")
        tracer.span(q, "query 2", 0.0, 50.0)
        r = tracer.track("host", "replica 00")
        tracer.span(r, "attempt q2", 0.0, 20.0)
        # 20..50 covered by nothing: dispatch/finalize gap.
        (record,) = attribute_queries(from_tracer(tracer))
        assert record.buckets["service"] == pytest.approx(20.0)
        assert record.buckets["other"] == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Property: buckets partition the latency for arbitrary layouts.
# ----------------------------------------------------------------------
intervals = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.floats(0.5, 60, allow_nan=False),
        st.booleans(),
    ),
    min_size=0, max_size=5,
)


class TestAttributionProperty:
    @given(
        queued=st.floats(0, 40, allow_nan=False),
        latency=st.floats(1, 200, allow_nan=False),
        layout=intervals,
    )
    @settings(max_examples=150, deadline=None)
    def test_buckets_sum_to_latency(self, queued, latency, layout):
        tracer = Tracer()
        q = tracer.track("queries", "query 00001")
        tracer.span(q, "query 1", 0.0, latency)
        if queued > 0:
            tracer.span(q, "queued", 0.0, min(queued, latency))
        r = tracer.track("host", "replica 00")
        for start, length, hedged in layout:
            name = "hedge q1" if hedged else "attempt q1"
            tracer.span(r, name, start, length)
        # attribute_queries asserts the invariant internally; reaching
        # the return proves it held.
        (record,) = attribute_queries(from_tracer(tracer))
        assert record.bucket_sum_us() == pytest.approx(
            record.latency_us, rel=1e-9, abs=1e-6
        )


# ----------------------------------------------------------------------
# Overlap / utilization / measured parallelism
# ----------------------------------------------------------------------
class TestOverlap:
    def test_overlap_profile_depths(self):
        profile = overlap_profile([(0, 10), (5, 15), (20, 25)])
        assert profile == {1: pytest.approx(15.0), 2: pytest.approx(5.0)}

    def test_track_utilization(self):
        tracer = Tracer()
        t = tracer.track("p", "lane")
        tracer.span(t, "a", 0.0, 10.0)
        tracer.span(t, "b", 20.0, 20.0)
        model = from_tracer(tracer)
        (row,) = track_utilization(model)
        assert row.busy_us == pytest.approx(30.0)
        assert row.extent_us == pytest.approx(40.0)
        assert row.busy_fraction == pytest.approx(0.75)
        assert row.peak_overlap == 1


def _machine_capture():
    """Two pipeline lanes with overlapping PROPAGATEs (β = 2)."""
    tracer = Tracer()
    lane0 = tracer.track("machine", "pipe 0")
    lane1 = tracer.track("machine", "pipe 1")
    h0 = tracer.begin(lane0, "PROPAGATE #1", 0.0)
    tracer.span(lane0, "broadcast", 0.0, 4.0)
    tracer.span(lane0, "wave", 4.0, 10.0)
    tracer.end(h0, 20.0, ("opcode", "alpha"), "PROPAGATE", 12)
    h1 = tracer.begin(lane1, "PROPAGATE #2", 5.0)
    tracer.span(lane1, "wave", 5.0, 10.0)
    tracer.end(h1, 25.0, ("opcode", "alpha"), "PROPAGATE", 30)
    icn = tracer.track("machine", "icn")
    tracer.instant(icn, "msg-send", 3.0, ("latency_us",), 1.5)
    tracer.instant(icn, "msg-send", 7.0, ("latency_us",), 2.5)
    faults = tracer.track("machine", "faults")
    tracer.instant(faults, "scp-timeout", 9.0, ("penalty_us",), 100.0)
    tracer.instant(faults, "checkpoint-replay", 12.0)
    return tracer


class TestMachineProfile:
    def test_machine_process_detection(self):
        model = from_tracer(_machine_capture())
        assert machine_processes(model) == ["machine"]

    def test_phase_icn_and_fault_attribution(self):
        model = from_tracer(_machine_capture())
        profile = machine_profile(model, "machine")
        assert profile.instructions == 2
        assert profile.instruction_us == pytest.approx(40.0)
        assert profile.phase_us["broadcast"] == pytest.approx(4.0)
        assert profile.phase_us["wave"] == pytest.approx(20.0)  # 4..14 + 5..15
        assert profile.icn_transit_us == pytest.approx(4.0)
        assert profile.fault_penalty_us == pytest.approx(100.0)
        assert profile.fault_events == {
            "scp-timeout": 1, "checkpoint-replay": 1,
        }
        # Per-instruction critical paths cover both instructions.
        assert sum(profile.critical_path.values()) == pytest.approx(40.0)

    def test_measured_parallelism(self):
        model = from_tracer(_machine_capture())
        result = measured_parallelism(model, "machine")
        assert (result.alpha_min, result.alpha_max) == (12, 30)
        assert result.alpha_mean == pytest.approx(21.0)
        assert result.propagates == 2
        assert result.beta_max == 2       # lanes overlap 5..20
        # Time-weighted: depth 2 for 15 of 25 busy us.
        assert result.beta_mean == pytest.approx((10 * 1 + 15 * 2) / 25)


class TestAlphaBetaAgreement:
    """Measured α equals the engine-reported α on the same run; the
    overlap-depth β never exceeds the program's static β profile."""

    def test_agreement_on_live_run(self):
        from repro.analysis.parallelism import parallelism_stats
        from repro.isa import assemble
        from repro.machine import SnapMachine, snap1_16cluster
        from repro.network.generator import generate_hierarchy_kb
        from repro.obs.metrics import MetricsRegistry

        # Two independent PROPAGATE chains: statically overlappable.
        program = assemble(
            """
            SEARCH-NODE thing b0
            SEARCH-NODE c1 b2
            PROPAGATE b0 b1 chain(inverse:is-a)
            PROPAGATE b2 b3 chain(inverse:is-a)
            COLLECT-NODE b1
            COLLECT-NODE b3
            """
        )
        network = generate_hierarchy_kb(240, branching=3)
        machine = SnapMachine(network, snap1_16cluster())
        tracer, metrics = Tracer(), MetricsRegistry()
        report = machine.run(program, tracer=tracer, metrics=metrics)
        static = parallelism_stats([report], [program])
        model = from_tracer(tracer, metrics)
        (process,) = machine_processes(model)
        measured = measured_parallelism(model, process)
        # α: exact agreement, span args vs report traces.
        assert measured.alpha_min == static.alpha_min
        assert measured.alpha_max == static.alpha_max
        assert measured.alpha_mean == pytest.approx(static.alpha_mean)
        assert measured.propagates == static.propagates
        # β: realized overlap is bounded by the static profile.
        assert 1 <= measured.beta_max <= static.beta_max
