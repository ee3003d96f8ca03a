"""Discrete-event kernel: ordering, servers, pools."""

import pytest

from repro.machine import (
    Server,
    ServerPool,
    SimulationError,
    Simulator,
    Timeout,
    utilization,
)
from repro.machine.des import COMPACT_THRESHOLD


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_ties_broken_by_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.schedule(2.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["x", "y", "z"]

    def test_events_may_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(1)
            sim.schedule(3.0, lambda: log.append(2))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1, 2]
        assert sim.now == 4.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("no"))
        sim.cancel(event)
        sim.run()
        assert log == []

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(10.0, lambda: log.append("b"))
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert log == ["a", "b"]

    def test_run_until_is_inclusive(self):
        """Events scheduled exactly at ``until`` fire."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("at"))
        sim.schedule(5.0 + 1e-9, lambda: log.append("after"))
        sim.run(until=5.0)
        assert log == ["at"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_on_empty_heap(self):
        """Back-to-back run(until=...) calls advance time even when no
        events exist in the window."""
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_schedule_zero_during_processing_is_fifo(self):
        """schedule(0, fn) inside a handler fires after already-queued
        events of the same timestamp, in submission order."""
        sim = Simulator()
        log = []

        def handler():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("chained-1"))
            sim.schedule(0.0, lambda: log.append("chained-2"))

        sim.schedule(2.0, handler)
        sim.schedule(2.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "chained-1", "chained-2"]
        assert sim.now == 2.0

    def test_schedule_zero_at_until_boundary_fires(self):
        """Zero-delay chains at the until boundary still complete."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: log.append("z")))
        sim.run(until=5.0)
        assert log == ["z"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestHeapCompaction:
    def test_cancelling_10k_timeouts_keeps_heap_bounded(self):
        """Regression: cancelled watchdogs used to stay in the heap
        until popped, so deadline-heavy serving runs grew the heap
        without bound."""
        sim = Simulator()
        for i in range(10_000):
            watchdog = Timeout(sim, 1_000.0 + i, lambda: None)
            watchdog.cancel()
            assert sim.heap_size <= COMPACT_THRESHOLD + 1
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_interleaved_cancel_bounds_heap_to_live_events(self):
        """With half the events cancelled, compaction keeps heap slots
        within ~2x the live-event count."""
        sim = Simulator()
        fired = []
        expected = []
        for i in range(10_000):
            handle = sim.schedule(500.0 + i, fired.append, i)
            if i % 2:
                sim.cancel(handle)
            else:
                expected.append(i)
            assert sim.heap_size <= 2 * sim.pending + COMPACT_THRESHOLD + 1
        sim.run()
        assert fired == expected

    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            sim.cancel(handle)
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        sim.cancel(handle)
        sim.cancel(handle)
        assert fired == ["x"]
        assert sim.pending == 0


class TestReserveCommit:
    def test_reserved_seq_fixes_tie_break_order(self):
        """A reserved event fires before a same-time event scheduled
        later, even when committed after it — the tie-break follows
        reservation order, not heap-entry order."""
        sim = Simulator()
        log = []
        reserved = sim.reserve(5.0, log.append, "reserved")
        sim.schedule(5.0, log.append, "scheduled")
        sim.commit(reserved)
        sim.run()
        assert log == ["reserved", "scheduled"]

    def test_reserved_event_is_pending_but_not_in_heap(self):
        sim = Simulator()
        event = sim.reserve(3.0, lambda: None)
        assert sim.pending == 1
        assert sim.heap_size == 0
        sim.commit(event)
        assert sim.heap_size == 1
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending == 0

    def test_reserve_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reserve(1.0, lambda: None)


class TestElapsedBusyTime:
    def test_server_prorates_in_service_job(self):
        sim = Simulator()
        server = Server(sim)
        server.submit((10.0, None, None, ()))
        sim.run(until=4.0)
        # The accumulator accrues at job start; the elapsed view never
        # counts service that has not happened yet.
        assert server.busy_time == 10.0
        assert server.busy_time_until(sim.now) == 4.0

    def test_pool_prorates_only_unfinished_jobs(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        pool.submit((2.0, None, None, ()))
        pool.submit((10.0, None, None, ()))
        sim.run(until=5.0)
        assert pool.busy_time_until(sim.now) == 2.0 + 5.0
        sim.run()
        assert pool.busy_time_until(sim.now) == pool.busy_time == 12.0


class TestServer:
    def test_fifo_serialization(self):
        sim = Simulator()
        server = Server(sim)
        done = []
        server.submit((3.0, None, lambda: done.append(sim.now), ()))
        server.submit((2.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [3.0, 5.0]

    def test_busy_time_accumulates(self):
        sim = Simulator()
        server = Server(sim)
        server.submit((3.0, None, None, ()))
        server.submit((2.0, None, None, ()))
        sim.run()
        assert server.busy_time == 5.0
        assert server.jobs_done == 2
        assert server.idle

    def test_on_start_called_at_service_start(self):
        sim = Simulator()
        server = Server(sim)
        starts = []
        server.submit((3.0, None, None, ()))
        server.submit((1.0, lambda: starts.append(sim.now), None, ()))
        sim.run()
        assert starts == [3.0]

    def test_max_queue(self):
        sim = Simulator()
        server = Server(sim)
        for _ in range(3):
            server.submit((1.0, None, None, ()))
        assert server.max_queue >= 2


class TestServerPool:
    def test_parallel_service(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        done = []
        for _ in range(2):
            pool.submit((4.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [4.0, 4.0]

    def test_capacity_respected(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        done = []
        for _ in range(4):
            pool.submit((1.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_submit_from_completion_waits_behind_queue(self):
        # The finishing server is free while its callback runs, but a
        # job submitted then must not overtake the jobs already waiting.
        sim = Simulator()
        pool = ServerPool(sim, servers=1)
        starts = []

        def job(name, on_done=None):
            return (1.0, lambda: starts.append(name), on_done, ())

        pool.submit(job("x", lambda: pool.submit(job("b"))))
        pool.submit(job("a"))
        sim.run()
        assert starts == ["x", "a", "b"]

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            ServerPool(Simulator(), servers=0)

    def test_idle_transitions(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=1)
        assert pool.idle
        pool.submit((1.0, None, None, ()))
        assert not pool.idle
        sim.run()
        assert pool.idle


class TestTimeout:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        watchdog = Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]
        assert watchdog.expired
        assert not watchdog.armed

    def test_cancel_disarms(self):
        sim = Simulator()
        fired = []
        watchdog = Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.schedule(1.0, watchdog.cancel)
        sim.run()
        assert fired == []
        assert not watchdog.expired
        assert not watchdog.armed


class TestPenaltyHook:
    def test_hook_extends_service_time(self):
        sim = Simulator()
        server = Server(sim)
        server.penalty_hook = lambda job: 2.0
        done = []
        server.submit((3.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [5.0]
        assert server.busy_time == 5.0

    def test_no_hook_is_identical(self):
        sim = Simulator()
        server = Server(sim)
        done = []
        server.submit((3.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [3.0]
        assert server.busy_time == 3.0

    def test_pool_hook(self):
        sim = Simulator()
        pool = ServerPool(sim, servers=2)
        pool.penalty_hook = lambda job: 1.0
        done = []
        for _ in range(2):
            pool.submit((1.0, None, lambda: done.append(sim.now), ()))
        sim.run()
        assert done == [2.0, 2.0]


def test_utilization_helper():
    assert utilization(5.0, servers=2, elapsed=5.0) == 0.5
    assert utilization(1.0, servers=1, elapsed=0.0) == 0.0


class TestStress:
    def test_large_randomized_job_graph_conserves_jobs(self):
        """A few thousand jobs across servers and pools all complete,
        regardless of arrival pattern."""
        import random

        rng = random.Random(99)
        sim = Simulator()
        pool = ServerPool(sim, servers=3)
        server = Server(sim)
        done = {"count": 0}

        def make_job(depth):
            def on_done():
                done["count"] += 1
                if depth > 0 and rng.random() < 0.5:
                    target = pool if rng.random() < 0.5 else server
                    target.submit((rng.uniform(0.1, 2.0), None,
                                   make_job(depth - 1)[2], ()))

            return (rng.uniform(0.1, 2.0), None, on_done, ())

        submitted = 400
        for _ in range(submitted):
            (pool if rng.random() < 0.5 else server).submit(make_job(3))
        sim.run()
        assert done["count"] >= submitted
        assert pool.idle and server.idle
        # Busy time conservation: jobs_done matches completions.
        assert pool.jobs_done + server.jobs_done == done["count"]
