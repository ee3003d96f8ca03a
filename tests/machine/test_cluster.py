"""Marker activation memory: the capacity-accounted cluster queue."""

import pytest

from repro.machine import BoundedQueue


class TestBoundedQueue:
    def test_fifo(self):
        queue = BoundedQueue(capacity=4)
        queue.push("a")
        queue.push("b")
        assert queue.pop() == "a"
        assert queue.pop() == "b"

    def test_soft_capacity_counts_overflow(self):
        queue = BoundedQueue(capacity=2)
        assert queue.push(1) is True
        assert queue.push(2) is True
        assert queue.push(3) is False   # over capacity, still queued
        assert queue.overflows == 1
        assert len(queue) == 3
        assert queue.pop() == 1

    def test_peak_tracking(self):
        queue = BoundedQueue(capacity=10)
        for i in range(5):
            queue.push(i)
        for _ in range(5):
            queue.pop()
        assert queue.peak == 5

    def test_pop_empty_rejected(self):
        with pytest.raises(IndexError):
            BoundedQueue(capacity=1).pop()
