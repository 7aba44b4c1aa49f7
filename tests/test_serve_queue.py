"""Bounded admission queue, request futures, and the metrics registry."""

import threading

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.serve.metrics import MetricsRegistry, percentile
from repro.serve.queue import (
    BoundedRequestQueue,
    Overloaded,
    RequestCancelled,
    RequestFuture,
    ServerClosed,
)


def _frame(rng):
    return FeatureMap(rng.normal(size=(1, 2, 2)).astype(np.float32))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestBoundedRequestQueue:
    def test_admits_up_to_limit_then_sheds(self, rng):
        queue = BoundedRequestQueue(limit=3)
        for _ in range(3):
            queue.submit(_frame(rng))
        with pytest.raises(Overloaded) as excinfo:
            queue.submit(_frame(rng))
        assert excinfo.value.limit == 3
        assert excinfo.value.depth == 3
        assert queue.accepted == 3
        assert queue.shed == 1

    def test_pop_after_shed_readmits(self, rng):
        queue = BoundedRequestQueue(limit=1)
        first = queue.submit(_frame(rng))
        with pytest.raises(Overloaded):
            queue.submit(_frame(rng))
        assert queue.pop() is first
        queue.submit(_frame(rng))  # depth is back under the limit
        assert queue.depth == 1

    def test_fifo_order_and_ids(self, rng):
        queue = BoundedRequestQueue(limit=8)
        submitted = [queue.submit(_frame(rng)) for _ in range(5)]
        popped = [queue.pop(timeout=0) for _ in range(5)]
        assert popped == submitted
        assert [r.id for r in popped] == [0, 1, 2, 3, 4]

    def test_deadline_stamped_from_injected_clock(self, rng):
        clock = FakeClock(100.0)
        queue = BoundedRequestQueue(limit=4, clock=clock)
        request = queue.submit(_frame(rng), timeout_s=2.5)
        assert request.submitted_at == 100.0
        assert request.deadline_at == 102.5
        assert not request.expired(102.49)
        assert request.expired(102.5)
        untimed = queue.submit(_frame(rng))
        assert untimed.deadline_at is None
        assert not untimed.expired(1e12)

    def test_pop_timeout_returns_none(self):
        queue = BoundedRequestQueue(limit=2)
        assert queue.pop(timeout=0.01) is None

    def test_pop_unblocks_on_submit(self, rng):
        queue = BoundedRequestQueue(limit=2)
        box = {}

        def consumer():
            box["request"] = queue.pop(timeout=5.0)

        thread = threading.Thread(target=consumer)
        thread.start()
        request = queue.submit(_frame(rng))
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["request"] is request

    def test_wake_ends_a_blocked_pop_without_a_request(self):
        queue = BoundedRequestQueue(limit=2)
        seen = queue.wakeups
        box = {}

        def consumer():
            box["request"] = queue.pop(timeout=30.0, wakeups=seen)

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.wake()
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["request"] is None
        assert queue.wakeups == seen + 1

    def test_pop_does_not_sleep_through_a_wake_it_missed(self, rng):
        # wake() landed after the consumer read the generation and before
        # it popped: the stale pop returns at once instead of waiting.
        queue = BoundedRequestQueue(limit=2)
        seen = queue.wakeups
        queue.wake()
        assert queue.pop(timeout=30.0, wakeups=seen) is None
        # A current generation waits out its timeout as before ...
        assert queue.pop(timeout=0.01, wakeups=queue.wakeups) is None
        # ... and a queued request is returned whatever the generation.
        request = queue.submit(_frame(rng))
        assert queue.pop(timeout=30.0, wakeups=seen) is request

    def test_close_refuses_and_drains(self, rng):
        queue = BoundedRequestQueue(limit=4)
        kept = [queue.submit(_frame(rng)) for _ in range(2)]
        queue.close()
        with pytest.raises(ServerClosed):
            queue.submit(_frame(rng))
        assert queue.drain() == kept
        assert queue.pop(timeout=0) is None  # closed + empty: no blocking

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BoundedRequestQueue(limit=0)


class TestRequestFuture:
    def test_result_roundtrip(self):
        future = RequestFuture()
        assert not future.done()
        future.set_result("payload")
        assert future.done()
        assert future.result(timeout=0) == "payload"
        assert future.exception(timeout=0) is None

    def test_exception_raises_on_result(self):
        future = RequestFuture()
        future.set_exception(ValueError("bad frame"))
        with pytest.raises(ValueError, match="bad frame"):
            future.result(timeout=0)

    def test_result_timeout(self):
        with pytest.raises(TimeoutError):
            RequestFuture().result(timeout=0.01)

    def test_cancel_before_claim_wins(self):
        future = RequestFuture()
        assert future.cancel()
        assert future.cancelled()
        assert not future.claim()  # dispatcher must drop it
        with pytest.raises(RequestCancelled):
            future.result(timeout=0)

    def test_cancel_after_claim_loses(self):
        future = RequestFuture()
        assert future.claim()
        assert not future.cancel()
        future.set_result(42)
        assert future.result(timeout=0) == 42

    def test_first_resolution_sticks(self):
        future = RequestFuture()
        future.set_result(1)
        future.set_exception(RuntimeError("late"))
        assert future.result(timeout=0) == 1

    def test_done_callbacks_fire_once_before_or_after_resolution(self):
        seen = []
        future = RequestFuture()
        future.add_done_callback(seen.append)
        assert seen == []
        future.set_result(1)
        future.set_exception(RuntimeError("late"))  # no second firing
        future.add_done_callback(seen.append)  # already done: runs at once
        assert seen == [future, future]
        cancelled = RequestFuture()
        cancelled.add_done_callback(seen.append)
        assert cancelled.cancel()
        assert seen[-1] is cancelled and isinstance(
            cancelled.exception(timeout=0), RequestCancelled
        )

    def test_done_callbacks_race_resolution_without_loss(self):
        # Registrations racing the resolving thread: every callback runs
        # exactly once, whichever side wins each race.
        import sys

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                future = RequestFuture()
                calls = []
                lock = threading.Lock()

                def record(done, calls=calls, lock=lock):
                    with lock:
                        calls.append(done)

                def add_many(future=future, record=record):
                    for _ in range(20):
                        future.add_done_callback(record)

                adders = [threading.Thread(target=add_many) for _ in range(4)]
                for thread in adders:
                    thread.start()
                future.set_result("x")
                for thread in adders:
                    thread.join(10.0)
                    assert not thread.is_alive()
                assert len(calls) == 80
        finally:
            sys.setswitchinterval(switch)


class TestPercentile:
    def test_nearest_rank_values(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.95) == 95
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.00) == 100
        assert percentile(samples, 0.0) == 1

    def test_single_sample(self):
        assert percentile([3.5], 0.99) == 3.5

    def test_validation(self):
        with pytest.raises(ValueError, match="no samples"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0], 1.5)


class TestMetricsRegistry:
    def test_snapshot_shape_and_counts(self):
        metrics = MetricsRegistry()
        metrics.mark_started(0.0)
        metrics.observe_admission(depth=1)
        metrics.observe_admission(depth=2)
        metrics.observe_shed()
        metrics.observe_batch(2, "size")
        metrics.observe_completion(0.010, now=1.0)
        metrics.observe_completion(0.020, now=2.0)
        snapshot = metrics.snapshot(now=2.0)
        assert snapshot["accepted"] == 2
        assert snapshot["shed"] == 1
        assert snapshot["completed"] == 2
        assert snapshot["queue_depth_max"] == 2
        assert snapshot["batch_histogram"] == {"2": 1}
        assert snapshot["flush_causes"] == {"size": 1}
        assert snapshot["elapsed_s"] == pytest.approx(2.0)
        assert snapshot["throughput_rps"] == pytest.approx(1.0)
        assert snapshot["latency"]["p50_ms"] == pytest.approx(10.0)
        assert snapshot["latency"]["max_ms"] == pytest.approx(20.0)

    def test_snapshot_is_json_safe(self):
        import json

        metrics = MetricsRegistry()
        metrics.observe_batch(4, "deadline")
        json.dumps(metrics.snapshot())  # must not raise

    def test_no_latency_section_without_completions(self):
        assert MetricsRegistry().snapshot()["latency"] is None

    def test_latency_reservoir_stays_bounded(self):
        from repro.serve.metrics import MAX_LATENCY_SAMPLES

        metrics = MetricsRegistry()
        for i in range(2 * MAX_LATENCY_SAMPLES + 10):
            metrics.observe_completion(float(i), now=float(i))
        assert len(metrics._latencies) <= MAX_LATENCY_SAMPLES
        assert metrics.completed == 2 * MAX_LATENCY_SAMPLES + 10
