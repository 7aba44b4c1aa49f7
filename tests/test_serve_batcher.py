"""Dynamic batcher flush semantics (size, deadline, idle) — no wall clock.

The batcher is a pure state machine over explicit ``now`` and ``idle``
values, so every trigger combination is pinned deterministically:
size-triggered flushes, deadline-triggered flushes, a single straggler
request, idle-triggered flushes behind a free worker, the fair-share rule
that decides ``idle`` (one share of a queued burst per free worker), and
the bit-identity of served batches against calling ``forward_batch``
directly.
"""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve.batcher import (
    FLUSH_DEADLINE,
    FLUSH_FORCED,
    FLUSH_IDLE,
    FLUSH_SIZE,
    DynamicBatcher,
    fair_share,
    to_feature_batch,
)
from repro.serve.queue import InferenceRequest


def _request(rng, request_id=0, shape=(1, 2, 2), submitted_at=0.0):
    frame = FeatureMap(rng.normal(size=shape).astype(np.float32))
    return InferenceRequest(request_id, frame, submitted_at)


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch(self, rng):
        batcher = DynamicBatcher(max_batch=3, max_delay_s=10.0)
        assert batcher.add(_request(rng, 0), now=0.0) is None
        assert batcher.add(_request(rng, 1), now=0.1) is None
        flush = batcher.add(_request(rng, 2), now=0.2)
        assert flush is not None
        assert flush.cause == FLUSH_SIZE
        assert [r.id for r in flush.requests] == [0, 1, 2]
        assert batcher.pending == 0
        assert batcher.next_deadline() is None

    def test_size_one_flushes_immediately(self, rng):
        batcher = DynamicBatcher(max_batch=1, max_delay_s=10.0)
        flush = batcher.add(_request(rng), now=5.0)
        assert flush is not None and flush.cause == FLUSH_SIZE
        assert len(flush) == 1

    def test_consecutive_batches_keep_order(self, rng):
        batcher = DynamicBatcher(max_batch=2, max_delay_s=10.0)
        ids = []
        for i in range(6):
            flush = batcher.add(_request(rng, i), now=float(i))
            if flush:
                ids.extend(r.id for r in flush.requests)
        assert ids == [0, 1, 2, 3, 4, 5]


class TestDeadlineTrigger:
    def test_deadline_measured_from_oldest_request(self, rng):
        batcher = DynamicBatcher(max_batch=8, max_delay_s=1.0)
        batcher.add(_request(rng, 0), now=10.0)
        batcher.add(_request(rng, 1), now=10.9)
        assert batcher.next_deadline() == pytest.approx(11.0)
        assert batcher.poll(now=10.99) is None
        flush = batcher.poll(now=11.0)
        assert flush is not None and flush.cause == FLUSH_DEADLINE
        assert [r.id for r in flush.requests] == [0, 1]

    def test_single_straggler_flushes_alone(self, rng):
        # One idle request never waits longer than the deadline even though
        # the batch is far from full.
        batcher = DynamicBatcher(max_batch=16, max_delay_s=0.5)
        batcher.add(_request(rng, 7), now=0.0)
        assert batcher.poll(now=0.49) is None
        flush = batcher.poll(now=0.5)
        assert flush is not None
        assert flush.cause == FLUSH_DEADLINE
        assert [r.id for r in flush.requests] == [7]

    def test_add_honors_missed_deadline(self, rng):
        # A request landing after the pending batch's deadline passed must
        # flush on that very call, not wait another full period.
        batcher = DynamicBatcher(max_batch=8, max_delay_s=1.0)
        batcher.add(_request(rng, 0), now=0.0)
        flush = batcher.add(_request(rng, 1), now=2.5)
        assert flush is not None and flush.cause == FLUSH_DEADLINE
        assert len(flush) == 2

    def test_deadline_resets_after_flush(self, rng):
        batcher = DynamicBatcher(max_batch=2, max_delay_s=1.0)
        batcher.add(_request(rng, 0), now=0.0)
        batcher.add(_request(rng, 1), now=0.1)  # size flush
        assert batcher.next_deadline() is None
        batcher.add(_request(rng, 2), now=5.0)
        assert batcher.next_deadline() == pytest.approx(6.0)

    def test_empty_poll_is_noop(self):
        batcher = DynamicBatcher(max_batch=4, max_delay_s=0.1)
        assert batcher.poll(now=1e9) is None


class TestIdleTrigger:
    def test_add_flushes_at_once_behind_a_free_worker(self, rng):
        batcher = DynamicBatcher(max_batch=8, max_delay_s=10.0)
        flush = batcher.add(_request(rng, 3), now=1.0, idle=True)
        assert flush is not None and flush.cause == FLUSH_IDLE
        assert [r.id for r in flush.requests] == [3]
        assert batcher.pending == 0
        assert batcher.next_deadline() is None

    def test_poll_flushes_what_accumulated_while_busy(self, rng):
        # Workers busy: requests accumulate.  A worker frees up before the
        # deadline: the partial batch goes out with it, in arrival order.
        batcher = DynamicBatcher(max_batch=8, max_delay_s=10.0)
        for i in range(3):
            assert batcher.add(_request(rng, i), now=0.1 * i) is None
        assert batcher.poll(now=0.5) is None
        flush = batcher.poll(now=0.5, idle=True)
        assert flush is not None and flush.cause == FLUSH_IDLE
        assert [r.id for r in flush.requests] == [0, 1, 2]

    def test_idle_poll_on_empty_batcher_is_noop(self):
        batcher = DynamicBatcher(max_batch=4, max_delay_s=0.1)
        assert batcher.poll(now=0.0, idle=True) is None

    def test_size_and_deadline_name_the_flush_before_idle(self, rng):
        # A full or overdue batch is reported as such even when a worker
        # is also free: the idle cause counts only flushes that the other
        # two triggers would not have made.
        batcher = DynamicBatcher(max_batch=2, max_delay_s=1.0)
        batcher.add(_request(rng, 0), now=0.0)
        assert batcher.add(_request(rng, 1), now=0.0, idle=True).cause == FLUSH_SIZE
        batcher.add(_request(rng, 2), now=5.0)
        assert batcher.poll(now=6.0, idle=True).cause == FLUSH_DEADLINE
        assert batcher.add(_request(rng, 3), now=7.0, idle=True).cause == FLUSH_IDLE

    def test_idle_false_is_the_two_trigger_machine(self, rng):
        # Explicit idle=False on every call: the same flushes, event for
        # event, as the calls that never mention idleness.
        schedule = [("add", 0.0), ("add", 0.3), ("poll", 0.9), ("poll", 1.0),
                    ("add", 1.2), ("add", 1.3), ("add", 1.4), ("add", 3.0)]
        plain = DynamicBatcher(max_batch=3, max_delay_s=1.0)
        explicit = DynamicBatcher(max_batch=3, max_delay_s=1.0)
        seen = []
        for i, (kind, now) in enumerate(schedule):
            if kind == "add":
                a = plain.add(_request(rng, i), now)
                b = explicit.add(_request(rng, i), now, idle=False)
            else:
                a, b = plain.poll(now), explicit.poll(now, idle=False)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.cause == b.cause
                assert [r.id for r in a.requests] == [r.id for r in b.requests]
                seen.append(a.cause)
            assert plain.next_deadline() == explicit.next_deadline()
        assert seen == [FLUSH_DEADLINE, FLUSH_SIZE]
        assert plain.pending == explicit.pending == 1


class TestFairShare:
    """``fair_share(pending, depth, free)``: the rule behind ``idle``."""

    def test_no_free_worker_never_flushes(self):
        for pending in range(9):
            for depth in range(9):
                assert not fair_share(pending, depth, free=0)

    def test_one_free_worker_flushes_once_nothing_is_queued(self):
        for pending in range(9):
            for depth in range(9):
                assert fair_share(pending, depth, free=1) == (depth == 0)

    @pytest.mark.parametrize("free, share", [(2, 4), (3, 3), (4, 2), (8, 1)])
    def test_eight_in_sight_flush_at_one_share_per_free_worker(self, free, share):
        # Draining a queued burst moves requests from depth to pending;
        # the first pending count that may flush is the fair share.
        flushes = [fair_share(pending, 8 - pending, free) for pending in range(1, 9)]
        assert flushes.index(True) + 1 == share
        assert all(flushes[share - 1:])

    @pytest.mark.parametrize(
        "free, sizes",
        [(1, [8]), (2, [4, 4]), (3, [3, 3, 2]), (4, [2, 2, 2, 2])],
    )
    def test_a_queued_burst_goes_out_one_share_per_free_worker(
        self, rng, free, sizes
    ):
        # The server's loop over a burst of 8 already queued: each flush
        # hands one free worker a batch.
        batcher = DynamicBatcher(max_batch=8, max_delay_s=10.0)
        depth, seen = 8, []
        while depth:
            depth -= 1
            idle = fair_share(batcher.pending + 1, depth, free)
            flush = batcher.add(_request(rng, 8 - depth), now=0.0, idle=idle)
            if flush is not None:
                seen.append(len(flush))
                free -= 1
        assert seen == sizes


class TestForcedFlush:
    def test_forced_flush_drains_pending(self, rng):
        batcher = DynamicBatcher(max_batch=4, max_delay_s=10.0)
        batcher.add(_request(rng, 0), now=0.0)
        batcher.add(_request(rng, 1), now=0.0)
        flush = batcher.flush()
        assert flush is not None and flush.cause == FLUSH_FORCED
        assert len(flush) == 2
        assert batcher.flush() is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            DynamicBatcher(max_batch=0, max_delay_s=0.1)
        with pytest.raises(ValueError, match="max_delay_s"):
            DynamicBatcher(max_batch=1, max_delay_s=-1.0)


class TestBatchedExecutionIdentity:
    def test_flushed_batch_matches_direct_forward_batch(self, rng):
        """A coalesced batch produces bit-identical per-request results to
        handing the same frames to ``forward_batch`` by hand."""
        network = Network(zoo.mlp4_config())
        network.initialize(rng)
        frames = [
            FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
            for _ in range(4)
        ]
        batcher = DynamicBatcher(max_batch=4, max_delay_s=10.0)
        flush = None
        for i, frame in enumerate(frames):
            flush = batcher.add(
                InferenceRequest(i, frame, submitted_at=float(i)), now=float(i)
            )
        assert flush is not None and flush.cause == FLUSH_SIZE
        served = network.forward_batch(to_feature_batch(flush.requests))
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        assert served.scale == direct.scale
        assert np.array_equal(served.data, direct.data)

    def test_to_feature_batch_preserves_order_and_scale(self, rng):
        requests = [
            InferenceRequest(
                i,
                FeatureMap(
                    rng.integers(0, 8, size=(2, 3, 3)).astype(np.int32), 0.25
                ),
                submitted_at=0.0,
            )
            for i in range(3)
        ]
        fmb = to_feature_batch(requests)
        assert fmb.scale == 0.25
        for request, frame in zip(requests, fmb.frames()):
            assert np.array_equal(frame.data, request.frame.data)
