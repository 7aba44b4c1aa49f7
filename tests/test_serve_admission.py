"""Unit tests for the shard tier's front door (repro.serve.admission).

Everything here runs on explicit ``now`` values — the token buckets and
the admission controller never read a wall clock — so every refill,
rejection and eviction path is driven deterministically.
"""

import hashlib

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.serve.admission import (
    AdmissionController,
    QuotaExceeded,
    ResultCache,
    TokenBucket,
    frame_digest,
)
from repro.serve.queue import Overloaded


def _frame(value: float = 0.5, scale: float = 1.0) -> FeatureMap:
    return FeatureMap(
        np.full((2, 3, 3), value, dtype=np.float32), scale=scale
    )


class TestFrameDigest:
    def test_equal_frames_collide(self):
        assert frame_digest(_frame()) == frame_digest(_frame())

    def test_every_component_matters(self):
        base = frame_digest(_frame())
        assert frame_digest(_frame(value=0.6)) != base  # bytes
        assert frame_digest(_frame(scale=2.0)) != base  # scale
        other_shape = FeatureMap(
            np.full((3, 2, 3), 0.5, dtype=np.float32), scale=1.0
        )
        assert frame_digest(other_shape) != base  # shape
        other_dtype = FeatureMap(
            np.full((2, 3, 3), 0.5, dtype=np.float64), scale=1.0
        )
        assert frame_digest(other_dtype) != base  # dtype

    def test_non_contiguous_input_is_canonicalized(self):
        data = np.arange(36, dtype=np.float32).reshape(2, 3, 6)[:, :, ::2]
        assert not data.flags["C_CONTIGUOUS"]
        strided = FeatureMap(np.asarray(data), scale=1.0)
        compact = FeatureMap(np.ascontiguousarray(data), scale=1.0)
        assert frame_digest(strided) == frame_digest(compact)

    def test_in_place_hashing_keeps_the_tobytes_value(self):
        ramp = np.arange(2 * 4 * 6).reshape(2, 4, 6)
        frames = [
            FeatureMap(ramp.astype(np.float32), scale=1.0),
            FeatureMap(ramp.astype(np.float32)[:, ::2, ::3], scale=1.0),
            FeatureMap(ramp.astype(np.uint8), scale=0.5),
            FeatureMap(ramp.astype(np.uint8).transpose(2, 1, 0), scale=0.5),
        ]
        for frame in frames:
            hasher = hashlib.sha256()
            hasher.update(str(frame.data.dtype).encode())
            hasher.update(repr(frame.data.shape).encode())
            hasher.update(repr(float(frame.scale)).encode())
            hasher.update(frame.data.tobytes())
            assert frame_digest(frame) == hasher.hexdigest()
        assert frame_digest(frames[0]) == (
            "c739e2826241cbe73e3215788acfdecf9ff61c1bae8ebe5ae222da2bceb80bb8"
        )


class TestTokenBucket:
    def test_unmetered_always_admits(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_acquire(0.0) for _ in range(100))

    def test_burst_then_dry_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)  # burst exhausted
        assert not bucket.try_acquire(0.5)  # half a token is not a token
        assert bucket.try_acquire(1.5)  # 1.5 tokens refilled
        assert not bucket.try_acquire(1.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        assert bucket.try_acquire(0.0)
        # A long quiet period refills to the cap, not beyond it.
        for _ in range(3):
            assert bucket.try_acquire(1000.0)
        assert not bucket.try_acquire(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_quota_rejection_is_typed_and_counted(self):
        controller = AdmissionController(
            max_in_flight=8, quota_rps=1.0, quota_burst=2.0
        )
        controller.admit("cam-a", 0.0)
        controller.admit("cam-a", 0.0)
        with pytest.raises(QuotaExceeded) as info:
            controller.admit("cam-a", 0.0)
        assert info.value.tenant == "cam-a"
        # QuotaExceeded IS an Overloaded: shedding-aware clients that
        # predate quotas keep working unchanged.
        assert isinstance(info.value, Overloaded)
        snapshot = controller.snapshot()
        assert snapshot["quota_rejections"] == {"cam-a": 1}
        assert snapshot["admitted"] == 2

    def test_tenants_are_isolated(self):
        controller = AdmissionController(
            max_in_flight=8, quota_rps=1.0, quota_burst=1.0
        )
        controller.admit("cam-a", 0.0)
        with pytest.raises(QuotaExceeded):
            controller.admit("cam-a", 0.0)
        controller.admit("cam-b", 0.0)  # a's dry bucket is not b's problem

    def test_tenant_overrides_beat_the_default(self):
        controller = AdmissionController(
            max_in_flight=8,
            quota_rps=1.0,
            quota_burst=1.0,
            tenant_quotas={"vip": (100.0, 4.0)},
        )
        for _ in range(4):
            controller.admit("vip", 0.0)
        with pytest.raises(QuotaExceeded):
            controller.admit("vip", 0.0)

    def test_in_flight_cap_sheds_with_plain_overloaded(self):
        controller = AdmissionController(max_in_flight=2)
        controller.admit("default", 0.0)
        controller.admit("default", 0.0)
        with pytest.raises(Overloaded) as info:
            controller.admit("default", 0.0)
        assert not isinstance(info.value, QuotaExceeded)
        assert controller.snapshot()["shed"] == 1
        controller.release()
        controller.admit("default", 0.0)  # release freed a slot
        assert controller.in_flight == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=0)


class TestResultCache:
    def test_hit_returns_a_private_copy(self):
        cache = ResultCache(capacity=4)
        cache.put("d", _frame(0.5))
        first = cache.get("d")
        first.data[0, 0, 0] = 99.0
        second = cache.get("d")
        assert second.data[0, 0, 0] == np.float32(0.5)  # mutation contained
        assert cache.snapshot()["hits"] == 2

    def test_lru_evicts_the_coldest_entry(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _frame(1.0))
        cache.put("b", _frame(2.0))
        assert cache.get("a") is not None  # touch: a is now the warmest
        cache.put("c", _frame(3.0))  # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.snapshot()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("d", _frame())
        assert cache.get("d") is None
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
