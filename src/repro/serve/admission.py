"""Admission control for the shard tier: quotas, depth limits, dedup.

The single-process server's :class:`~repro.serve.queue.BoundedRequestQueue`
sheds load with :class:`~repro.serve.queue.Overloaded` once its depth limit
is reached — one global knob, every client equal.  A multi-tenant shard
tier needs two more layers in front of dispatch:

* **per-tenant token buckets** — one misbehaving tenant must not be able
  to consume the whole fleet.  Each tenant draws from a
  :class:`TokenBucket` (sustained ``rate`` tokens/s, ``burst`` capacity);
  an empty bucket rejects with the typed :class:`QuotaExceeded` — a
  subclass of ``Overloaded``, so existing shedding-aware clients keep
  working unchanged.
* **a fleet in-flight limit** — the analogue of the queue depth limit:
  once ``max_in_flight`` requests are dispatched-but-unanswered across
  all shards, further admissions shed with plain ``Overloaded``.

Behind admission sits the :class:`ResultCache`: real camera traffic is
full of duplicate frames (static scenes), and inference is deterministic,
so a result computed once is a result forever.  The cache is an LRU keyed
by :func:`frame_digest` (sha256 over dtype, shape, scale and raw bytes —
bit-exact inputs only, never "similar" frames), which also serves as the
router's consistent-hashing key, so duplicates land on the same shard
even on a cache miss.

Time is passed in (``now``), never read from a clock, so the unit tests
drive every refill/eviction path on explicit values.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.tensor import FeatureMap

from repro.serve.queue import Overloaded


def frame_digest(frame: FeatureMap) -> str:
    """Content address of one input frame (bit-exact, layout-aware).

    The digest covers dtype, shape, quantization scale and the raw buffer
    bytes, so two frames collide iff inference on them is guaranteed to
    produce identical outputs.
    """
    data = frame.data
    if not data.flags["C_CONTIGUOUS"]:
        data = np.ascontiguousarray(data)
    hasher = hashlib.sha256()
    hasher.update(str(data.dtype).encode())
    hasher.update(repr(data.shape).encode())
    hasher.update(repr(float(frame.scale)).encode())
    hasher.update(data)  # buffer protocol: hashed in place, no bytes copy
    return hasher.hexdigest()


class QuotaExceeded(Overloaded):
    """A tenant's token bucket ran dry (typed per-tenant shedding)."""

    def __init__(self, tenant: str, rate: float, burst: float) -> None:
        # Overloaded's (depth, limit) slots carry the bucket numbers: the
        # "depth" is how much a client asked for beyond its allowance.
        RuntimeError.__init__(
            self,
            f"tenant {tenant!r} exceeded its quota "
            f"({rate:g} req/s, burst {burst:g})",
        )
        self.tenant = tenant
        self.depth = 1
        self.limit = int(burst)
        self.rate = rate
        self.burst = burst


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Refill happens lazily on :meth:`try_acquire` from the caller's clock,
    so the bucket needs no timer thread and behaves identically under a
    virtual clock.  A ``rate`` of ``None`` means unmetered (always
    admits) — the single-tenant default.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: float = 1.0,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for unmetered)")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = float(burst)
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._refilled_at: Optional[float] = None

    def try_acquire(self, now: float) -> bool:
        """Take one token at time *now*; False when the bucket is dry."""
        if self.rate is None:
            return True
        with self._lock:
            if self._refilled_at is None:
                self._refilled_at = now
            elapsed = max(0.0, now - self._refilled_at)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


class AdmissionController:
    """Front-door policy of the shard tier: quotas, then the depth limit.

    ``admit(tenant)`` either returns (the request may proceed to the
    result cache / router) or raises :class:`QuotaExceeded` /
    :class:`Overloaded`.  The caller pairs every successful ``admit``
    with a later ``release()`` once the request resolves, so the
    in-flight gauge stays truthful.
    """

    def __init__(
        self,
        max_in_flight: int,
        quota_rps: Optional[float] = None,
        quota_burst: float = 32.0,
        tenant_quotas: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        self.max_in_flight = max_in_flight
        self.default_quota = (quota_rps, quota_burst)
        self.tenant_quotas = dict(tenant_quotas or {})
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.quota_rejections: Dict[str, int] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                rate, burst = self.tenant_quotas.get(tenant, self.default_quota)
                bucket = TokenBucket(rate, burst)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str, now: float) -> None:
        """Admit one request for *tenant* or raise a typed shedding error."""
        bucket = self._bucket(tenant)
        if not bucket.try_acquire(now):
            with self._lock:
                self.quota_rejections[tenant] = (
                    self.quota_rejections.get(tenant, 0) + 1
                )
            raise QuotaExceeded(tenant, bucket.rate, bucket.burst)
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                self.shed += 1
                raise Overloaded(self._in_flight, self.max_in_flight)
            self._in_flight += 1
            self.admitted += 1

    def release(self) -> None:
        """One admitted request resolved (completed, failed, or cached)."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "admitted": self.admitted,
                "shed": self.shed,
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "quota_rejections": dict(sorted(self.quota_rejections.items())),
            }


class ResultCache:
    """Thread-safe LRU of inference results, keyed by input digest.

    ``capacity`` 0 disables the cache entirely (every lookup is a miss and
    nothing is retained) — the deterministic-dispatch mode the chaos
    matrix tests use.  Values are stored as-is; callers hand in the
    output :class:`~repro.core.tensor.FeatureMap` and receive a
    ``copy()`` on every hit so one cached buffer can never be aliased by
    two clients.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: "OrderedDict[str, FeatureMap]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Optional[FeatureMap]:
        with self._lock:
            value = self._items.get(digest)
            if value is None:
                self.misses += 1
                return None
            self._items.move_to_end(digest)
            self.hits += 1
            return value.copy()

    def put(self, digest: str, value: FeatureMap) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if digest in self._items:
                self._items.move_to_end(digest)
                self._items[digest] = value.copy()
                return
            self._items[digest] = value.copy()
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._items),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


__all__ = [
    "frame_digest",
    "QuotaExceeded",
    "TokenBucket",
    "AdmissionController",
    "ResultCache",
]
