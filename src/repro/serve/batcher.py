"""Dynamic batching: coalesce pending requests into one wide forward pass.

PR 1 made ``Network.forward_batch`` amortize per-layer Python/BLAS
overhead across frames; this module decides *which* requests share a
batch.  The policy is work-conserving, with three triggers:

* **size trigger** — flush as soon as ``max_batch`` requests are pending
  (throughput-optimal, no request waits once a full batch exists);
* **deadline trigger** — flush a partial batch once its *oldest* request
  has waited ``max_delay_s`` (bounds the latency a request pays for
  batching while every worker is busy);
* **idle trigger** — flush a partial batch at once when the caller
  reports ``idle``: a worker is free and the batch already holds its fair
  share of the work in sight (:func:`fair_share`).  Holding requests back
  only buys a larger batch while the workers are busy anyway; behind a
  free worker it is pure added latency (the paper's §III-F pipeline
  likewise hands every free core a ready job rather than letting it sit
  behind a timer).

With one free worker the fair share is "everything queued", so the batch
goes out once the burst behind it has been drained into it.  With two
free workers a queued burst of 8 goes out as two batches of 4 that run at
the same time.  Under load the batches are therefore "whatever arrived
while the workers were busy", capped by size and deadline; on an idle
server a request is dispatched the moment it is popped.  With
``idle=False`` on every call the machine is exactly the classic
two-trigger batcher.

The batcher is a pure state machine over explicit ``now`` and ``idle``
parameters — it never reads a clock, a queue or a thread pool — so flush
semantics are tested without any wall-clock dependence.  The serving
thread owns the clock and the pool and drives :meth:`add` / :meth:`poll`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.tensor import FeatureMapBatch

from repro.serve.queue import InferenceRequest

#: Flush causes, recorded in the metrics registry per flush.
FLUSH_SIZE = "size"
FLUSH_DEADLINE = "deadline"
FLUSH_IDLE = "idle"
FLUSH_FORCED = "forced"


@dataclass
class Flush:
    """One emitted batch: the requests plus why they were flushed."""

    requests: List[InferenceRequest]
    cause: str

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Coalesce requests; flush on max batch size, deadline or idle worker."""

    def __init__(self, max_batch: int, max_delay_s: float) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self._pending: List[InferenceRequest] = []
        self._oldest_at: Optional[float] = None

    @property
    def pending(self) -> int:
        return len(self._pending)

    def next_deadline(self) -> Optional[float]:
        """Absolute time of the pending batch's deadline flush, or None."""
        if self._oldest_at is None:
            return None
        return self._oldest_at + self.max_delay_s

    def add(
        self, request: InferenceRequest, now: float, idle: bool = False
    ) -> Optional[Flush]:
        """Accept one request; returns a size-triggered flush when full.

        A deadline that already passed is honored on the same call, so a
        caller that was blocked in ``queue.pop`` past the deadline flushes
        immediately rather than waiting a full extra period.  *idle* says
        a worker is free and the batch holds its share of the queued work
        (:func:`fair_share`): the batch — this request included — is
        flushed at once.
        """
        if self._oldest_at is None:
            self._oldest_at = now
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            return self._emit(FLUSH_SIZE)
        return self.poll(now, idle)

    def poll(self, now: float, idle: bool = False) -> Optional[Flush]:
        """Flush the partial batch once it waited too long or a worker is free."""
        if self._oldest_at is None:
            return None
        if now >= self._oldest_at + self.max_delay_s:
            return self._emit(FLUSH_DEADLINE)
        if idle:
            return self._emit(FLUSH_IDLE)
        return None

    def flush(self) -> Optional[Flush]:
        """Force out whatever is pending (used at shutdown drain)."""
        if not self._pending:
            return None
        return self._emit(FLUSH_FORCED)

    def _emit(self, cause: str) -> Flush:
        batch, self._pending = self._pending, []
        self._oldest_at = None
        return Flush(batch, cause)


def fair_share(pending: int, depth: int, free: int) -> bool:
    """The idle trigger's rule: may the *pending* batch go out now?

    True when at least one worker is *free* and the batch holds at least
    its share of the visible work — the *pending* requests plus the
    *depth* still queued — split evenly over the free workers.  With one
    free worker that means nothing more is queued; with none it is never
    true (a new batch would wait behind another anyway).
    """
    return free >= 1 and pending * free >= pending + depth


def to_feature_batch(requests: Sequence[InferenceRequest]) -> FeatureMapBatch:
    """Stack the requests' input frames into one ``(N, C, H, W)`` batch."""
    return FeatureMapBatch.from_maps([request.frame for request in requests])


__all__ = [
    "DynamicBatcher",
    "Flush",
    "fair_share",
    "to_feature_batch",
    "FLUSH_SIZE",
    "FLUSH_DEADLINE",
    "FLUSH_IDLE",
    "FLUSH_FORCED",
]
