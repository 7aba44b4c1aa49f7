"""``repro.serve`` — request-driven inference serving (docs/SERVING.md).

Turns the batched forward pass of PR 1 into a request/response system:
a bounded admission queue that sheds load with :class:`Overloaded`, a
dynamic batcher that coalesces requests into ``FeatureMapBatch`` flushes
(max-batch-size, max-latency-deadline or idle worker), a heterogeneous worker pool
modeling the paper's single serialized FINN fabric engine next to N CPU
workers, and a metrics registry whose JSON snapshot every server
exposes.  ``repro serve-bench`` drives either topology through
:mod:`repro.serve.loadgen`, which this package does not import.

PR 5 adds fault tolerance: a :class:`CircuitBreaker` + :class:`FabricWatchdog`
pair owned by the worker pool, bounded-backoff fabric retries in the
server, and a bit-identical degraded CPU-reference mode — all driven by
the deterministic fault-injection seams of :mod:`repro.faults`.

PR 10 scales the tier out: :class:`ShardedServer` runs N shard
*processes* (each owning a simulated fabric device and a warmed ``.rpb``
plan) behind a consistent-hashing :class:`Router` with least-loaded
fallback, per-tenant token-bucket :class:`AdmissionController` quotas,
and an LRU :class:`ResultCache` keyed by input digest — certified by the
fleet-scale chaos sites of :mod:`repro.faults` (``shard.kill``,
``shard.slow``, ``router.split``).
"""

from repro.serve.batcher import (
    FLUSH_DEADLINE,
    FLUSH_FORCED,
    FLUSH_IDLE,
    FLUSH_SIZE,
    DynamicBatcher,
    Flush,
    to_feature_batch,
)
from repro.serve.admission import (
    AdmissionController,
    QuotaExceeded,
    ResultCache,
    TokenBucket,
    frame_digest,
)
from repro.serve.metrics import MetricsRegistry, percentile
from repro.serve.queue import (
    BoundedRequestQueue,
    InferenceRequest,
    Overloaded,
    RequestCancelled,
    RequestFuture,
    RequestTimeout,
    ServerClosed,
)
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    USE_FABRIC,
    USE_PROBE,
    USE_REFERENCE,
    CircuitBreaker,
    FabricWatchdog,
    HeartbeatMonitor,
)
from repro.serve.router import (
    ConsistentHashRing,
    Router,
    ShardedServer,
    ShardTierConfig,
)
from repro.serve.server import InferenceServer, ServeConfig, create_server
from repro.serve.shard import Shard, ShardError
from repro.serve.workers import BatchJob, FabricGate, HeterogeneousWorkerPool

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "USE_FABRIC",
    "USE_PROBE",
    "USE_REFERENCE",
    "CircuitBreaker",
    "FabricWatchdog",
    "InferenceServer",
    "ServeConfig",
    "BoundedRequestQueue",
    "InferenceRequest",
    "RequestFuture",
    "Overloaded",
    "RequestCancelled",
    "RequestTimeout",
    "ServerClosed",
    "DynamicBatcher",
    "Flush",
    "to_feature_batch",
    "FLUSH_SIZE",
    "FLUSH_DEADLINE",
    "FLUSH_IDLE",
    "FLUSH_FORCED",
    "MetricsRegistry",
    "percentile",
    "FabricGate",
    "BatchJob",
    "HeterogeneousWorkerPool",
    "AdmissionController",
    "QuotaExceeded",
    "ResultCache",
    "TokenBucket",
    "frame_digest",
    "HeartbeatMonitor",
    "ConsistentHashRing",
    "Router",
    "ShardedServer",
    "ShardTierConfig",
    "Shard",
    "ShardError",
    "create_server",
]
