"""``repro.serve`` — request-driven inference serving (docs/SERVING.md).

One serving engine, :class:`InferenceServer`, turns the batched forward
pass into a request/response system: a bounded admission queue that
sheds load with :class:`Overloaded`, a dynamic batcher that coalesces
requests into ``FeatureMapBatch`` flushes (max-batch-size,
max-latency-deadline, or a fair share for each free worker), a
heterogeneous worker pool modeling the paper's single serialized FINN
fabric engine next to N CPU workers, fault tolerance (a
:class:`CircuitBreaker` + :class:`FabricWatchdog` pair, bounded-backoff
fabric retries and a bit-identical degraded CPU-reference mode, driven by
the deterministic fault-injection seams of :mod:`repro.faults`), and a
metrics registry whose JSON snapshot every server exposes.

One front door, :class:`ShardedServer`, puts N >= 0 such engines behind
per-tenant token-bucket :class:`AdmissionController` quotas, an LRU
:class:`ResultCache` keyed by input digest, coalescing of in-flight
duplicates and a consistent-hashing :class:`Router` with least-loaded
fallback.  Each shard is a forked process running its own engine on a
warmed ``.rpb`` plan; with no shards (or none left alive) one engine in
the calling process serves.  The fleet is certified by the chaos sites
of :mod:`repro.faults` (``shard.kill``, ``shard.slow``,
``router.split``).  ``repro serve-bench`` drives the front door through
:mod:`repro.serve.loadgen`, which this package does not import.
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
from repro.serve.server import InferenceServer, ServeConfig
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
]
