"""Serving metrics: counters, batch-size histogram, latency percentiles.

Everything the load-shedding and batching policies promise is observable
here: queue depth (current and high-water), shed count, batch-size
histogram split by flush cause, request latency percentiles (p50/p95/p99),
and completed-request throughput.  :meth:`MetricsRegistry.snapshot`
returns a plain JSON-safe dict, which ``repro serve-bench`` embeds in its
report as the ``metrics`` section.

All observation methods take explicit timestamps (the caller owns the
clock), which keeps the registry deterministic under the virtual clocks
the tests use.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

#: Cap on retained latency samples; beyond it the reservoir keeps every
#: k-th sample (enough fidelity for p99 at serving-bench scales without
#: unbounded memory on long-running servers).
MAX_LATENCY_SAMPLES = 65536


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (deterministic, no interpolation).

    ``fraction`` is in [0, 1]; raises on an empty sample set.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    if fraction == 0.0:
        rank = 0
    return ordered[rank]


class MetricsRegistry:
    """Thread-safe counters/histograms for one :class:`InferenceServer`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.accepted = 0
        self.shed = 0
        self.bad_frames = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.timed_out = 0
        self.queue_depth = 0
        self.queue_depth_max = 0
        self.batch_histogram: Dict[int, int] = {}
        self.flush_causes: Dict[str, int] = {}
        self.fabric_dispatches = 0
        self.fabric_retries = 0
        self.fabric_failures: Dict[str, int] = {}
        self.breaker_trips = 0
        self.breaker_probes = 0
        self.breaker_state = "closed"
        self.breaker_transitions: List[Dict] = []
        self.degraded_inferences = 0
        self.worker_deaths = 0
        self.shard_dispatches: Dict[str, int] = {}
        self.shard_deaths = 0
        self.shard_death_causes: Dict[str, int] = {}
        self.shard_cold_starts: Dict[str, Dict] = {}
        self.reroutes = 0
        self.inline_fallbacks = 0
        self.fallback_routes = 0
        self.result_cache_hits = 0
        self.coalesced = 0
        self.quota_rejections: Dict[str, int] = {}
        self.router_splits = 0
        self.shard_slow_events = 0
        self.heartbeats_sent = 0
        self.heartbeat_pongs = 0
        self.cold_start_ms: Optional[float] = None
        self.plan_cache_hit: Optional[bool] = None
        self.plan_source = "compiled"
        self.plan_step_seconds: Dict[str, float] = {}
        self.plan_step_counts: Dict[str, int] = {}
        self._latencies: List[float] = []
        self._latency_stride = 1
        self._latency_seen = 0
        self._started_at: Optional[float] = None
        self._last_completion: Optional[float] = None

    # -- observations ------------------------------------------------------

    def mark_started(self, now: float) -> None:
        with self._lock:
            self._started_at = now

    def observe_admission(self, depth: int) -> None:
        with self._lock:
            self.accepted += 1
            self.queue_depth = depth
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def observe_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def observe_bad_frame(self) -> None:
        with self._lock:
            self.bad_frames += 1

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def observe_batch(self, size: int, cause: str) -> None:
        with self._lock:
            self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
            self.flush_causes[cause] = self.flush_causes.get(cause, 0) + 1

    def observe_completion(self, latency_s: float, now: float) -> None:
        with self._lock:
            self.completed += 1
            self._last_completion = now
            self._latency_seen += 1
            if self._latency_seen % self._latency_stride == 0:
                self._latencies.append(latency_s)
            if len(self._latencies) >= MAX_LATENCY_SAMPLES:
                # Decimate: keep every other sample, double the stride.
                self._latencies = self._latencies[::2]
                self._latency_stride *= 2

    def observe_failure(self) -> None:
        with self._lock:
            self.failed += 1

    def observe_cancellation(self) -> None:
        with self._lock:
            self.cancelled += 1

    def observe_timeout(self) -> None:
        with self._lock:
            self.timed_out += 1

    def observe_fabric_dispatch(self) -> None:
        with self._lock:
            self.fabric_dispatches += 1

    def observe_retry(self) -> None:
        """One fabric batch attempt is being retried after a fabric failure."""
        with self._lock:
            self.fabric_retries += 1

    def observe_fabric_failure(self, kind: str) -> None:
        """One fabric execution failed; *kind* is the exception class name."""
        with self._lock:
            self.fabric_failures[kind] = self.fabric_failures.get(kind, 0) + 1

    def observe_degraded(self, batch: int) -> None:
        """*batch* inferences were served on the degraded CPU reference path."""
        with self._lock:
            self.degraded_inferences += batch

    def observe_worker_death(self) -> None:
        """A pool worker died (injected) and was respawned."""
        with self._lock:
            self.worker_deaths += 1

    # -- shard-tier observations (repro.serve.router) ----------------------

    def observe_shard_start(
        self, name: str, cold_start_ms: Optional[float], cache_hit
    ) -> None:
        """One shard process completed its ready handshake."""
        with self._lock:
            self.shard_cold_starts[name] = {
                "cold_start_ms": cold_start_ms,
                "plan_cache_hit": cache_hit,
            }

    def observe_shard_dispatch(self, name: str) -> None:
        """One request was sent down shard *name*'s pipe."""
        with self._lock:
            self.shard_dispatches[name] = self.shard_dispatches.get(name, 0) + 1

    def observe_shard_death(self, name: str, cause: str) -> None:
        """Shard *name* was declared dead (killed, crashed, or hung)."""
        with self._lock:
            self.shard_deaths += 1
            self.shard_death_causes[cause] = (
                self.shard_death_causes.get(cause, 0) + 1
            )

    def observe_reroute(self) -> None:
        """An in-flight request was re-dispatched off a dead shard."""
        with self._lock:
            self.reroutes += 1

    def observe_inline_fallback(self) -> None:
        """A request was served in-parent because no shard was usable."""
        with self._lock:
            self.inline_fallbacks += 1

    def observe_fallback_route(self) -> None:
        """The ring's preferred shard was unusable; least-loaded chosen."""
        with self._lock:
            self.fallback_routes += 1

    def observe_cache_hit(self) -> None:
        """A request was answered from the result cache (no dispatch)."""
        with self._lock:
            self.result_cache_hits += 1

    def observe_coalesced(self) -> None:
        """A duplicate in-flight digest rode an existing dispatch."""
        with self._lock:
            self.coalesced += 1

    def observe_quota_rejection(self, tenant: str) -> None:
        """A tenant's token bucket rejected a request."""
        with self._lock:
            self.quota_rejections[tenant] = (
                self.quota_rejections.get(tenant, 0) + 1
            )

    def observe_router_split(self, hidden) -> None:
        """A router-split tick hid part of the fleet."""
        with self._lock:
            self.router_splits += 1

    def observe_shard_slow(self, name: str) -> None:
        """A shard-slow tick turned one replica slow."""
        with self._lock:
            self.shard_slow_events += 1

    def observe_heartbeat(self) -> None:
        with self._lock:
            self.heartbeats_sent += 1

    def observe_pong(self, name: str) -> None:
        with self._lock:
            self.heartbeat_pongs += 1

    def observe_breaker_transition(
        self, old: str, new: str, reason: str, now: float
    ) -> None:
        """The fabric circuit breaker moved *old* → *new* (hooked callback)."""
        with self._lock:
            self.breaker_state = new
            if new == "open" and old == "closed":
                self.breaker_trips += 1
            if new == "half-open":
                self.breaker_probes += 1
            self.breaker_transitions.append(
                {"at": now, "from": old, "to": new, "reason": reason}
            )

    def observe_cold_start(
        self, cold_start_ms: float, plan_cache_hit: Optional[bool]
    ) -> None:
        """How long engine construction took at server init.

        *plan_cache_hit* is True/False when the server loads its plan
        through a :class:`~repro.isa.cache.PlanCache`, and None when it
        compiles in-process without one.
        """
        with self._lock:
            self.cold_start_ms = cold_start_ms
            self.plan_cache_hit = plan_cache_hit
            if plan_cache_hit is None:
                self.plan_source = "compiled"
            elif plan_cache_hit:
                self.plan_source = "cache-hit"
            else:
                self.plan_source = "cache-miss"

    def observe_plan_step(self, name: str, seconds: float) -> None:
        """Accumulate one executed plan step (the VM's per-step hook)."""
        with self._lock:
            self.plan_step_seconds[name] = (
                self.plan_step_seconds.get(name, 0.0) + seconds
            )
            self.plan_step_counts[name] = self.plan_step_counts.get(name, 0) + 1

    # -- export ------------------------------------------------------------

    @staticmethod
    def _percentiles_of(samples: Sequence[float]) -> Optional[Dict[str, float]]:
        if not samples:
            return None
        return {
            "p50_ms": percentile(samples, 0.50) * 1e3,
            "p95_ms": percentile(samples, 0.95) * 1e3,
            "p99_ms": percentile(samples, 0.99) * 1e3,
            "mean_ms": sum(samples) / len(samples) * 1e3,
            "max_ms": max(samples) * 1e3,
        }

    def snapshot(self, now: Optional[float] = None) -> Dict:
        """JSON-safe dict of every metric, for bench reports and logs.

        The whole snapshot — counters *and* the latency section — is
        assembled under one lock hold, so it is internally consistent: a
        concurrent ``observe_completion`` either lands entirely before
        this snapshot or entirely after it, never half-in (the latency
        sample count can never exceed the completed count it ships with).
        """
        with self._lock:
            end = now
            if end is None:
                end = self._last_completion
            elapsed = None
            if self._started_at is not None and end is not None:
                elapsed = max(0.0, end - self._started_at)
            throughput = None
            if elapsed:
                throughput = self.completed / elapsed
            data = {
                "accepted": self.accepted,
                "shed": self.shed,
                "bad_frames": self.bad_frames,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "timed_out": self.timed_out,
                "queue_depth": self.queue_depth,
                "queue_depth_max": self.queue_depth_max,
                "batch_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_histogram.items())
                },
                "flush_causes": dict(sorted(self.flush_causes.items())),
                "fabric_dispatches": self.fabric_dispatches,
                "resilience": {
                    "fabric_retries": self.fabric_retries,
                    "fabric_failures": dict(sorted(self.fabric_failures.items())),
                    "breaker_state": self.breaker_state,
                    "breaker_trips": self.breaker_trips,
                    "breaker_probes": self.breaker_probes,
                    "breaker_transitions": list(self.breaker_transitions),
                    "degraded_inferences": self.degraded_inferences,
                    "worker_deaths": self.worker_deaths,
                },
                "plan_cache": {
                    "cold_start_ms": self.cold_start_ms,
                    "plan_cache_hit": self.plan_cache_hit,
                    "plan_source": self.plan_source,
                },
                "plan_steps": {
                    name: {
                        "count": self.plan_step_counts[name],
                        "total_ms": self.plan_step_seconds[name] * 1e3,
                    }
                    for name in sorted(self.plan_step_seconds)
                },
                "shard_tier": {
                    "dispatches": dict(sorted(self.shard_dispatches.items())),
                    "shard_deaths": self.shard_deaths,
                    "death_causes": dict(
                        sorted(self.shard_death_causes.items())
                    ),
                    "cold_starts": {
                        name: dict(info)
                        for name, info in sorted(self.shard_cold_starts.items())
                    },
                    "reroutes": self.reroutes,
                    "inline_fallbacks": self.inline_fallbacks,
                    "fallback_routes": self.fallback_routes,
                    "result_cache_hits": self.result_cache_hits,
                    "coalesced": self.coalesced,
                    "quota_rejections": dict(
                        sorted(self.quota_rejections.items())
                    ),
                    "router_splits": self.router_splits,
                    "shard_slow_events": self.shard_slow_events,
                    "heartbeats_sent": self.heartbeats_sent,
                    "heartbeat_pongs": self.heartbeat_pongs,
                },
                "elapsed_s": elapsed,
                "throughput_rps": throughput,
                "latency_samples": self._latency_seen,
                # Computed inside this same lock hold: the latency section
                # can never be torn relative to the counters above.
                "latency": self._percentiles_of(list(self._latencies)),
            }
        return data


__all__ = ["MetricsRegistry", "percentile", "MAX_LATENCY_SAMPLES"]
