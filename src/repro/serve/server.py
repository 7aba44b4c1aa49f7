"""The inference server: queue → dynamic batcher → worker pool → futures.

Request flow::

    client.submit(frame) ──► BoundedRequestQueue (admission control, shed)
                                   │ pop
                             batcher thread ──► DynamicBatcher
                                   │ flush (size | deadline | idle | forced)
                             HeterogeneousWorkerPool ──► queue.wake()
                               ├─ N CPU workers          (a worker went idle)
                               └─ 1 fabric executor
                                   │ one stage job per PlanVM stage:
                                   │   CPU ─► FABRIC (retry, breaker,
                                   │   watchdog, FabricGate) ─► CPU
                             RequestFuture.set_result ──► client

A batch runs as the plan's stage jobs (:attr:`repro.isa.vm.PlanVM.
stages`), the §III-F demo mode's split of a frame: the CPU layers before
an offload on a CPU worker, the offload on the one fabric executor, the
CPU layers after it on a CPU worker again.  While one batch holds the
fabric, the CPU workers run the CPU stages of others.  A CPU-only
network is one stage: one pool hand-off per batch.

Batching is work-conserving: while a worker of the first stage's
resource is free, the pending batch is dispatched as soon as it holds
its fair share of the queued work (cause ``idle``) — everything queued
when one worker is free, half of a queued burst when two are, so every
free worker gets a batch and they run at once.  Requests are held back
for a larger batch — up to ``max_batch`` or ``max_delay_s`` — only while
every such worker is busy, and a worker that runs out of work wakes the
batcher thread so whatever accumulated meanwhile goes out with it.

Results are **bit-identical** to calling ``Network.forward_batch``
directly on the same frames: the server only decides *which* frames share
a batch, never *how* they are computed (and the batched layer paths are
pinned to be batch-size invariant).  Execution goes through the
server's own :class:`repro.isa.vm.PlanVM` — the same runtime as every
other consumer, on the cached ``.rpb`` artifact when ``plan_cache_dir``
is set and on an in-process compile otherwise — with the VM's
per-step instrumentation feeding this server's
:class:`~repro.serve.metrics.MetricsRegistry` (``plan_steps`` in the
snapshot).  A synchronous client API (:meth:`InferenceServer.infer` /
:meth:`infer_many`) wraps the futures for in-process callers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.resources import FABRIC
from repro.core.tensor import BadFrame, FeatureMap, FeatureMapBatch, check_frame
from repro.faults import FabricError

from repro.serve.batcher import (
    DynamicBatcher,
    Flush,
    fair_share,
    to_feature_batch,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import (
    USE_PROBE,
    USE_REFERENCE,
    CircuitBreaker,
    FabricWatchdog,
)
from repro.serve.queue import (
    BoundedRequestQueue,
    Overloaded,
    RequestFuture,
    RequestTimeout,
    ServerClosed,
)
from repro.serve.workers import (
    BatchJob,
    FabricGate,
    HeterogeneousWorkerPool,
    join_threads,
)


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`InferenceServer` (see docs/SERVING.md)."""

    #: Admission-control limit: requests beyond this depth are shed with
    #: a typed :class:`Overloaded` error instead of queueing unboundedly.
    max_queue_depth: int = 64
    #: Size trigger: flush as soon as this many requests are pending.
    max_batch: int = 8
    #: Deadline trigger: flush a partial batch once its oldest request has
    #: waited this long (bounds the latency cost of batching while every
    #: worker is busy; behind a free worker nothing waits at all).
    max_delay_s: float = 0.005
    #: CPU workers next to the single fabric executor.
    cpu_workers: int = 2
    #: Run one zero frame through the server's VM at start() to populate the
    #: packed weight/threshold caches before concurrent traffic arrives.
    warmup: bool = True
    #: Fabric retry budget per batch: after this many retries the batch is
    #: served on the degraded CPU reference path instead of failing.
    max_retries: int = 2
    #: Base of the bounded exponential backoff between fabric retries.
    retry_backoff_s: float = 0.001
    #: Backoff ceiling (the "bounded" in bounded exponential backoff).
    retry_backoff_max_s: float = 0.05
    #: Watchdog budget for one fabric execution; a hang becomes a
    #: :class:`~repro.faults.FabricTimeout` counted against the breaker.
    fabric_timeout_s: float = 1.0
    #: Consecutive fabric failures before the circuit breaker trips open.
    breaker_threshold: int = 3
    #: How long the breaker stays open before half-open probing.
    breaker_probe_after_s: float = 0.05
    #: Cross-check every fabric output against the CPU reference path and
    #: raise :class:`~repro.faults.FabricCorruption` on mismatch (runtime
    #: co-simulation; catches silently corrupted fabric output at ~2x cost).
    scrub_fabric: bool = False
    #: Directory of a content-addressed plan cache (see docs/ISA.md).  When
    #: set, the server loads its program from the cached ``.rpb`` artifact
    #: (compiling and storing it on first start) instead of compiling
    #: in-process — the same program either way.  The hit/miss and timing
    #: land in the ``plan_cache`` metrics section.
    plan_cache_dir: Optional[str] = None
    #: Name under which the network's plan is cached (part of the cache
    #: key next to the cfg and weights hashes).
    plan_cache_name: str = "network"
    #: ``-O`` level the program is compiled at (also part of the cache
    #: key, so servers at different levels never share artifacts).
    plan_opt_level: int = 2
    #: Translation-validation admission policy of the plan cache: ``None``
    #: follows the compiler default (validate at ``-O2``), ``True`` forces
    #: validation (and refuses cached artifacts without the ``tv_ok``
    #: provenance flag), ``False`` skips it.
    plan_validate: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_batch > self.max_queue_depth:
            raise ValueError("max_batch cannot exceed max_queue_depth")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.cpu_workers < 1:
            raise ValueError("cpu_workers must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ValueError("retry backoff must be non-negative")
        if self.retry_backoff_max_s < self.retry_backoff_s:
            raise ValueError("retry_backoff_max_s must be >= retry_backoff_s")
        if self.fabric_timeout_s <= 0:
            raise ValueError("fabric_timeout_s must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_probe_after_s < 0:
            raise ValueError("breaker_probe_after_s must be non-negative")
        if self.plan_opt_level not in (0, 1, 2):
            raise ValueError("plan_opt_level must be 0, 1 or 2")


#: How long the batcher thread sleeps waiting for the first request of a
#: batch; purely a wake-up granularity for stop(), not a latency source
#: (new requests notify the queue condition immediately).
_IDLE_WAIT_S = 0.05


class InferenceServer:
    """Request-driven serving over one :class:`~repro.nn.network.Network`."""

    def __init__(
        self,
        network,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
        bound: Optional[tuple] = None,
    ) -> None:
        """*bound*: a ``build_vm`` result to serve on instead of building one."""
        self.network = network
        self.config = config or ServeConfig()
        self.clock = clock
        # Retry backoff pauses through *sleep*; a VirtualClock passed as
        # *clock* supplies its own wall-time-free sleep.
        if sleep is not None:
            self.sleep = sleep
        else:
            self.sleep = getattr(clock, "sleep", time.sleep)
        self.metrics = MetricsRegistry()
        self.fabric_gate = FabricGate()
        from repro.isa import build_vm

        cold_start = time.perf_counter()
        self.vm, cache_hit = bound or build_vm(
            network,
            self.config.plan_cache_dir,
            name=self.config.plan_cache_name,
            opt_level=self.config.plan_opt_level,
            validate=self.config.plan_validate,
        )
        cold_start_ms = (time.perf_counter() - cold_start) * 1e3
        self.metrics.observe_cold_start(cold_start_ms, cache_hit)
        self.queue = BoundedRequestQueue(self.config.max_queue_depth, clock=clock)
        self.batcher = DynamicBatcher(self.config.max_batch, self.config.max_delay_s)
        breaker = None
        watchdog = None
        if self.vm.uses_fabric:
            breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                probe_after_s=self.config.breaker_probe_after_s,
                clock=clock,
                on_transition=self.metrics.observe_breaker_transition,
            )
            watchdog = FabricWatchdog(
                timeout_s=self.config.fabric_timeout_s, clock=clock
            )
        self.pool = HeterogeneousWorkerPool(
            self._execute,
            cpu_workers=self.config.cpu_workers,
            breaker=breaker,
            watchdog=watchdog,
            on_worker_death=lambda resource: self.metrics.observe_worker_death(),
            on_idle=lambda resource: self.queue.wake(),
        )
        self._stop_event = threading.Event()
        self._drain_on_stop = True
        self._batcher_thread: Optional[threading.Thread] = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._started and not self._stop_event.is_set()

    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self.config.warmup:
            # Before the step hook is attached: the zero frame leaves no
            # plan_steps (or latency) sample behind.
            self.vm.run(
                FeatureMapBatch(
                    np.zeros(
                        (1,) + tuple(self.network.input_shape),
                        dtype=np.float32,
                    )
                )
            )
        # The server owns its VM so the per-step stats land in *this*
        # server's metrics registry.
        self.vm.on_step = lambda stats: self.metrics.observe_plan_step(
            stats.name, stats.wall_s
        )
        self.pool.start()
        self._batcher_thread = threading.Thread(
            target=self._batcher_loop, name="serve-batcher", daemon=True
        )
        self._batcher_thread.start()
        self.metrics.mark_started(self.clock())
        return self

    def stop(self, timeout: Optional[float] = None, drain: bool = True) -> bool:
        """Stop accepting requests and shut the threads down.

        With ``drain=True`` (default) every already-accepted request is
        still executed; with ``drain=False`` pending requests fail with
        :class:`ServerClosed`.  Returns True iff all threads exited before
        *timeout* seconds.
        """
        if not self._started:
            return True
        self._drain_on_stop = drain
        self._stop_event.set()
        self.queue.close()
        ok = True
        if self._batcher_thread is not None:
            ok &= join_threads([self._batcher_thread], timeout)
        ok &= self.pool.shutdown(timeout, drain=drain)
        return ok

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client API --------------------------------------------------------

    def submit(
        self, frame: FeatureMap, timeout_s: Optional[float] = None
    ) -> RequestFuture:
        """Admit one frame; returns its future or raises Overloaded/BadFrame.

        *timeout_s* is a per-request execution deadline: if the request is
        still waiting (queue or batcher) when it expires, it fails with
        :class:`RequestTimeout` instead of occupying a batch slot.
        """
        if not self.running:
            raise ServerClosed("the server is not running")
        try:
            check_frame(frame, self.vm.program.input_shape)
            request = self.queue.submit(frame, timeout_s)
        except BadFrame:
            self.metrics.observe_bad_frame()
            raise
        except Overloaded:
            self.metrics.observe_shed()
            raise
        self.metrics.observe_admission(self.queue.depth)
        return request.future

    def infer(
        self, frame: FeatureMap, timeout_s: Optional[float] = None
    ) -> FeatureMap:
        """Synchronous in-process client: submit one frame, wait, return."""
        return self.submit(frame).result(timeout_s)

    def infer_many(
        self, frames: Sequence[FeatureMap], timeout_s: Optional[float] = None
    ) -> List[FeatureMap]:
        """Submit *frames* concurrently and return outputs in input order."""
        futures = [self.submit(frame) for frame in frames]
        return [future.result(timeout_s) for future in futures]

    # -- internals ---------------------------------------------------------

    def _batcher_loop(self) -> None:
        wakeups = self.queue.wakeups
        while not self._stop_event.is_set():
            deadline = self.batcher.next_deadline()
            if deadline is None:
                timeout = _IDLE_WAIT_S
            else:
                timeout = max(0.0, deadline - self.clock())
            request = self.queue.pop(timeout, wakeups)
            # The wake-up generation is read *before* the idleness check it
            # guards: a worker that goes idle after the check has already
            # moved the queue past this value, so the next pop returns at
            # once instead of sleeping out the deadline.
            wakeups = self.queue.wakeups
            depth = self.queue.depth
            # Idle once the batch holds its share of the burst already
            # queued, split over the free workers: those requests cost no
            # waiting to coalesce, and every free worker gets a share.
            pending = self.batcher.pending + (request is not None)
            idle = fair_share(
                pending, depth, self.pool.free(self.vm.stages[0].resource)
            )
            now = self.clock()
            if request is not None:
                flush = self.batcher.add(request, now, idle)
            else:
                flush = self.batcher.poll(now, idle)
            if flush is not None:
                self._dispatch(flush)
            self.metrics.observe_queue_depth(depth)
        # Shutdown: drain what was accepted (or fail it fast).
        leftovers = self.queue.drain()
        if self._drain_on_stop:
            for request in leftovers:
                flush = self.batcher.add(request, self.clock())
                if flush is not None:
                    self._dispatch(flush)
            final = self.batcher.flush()
            if final is not None:
                self._dispatch(final)
        else:
            closed = ServerClosed("server stopped before execution")
            for request in leftovers + [
                r for f in [self.batcher.flush()] if f for r in f.requests
            ]:
                request.future.set_exception(closed)
        self.metrics.observe_queue_depth(0)

    def _dispatch(self, flush: Flush) -> None:
        now = self.clock()
        live = []
        for request in flush.requests:
            if request.expired(now):
                request.future.set_exception(
                    RequestTimeout(
                        f"request #{request.id} expired after "
                        f"{now - request.submitted_at:.4f}s in queue"
                    )
                )
                self.metrics.observe_timeout()
            elif not request.future.claim():
                self.metrics.observe_cancellation()
            else:
                live.append(request)
        if not live:
            return
        self.metrics.observe_batch(len(live), flush.cause)
        job = BatchJob(live, resource=self.vm.stages[0].resource, cause=flush.cause)
        try:
            self.pool.submit(job)
        except ServerClosed as exc:
            job.fail(exc)

    def _execute(self, job: BatchJob) -> Optional[str]:
        """Run *job*'s next stage; returns the resource of the one after.

        The FABRIC stage runs under :meth:`_run_resilient`; the CPU
        stages around it run once per batch, whatever the fabric does.
        """
        state = job.state
        try:
            if state is None:
                state = job.state = self.vm.start(to_feature_batch(job.requests))
            if self.vm.stages[state.stage].resource == FABRIC:
                job.degraded |= self._run_resilient(state)
            else:
                self.vm.run_stage(state)
        except Exception:
            for _ in job.requests:
                self.metrics.observe_failure()
            raise  # the pool routes the exception to the request futures
        if not state.done:
            return self.vm.stages[state.stage].resource
        now = self.clock()
        for request, frame in zip(job.requests, state.output.frames()):
            request.future.degraded = job.degraded
            request.future.set_result(frame)
            self.metrics.observe_completion(now - request.submitted_at, now)
        return None

    def _run_resilient(self, state) -> bool:
        """Run the FABRIC stage of *state* under retry + breaker + watchdog.

        Fabric failures (:class:`~repro.faults.FabricError` only — anything
        else is a programming error and propagates) are retried with
        bounded exponential backoff; once the retry budget is spent, or
        whenever the breaker routes away from the fabric, the stage runs on
        the bit-identical CPU reference path in visible degraded mode.  A
        failed attempt leaves the run state untouched, so a retry re-runs
        the offload alone, never the CPU stages around it, and the batch
        *always* returns the ``forward_batch`` answer; the only question
        is which silicon computed it.  Returns True when it degraded.
        """
        breaker = self.pool.breaker
        watchdog = self.pool.watchdog
        fabric_mode = "scrub" if self.config.scrub_fabric else "fabric"
        batch = state.fmb.batch
        attempts = 0
        while True:
            decision = breaker.acquire()
            probe = decision == USE_PROBE
            if decision == USE_REFERENCE:
                break
            self.metrics.observe_fabric_dispatch()
            try:
                watchdog.call(
                    lambda: self.vm.run_stage(
                        state,
                        offload_guard=self.fabric_gate,
                        fabric_mode=fabric_mode,
                    )
                )
            except FabricError as exc:
                breaker.record_failure(probe=probe)
                self.metrics.observe_fabric_failure(type(exc).__name__)
                attempts += 1
                if attempts > self.config.max_retries:
                    break
                self.metrics.observe_retry()
                self.sleep(
                    min(
                        self.config.retry_backoff_s * (2 ** (attempts - 1)),
                        self.config.retry_backoff_max_s,
                    )
                )
            else:
                breaker.record_success(probe=probe)
                return False
        self.vm.run_stage(state, fabric_mode="reference")
        self.metrics.observe_degraded(batch)
        return True


__all__ = ["ServeConfig", "InferenceServer", "_IDLE_WAIT_S"]
