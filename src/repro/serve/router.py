"""The shard tier's front door: consistent hashing, health, dispatch.

Three layers, separable on purpose:

* :class:`ConsistentHashRing` — a classic sha256 ring with virtual
  nodes.  Pure data structure, no liveness semantics; the property the
  model tests pin down is *minimal disruption*: when a member joins,
  keys move only **to** the new member; when one leaves, keys move only
  **from** it.
* :class:`Router` — the routing policy as a process-free state machine:
  ring placement first, least-loaded fallback when the preferred shard
  is dead, hidden by a split, or at its depth cap, plus the in-flight
  assignment table that makes *exactly-once completion* checkable.  The
  randomized model test drives this class directly — no processes, no
  clocks.
* :class:`ShardedServer` — the front door over N >= 0 engines: owns the
  :class:`~repro.serve.shard.Shard` processes (each running an
  :class:`~repro.serve.server.InferenceServer`), the engine in this
  process that serves when there is no shard, the admission controller
  and result cache from :mod:`repro.serve.admission`, a collector
  thread multiplexing every shard pipe (plus process sentinels, so a
  SIGKILL'd shard is noticed immediately), and a heartbeat thread that
  detects *hung* shards — alive processes that stopped answering pings —
  and treats them as dead.

Chaos determinism: the fleet fault sites (``shard.kill``,
``shard.slow``, ``router.split``) are polled **once per submitted
request**, in fixed order, before admission — so the fault transcript is
a pure function of the request sequence, independent of thread timing,
and two runs of the same bench produce identical transcripts.  The
victim of a kill/slow tick and the hidden half of a split are derived
from the event's invocation index over the sorted live membership, so
the *actions* replay identically too.
"""

from __future__ import annotations

import hashlib
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.core.tensor import BadFrame, FeatureMap, check_frame
from repro.serve.admission import (
    AdmissionController,
    QuotaExceeded,
    ResultCache,
    frame_digest,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import Overloaded, RequestFuture, ServerClosed
from repro.serve.resilience import HeartbeatMonitor
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.shard import Shard


def _hash_point(token: str) -> int:
    """A stable 64-bit ring coordinate (sha256-derived, platform-free)."""
    return int.from_bytes(
        hashlib.sha256(token.encode()).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Consistent hashing with virtual nodes.

    Each member occupies ``vnodes`` pseudo-random points on a 2^64 ring;
    a key maps to the member owning the first point at or after the
    key's own point.  With V vnodes per member the expected fraction of
    keys that move on a membership change is 1/N — the rebalance bound
    the router model test asserts.
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._members: Set[str] = set()

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        for vnode in range(self.vnodes):
            self._points.append((_hash_point(f"{member}#{vnode}"), member))
        self._points.sort()

    def remove(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        self._points = [p for p in self._points if p[1] != member]

    @property
    def members(self) -> Set[str]:
        return set(self._members)

    def lookup(self, key: str) -> Optional[str]:
        """The member owning *key*, or None on an empty ring."""
        if not self._points:
            return None
        point = _hash_point(key)
        index = bisect_right(self._points, (point, ""))
        if index >= len(self._points):
            index = 0  # wrap around the ring
        return self._points[index][1]

    def __len__(self) -> int:
        return len(self._members)


class _ShardView:
    """The router's view of one shard: liveness, visibility, load."""

    __slots__ = ("name", "alive", "visible", "load")

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True
        self.visible = True
        self.load = 0


class Router:
    """Routing policy: ring placement with least-loaded fallback.

    Thread-safe and process-free.  ``route(key)`` returns
    ``(shard_name, fallback)`` — *fallback* True when the ring's
    preferred owner was unusable (dead, split-hidden, or at the depth
    cap) and the least-loaded usable shard was chosen instead — or
    ``None`` when no shard is usable at all.  ``assign``/``complete``
    maintain the in-flight table; ``mark_dead`` removes a shard from
    the ring and hands back every request id still assigned to it so
    the caller can re-route them.
    """

    def __init__(
        self, shard_depth: Optional[int] = None, vnodes: int = 64
    ) -> None:
        if shard_depth is not None and shard_depth < 1:
            raise ValueError("shard_depth must be positive")
        self.shard_depth = shard_depth
        self._lock = threading.Lock()
        self._ring = ConsistentHashRing(vnodes)
        self._shards: Dict[str, _ShardView] = {}
        self._assignments: Dict[int, str] = {}
        self.fallback_routes = 0

    # -- membership --------------------------------------------------------

    def join(self, name: str) -> None:
        """A shard came up: it enters the ring and is routable at once."""
        with self._lock:
            view = self._shards.get(name)
            if view is None:
                self._shards[name] = _ShardView(name)
            else:
                view.alive = True
                view.visible = True
            self._ring.add(name)

    def leave(self, name: str) -> List[int]:
        """Graceful removal; returns request ids still assigned to it."""
        with self._lock:
            self._ring.remove(name)
            self._shards.pop(name, None)
            return self._take_assignments(name)

    def mark_dead(self, name: str) -> List[int]:
        """A shard died: off the ring, never a fallback target again.

        Returns the in-flight request ids that were assigned to it, in
        assignment order — the caller re-routes them.
        """
        with self._lock:
            view = self._shards.get(name)
            if view is not None:
                view.alive = False
                view.visible = False
            self._ring.remove(name)
            return self._take_assignments(name)

    def split(self, hidden: Sequence[str]) -> None:
        """A router-split: *hidden* shards look unreachable (but live)."""
        with self._lock:
            hidden_set = set(hidden)
            for view in self._shards.values():
                if view.alive:
                    view.visible = view.name not in hidden_set

    def heal(self) -> None:
        """The split heals: every live shard is visible again."""
        with self._lock:
            for view in self._shards.values():
                if view.alive:
                    view.visible = True

    # -- routing -----------------------------------------------------------

    def route(self, key: str) -> Optional[Tuple[str, bool]]:
        """Pick the shard for *key*; ``(name, fallback)`` or None."""
        with self._lock:
            preferred = self._ring.lookup(key)
            if preferred is not None and self._usable(preferred):
                return preferred, False
            candidates = [
                view
                for view in self._shards.values()
                if self._usable(view.name)
            ]
            if not candidates:
                return None
            best = min(candidates, key=lambda view: (view.load, view.name))
            self.fallback_routes += 1
            return best.name, True

    def _usable(self, name: str) -> bool:
        """Caller holds the lock: alive, visible, and under the cap."""
        view = self._shards.get(name)
        if view is None or not view.alive or not view.visible:
            return False
        return self.shard_depth is None or view.load < self.shard_depth

    def assign(self, name: str, rid: int) -> None:
        with self._lock:
            view = self._shards.get(name)
            if view is None or not view.alive:
                raise ValueError(f"cannot assign to dead shard {name!r}")
            view.load += 1
            self._assignments[rid] = name

    def complete(self, rid: int) -> Optional[str]:
        """A request resolved; returns the shard it was assigned to."""
        with self._lock:
            name = self._assignments.pop(rid, None)
            if name is not None:
                view = self._shards.get(name)
                if view is not None and view.load > 0:
                    view.load -= 1
            return name

    def _take_assignments(self, name: str) -> List[int]:
        """Caller holds the lock: pop and return *name*'s in-flight rids."""
        rids = [
            rid
            for rid, owner in self._assignments.items()
            if owner == name
        ]
        for rid in rids:
            del self._assignments[rid]
        view = self._shards.get(name)
        if view is not None:
            view.load = 0
        return rids

    # -- introspection -----------------------------------------------------

    def in_flight(self) -> int:
        with self._lock:
            return len(self._assignments)

    def loads(self) -> Dict[str, int]:
        with self._lock:
            return {name: view.load for name, view in self._shards.items()}

    def alive_shards(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, view in self._shards.items() if view.alive
            )

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "shards": {
                    name: {
                        "alive": view.alive,
                        "visible": view.visible,
                        "load": view.load,
                    }
                    for name, view in sorted(self._shards.items())
                },
                "ring_members": sorted(self._ring.members),
                "in_flight": len(self._assignments),
                "fallback_routes": self.fallback_routes,
            }


#: Virtual nodes per shard on the tier's consistent-hash ring.
VNODES = 64

#: Per-shard startup handshake budget.
READY_TIMEOUT_S = 60.0


@dataclass
class ShardTierConfig(ServeConfig):
    """Knobs of one :class:`ShardedServer`: the front door plus its engines.

    The inherited :class:`~repro.serve.server.ServeConfig` fields
    configure every engine — each shard's, and the one in this process
    that serves when there are no shards (``shards=0``) or none is left.
    ``cpu_workers`` counts the tier's CPU workers: the shards share the
    host's cores, so they split them (at least one each) rather than
    each starting the full count.  ``warmup`` applies to the engine in
    this process only; a shard takes its first request cold.
    """

    #: Shard processes to start; 0 serves through one engine in this process.
    shards: int = 2
    #: Fleet-wide dispatched-but-unanswered cap (admission control); None
    #: means ``max_queue_depth``.  Never above it, so an engine behind the
    #: front door cannot shed a request the front door admitted.
    max_in_flight: Optional[int] = None
    #: Default per-tenant sustained quota in requests/s (None = unmetered).
    quota_rps: Optional[float] = None
    #: Default per-tenant burst capacity (token-bucket size).
    quota_burst: float = 32.0
    #: Per-tenant overrides: tenant -> (rate, burst).
    tenant_quotas: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: LRU result-cache entries keyed by input digest (0 disables).
    result_cache: int = 1024
    #: Coalesce duplicate in-flight digests onto one dispatch.
    coalesce: bool = True
    #: Heartbeat ping interval (real seconds; the monitor thread's period).
    heartbeat_interval_s: float = 0.2
    #: No pong for this long -> the shard is hung -> treated as dead.
    heartbeat_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.max_in_flight is None:
            self.max_in_flight = self.max_queue_depth
        if self.max_in_flight > self.max_queue_depth:
            raise ValueError("max_in_flight cannot exceed max_queue_depth")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_interval_s >= self.heartbeat_timeout_s:
            # The monitor checks right after each round of pings, when the
            # last pong is a full interval old: every shard would expire.
            raise ValueError("heartbeat_interval_s must be below heartbeat_timeout_s")


class _Pending:
    """One dispatched request: frame, future, and coalesced followers."""

    __slots__ = (
        "rid",
        "digest",
        "frame",
        "future",
        "submitted_at",
        "followers",
    )

    def __init__(
        self, rid: int, digest: str, frame: FeatureMap, submitted_at: float
    ) -> None:
        self.rid = rid
        self.digest = digest
        self.frame = frame
        self.future = RequestFuture()
        self.submitted_at = submitted_at
        self.followers: List[RequestFuture] = []


#: Metrics sections only an engine fills (``snapshot()`` reads them off
#: the engine in this process once it exists).
_ENGINE_SECTIONS = (
    "batch_histogram", "flush_causes", "fabric_dispatches", "resilience",
    "plan_steps",
)


class ShardedServer:
    """One front door over N >= 0 engines.

    Request path: chaos tick → admission (quota, then fleet in-flight
    cap) → result cache → coalescing → ring routing → pipe dispatch to a
    shard process running an :class:`~repro.serve.server.InferenceServer`
    — or, with no shard configured or alive, to one in this process.
    A collector thread multiplexes every shard pipe and the process
    sentinels; shard death (SIGKILL, crash, or heartbeat timeout) marks
    the shard dead in the router and re-routes its in-flight requests.
    Results on the non-degraded path are bit-identical to
    ``Network.forward_batch``: every engine runs the same validated plan
    over the same weights.
    """

    def __init__(
        self,
        network,
        config: Optional[ShardTierConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.network = network
        self.config = config or ShardTierConfig()
        self.clock = clock
        self.metrics = registry or MetricsRegistry()
        self.admission = AdmissionController(
            self.config.max_in_flight,
            quota_rps=self.config.quota_rps,
            quota_burst=self.config.quota_burst,
            tenant_quotas=self.config.tenant_quotas,
        )
        self.result_cache = ResultCache(self.config.result_cache)
        self.router = Router(vnodes=VNODES)
        self.monitor = HeartbeatMonitor(self.config.heartbeat_timeout_s)
        self._lock = threading.Lock()
        self._chaos_lock = threading.Lock()
        self._shards: Dict[str, Shard] = {}
        self._pending: Dict[int, _Pending] = {}
        self._by_digest: Dict[str, _Pending] = {}
        self._dead_handled: Set[str] = set()
        self._next_rid = 0
        self._split_ticks = 0
        self._engine: Optional[InferenceServer] = None
        self._bound: Optional[tuple] = None  # start()'s build_vm: (VM, hit)
        self._started = False
        self._stopping = False
        self._stop_event = threading.Event()
        self._collector_thread: Optional[threading.Thread] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardedServer":
        """Build the tier's VM, fork the shards with it, start the daemons."""
        if self._started:
            raise RuntimeError("sharded server already started")
        cfg = self.config
        # One digest, and a compile only on a plan-cache miss: every engine
        # serves on this VM (the shards inherit it by fork).
        from repro.isa import build_vm

        began = time.perf_counter()
        self._bound = build_vm(
            self.network,
            cfg.plan_cache_dir,
            name=cfg.plan_cache_name,
            opt_level=cfg.plan_opt_level,
            validate=cfg.plan_validate,
        )
        self.metrics.observe_cold_start(
            (time.perf_counter() - began) * 1e3, self._bound[1]
        )
        # Fork every shard before awaiting any: their engines come up side
        # by side, and a failed start leaves them all in _shards for stop().
        # Each shard's engine: its share of the CPU workers and no warm-up
        # frame (the shards' bring-up is the tier's start; a shard's first
        # request warms it anyway).
        workers = max(1, cfg.cpu_workers // max(1, cfg.shards))
        per_shard = replace(cfg, cpu_workers=workers, warmup=False)
        for index in range(cfg.shards):
            shard = Shard(index, self.network, per_shard).launch(self._bound)
            self._shards[shard.name] = shard
        for shard in self._shards.values():
            shard.wait_ready(READY_TIMEOUT_S)
            self.router.join(shard.name)
            self.monitor.beat(shard.name, self.clock())
            self.metrics.observe_shard_start(
                shard.name, shard.cold_start_ms, shard.plan_cache_hit
            )
        if not cfg.shards:
            self._local()
        self.metrics.mark_started(self.clock())
        self._started = True
        self._collector_thread = threading.Thread(
            target=self._collector_loop, name="shard-collector", daemon=True
        )
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="shard-heartbeat", daemon=True
        )
        self._collector_thread.start()
        self._heartbeat_thread.start()
        return self

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Drain in-flight work, stop the shards, join the daemons."""
        with self._lock:
            self._stopping = True
        if drain:
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(0.002)
        # Daemons first: a graceful shutdown must not be mistaken for
        # shard deaths by the collector's sentinel watch.
        self._stop_event.set()
        for thread in (self._collector_thread, self._heartbeat_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        for shard in self._shards.values():
            if shard.alive:
                shard.request_stop()
        for shard in self._shards.values():
            if not shard.join(1.0):
                shard.kill()
                shard.join(1.0)
        if self._engine is not None:
            self._engine.stop(timeout=timeout_s, drain=drain)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._by_digest.clear()
        for pending in leftovers:
            error = ServerClosed("sharded server stopped")
            pending.future.set_exception(error)
            for follower in pending.followers:
                follower.set_exception(error)

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the request path --------------------------------------------------

    def submit(self, frame: FeatureMap, tenant: str = "default") -> RequestFuture:
        """Admit one frame; returns the future its result resolves.

        Raises :class:`~repro.serve.admission.QuotaExceeded` when the
        tenant's token bucket is dry, plain :class:`~repro.serve.queue.
        Overloaded` at the fleet in-flight cap and :class:`~repro.core.
        tensor.BadFrame` for a frame the plan cannot take.
        """
        if self._stopping or not self._started:
            raise ServerClosed("sharded server is not accepting requests")
        now = self.clock()
        self._chaos_tick()
        try:
            self.admission.admit(tenant, now)
        except QuotaExceeded:
            self.metrics.observe_quota_rejection(tenant)
            raise
        except Overloaded:
            self.metrics.observe_shed()
            raise
        digest = frame_digest(frame)
        cached = self.result_cache.get(digest)
        if cached is not None:
            self.admission.release()
            future = RequestFuture()
            future.set_result(cached)
            self.metrics.observe_cache_hit()
            done = self.clock()
            self.metrics.observe_completion(done - now, done)
            return future
        try:  # a hit is a frame that passed: the digest covers dtype and shape
            check_frame(frame, self.network.input_shape)
        except BadFrame:
            self.admission.release()
            self.metrics.observe_bad_frame()
            raise
        with self._lock:
            primary = self._by_digest.get(digest) if self.config.coalesce else None
            if primary is not None:
                follower = RequestFuture()
                primary.followers.append(follower)
            else:
                pending = _Pending(self._next_rid, digest, frame, now)
                self._next_rid += 1
                self._pending[pending.rid] = pending
                self._by_digest[digest] = pending
        if primary is not None:
            self.admission.release()
            self.metrics.observe_coalesced()
            return follower
        self.metrics.observe_admission(self.admission.in_flight)
        self._dispatch(pending)
        return pending.future

    def infer(
        self,
        frame: FeatureMap,
        tenant: str = "default",
        timeout_s: Optional[float] = 60.0,
    ) -> FeatureMap:
        return self.submit(frame, tenant=tenant).result(timeout_s)

    def infer_many(
        self,
        frames: Sequence[FeatureMap],
        tenant: str = "default",
        timeout_s: Optional[float] = 60.0,
    ) -> List[FeatureMap]:
        """Closed-loop convenience: one frame at a time, in order."""
        return [self.infer(frame, tenant, timeout_s) for frame in frames]

    # -- chaos (fleet fault sites) -----------------------------------------

    def _chaos_tick(self) -> None:
        """One per-request poll of the fleet fault sites, in fixed order.

        All fault *decisions* come from the installed injector's per-site
        counters; the *semantics* (which shard dies, what a split hides)
        are derived here from the event's invocation index over the
        sorted live membership — deterministic on every run.
        """
        if faults.active() is None:
            return
        with self._chaos_lock:
            if self._split_ticks > 0:
                self._split_ticks -= 1
                if self._split_ticks == 0:
                    self.router.heal()
            kill = faults.poll(faults.SHARD_KILL)
            slow = faults.poll(faults.SHARD_SLOW)
            split = faults.poll(faults.ROUTER_SPLIT)
            if kill is not None:
                victim = self._victim(kill[1].invocation)
                if victim is not None:
                    # Recorded before the SIGKILL, so the collector can never
                    # claim this death first under another cause.
                    self._on_shard_death(victim, cause="chaos-kill")
            if slow is not None:
                spec, event = slow
                victim = self._victim(event.invocation)
                if victim is not None:
                    try:
                        victim.send_slow(spec.hang_s, spec.span)
                    except (OSError, ValueError, BrokenPipeError):
                        self._on_shard_death(victim, cause="send-failed")
                    else:
                        self.metrics.observe_shard_slow(victim.name)
            if split is not None:
                spec, event = split
                hidden = self._split_set(event.invocation)
                if hidden:
                    self.router.split(hidden)
                    self._split_ticks = spec.span
                    self.metrics.observe_router_split(hidden)

    def _victim(self, invocation: int) -> Optional[Shard]:
        """The chaos target: invocation-indexed over sorted live shards."""
        alive = [s for _, s in sorted(self._shards.items()) if s.alive]
        if not alive:
            return None
        return alive[invocation % len(alive)]

    def _split_set(self, invocation: int) -> List[str]:
        """Half the live fleet, rotated by the invocation index."""
        alive = sorted(name for name, s in self._shards.items() if s.alive)
        count = len(alive)
        if count < 2:
            return []
        hide = count // 2
        start = invocation % count
        return [alive[(start + offset) % count] for offset in range(hide)]

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, pending: _Pending, rerouted: bool = False) -> None:
        """Route and send one pending request (re-entered on reroute)."""
        while True:
            routed = self.router.route(pending.digest)
            if routed is None:
                self._serve_locally(pending, rerouted)
                return
            name, fallback = routed
            shard = self._shards[name]
            try:
                self.router.assign(name, pending.rid)
            except ValueError:
                continue  # shard died between route() and assign(); re-route
            try:
                shard.send_request(pending.rid, pending.frame)
            except (OSError, ValueError, BrokenPipeError):
                self.router.complete(pending.rid)
                self._on_shard_death(shard, cause="send-failed")
                continue
            self.metrics.observe_shard_dispatch(name)
            if fallback:
                self.metrics.observe_fallback_route()
            if rerouted:
                self.metrics.observe_reroute()
            return

    def _serve_locally(self, pending: _Pending, rerouted: bool) -> None:
        """No shard configured or usable: the engine in this process serves."""
        try:
            future = self._local().submit(pending.frame)
        except Exception as exc:  # noqa: BLE001 — routed to the future
            self._fail(pending, exc)
            return
        if rerouted:
            self.metrics.observe_reroute()
        if self.config.shards:
            self.metrics.observe_inline_fallback()  # lost the whole fleet
        future.add_done_callback(lambda done: self._settle(pending, done))

    def _local(self) -> InferenceServer:
        """The engine in this process on the tier's VM, started on first use."""
        with self._lock:
            if self._engine is None:
                began = time.perf_counter()
                self._engine = InferenceServer(
                    self.network, self.config, clock=self.clock, bound=self._bound
                ).start()
                self.metrics.observe_shard_start(
                    "local", (time.perf_counter() - began) * 1e3, self._bound[1]
                )
            return self._engine

    # -- completion (collector thread + local engine) ----------------------

    def _settle(self, pending: _Pending, future: RequestFuture) -> None:
        error = future.exception()
        if error is None:
            self._finish(pending, future.result())
        else:
            self._fail(pending, error)

    def _finish(self, pending: _Pending, out: FeatureMap) -> None:
        with self._lock:
            live = self._pending.pop(pending.rid, None)
            if self._by_digest.get(pending.digest) is pending:
                del self._by_digest[pending.digest]
        if live is None:
            return  # duplicate completion (already resolved elsewhere)
        self.router.complete(pending.rid)
        self.result_cache.put(pending.digest, out)
        pending.future.set_result(out)
        for follower in pending.followers:
            follower.set_result(out.copy())
        self.admission.release()
        now = self.clock()
        self.metrics.observe_completion(now - pending.submitted_at, now)

    def _fail(self, pending: _Pending, error: BaseException) -> None:
        with self._lock:
            live = self._pending.pop(pending.rid, None)
            if self._by_digest.get(pending.digest) is pending:
                del self._by_digest[pending.digest]
        if live is None:
            return
        self.router.complete(pending.rid)
        pending.future.set_exception(error)
        for follower in pending.followers:
            follower.set_exception(error)
        self.admission.release()
        self.metrics.observe_failure()

    # -- shard death -------------------------------------------------------

    def _on_shard_death(self, shard: Shard, cause: str = "") -> None:
        """Idempotent: mark dead, re-route its in-flight work."""
        with self._lock:
            if shard.name in self._dead_handled:
                return
            self._dead_handled.add(shard.name)
        shard.kill()
        self.monitor.forget(shard.name)
        rids = self.router.mark_dead(shard.name)
        self.metrics.observe_shard_death(shard.name, cause)
        for rid in rids:
            with self._lock:
                pending = self._pending.get(rid)
            if pending is not None:
                self._dispatch(pending, rerouted=True)

    # -- daemon threads ----------------------------------------------------

    def _live_shards(self) -> List[Shard]:
        with self._lock:
            dead = set(self._dead_handled)
        return [
            shard
            for shard in self._shards.values()
            if shard.name not in dead and shard.conn is not None
        ]

    def _collector_loop(self) -> None:
        """Multiplex every shard pipe + process sentinel; resolve results."""
        from multiprocessing.connection import wait as mp_wait

        while not self._stop_event.is_set():
            conns: Dict = {}
            sentinels: Dict = {}
            for shard in self._live_shards():
                conns[shard.conn] = shard
                try:
                    sentinels[shard.sentinel] = shard
                except (OSError, ValueError):
                    pass
            if not conns:
                self._stop_event.wait(0.01)
                continue
            try:
                ready = mp_wait(
                    list(conns) + list(sentinels), timeout=0.05
                )
            except OSError:
                continue  # a pipe was torn down mid-wait; rebuild the set
            for obj in ready:
                shard = conns.get(obj)
                if shard is not None:
                    try:
                        message = obj.recv()
                    except (EOFError, OSError):
                        self._on_shard_death(shard, cause="pipe-closed")
                        continue
                    self._on_message(shard, message)
                else:
                    fallen = sentinels.get(obj)
                    if fallen is not None:
                        self._on_shard_death(fallen, cause="process-exit")

    def _on_message(self, shard: Shard, message: Tuple) -> None:
        tag = message[0]
        if tag == "res":
            rid, out = message[1], message[2]
            with self._lock:
                pending = self._pending.get(rid)
            if pending is not None:
                self._finish(pending, out)
        elif tag == "err":
            rid, detail = message[1], message[2]
            with self._lock:
                pending = self._pending.get(rid)
            if pending is not None:
                self._fail(pending, RuntimeError(f"shard error: {detail}"))
        elif tag == "pong":
            now = self.clock()
            self.monitor.beat(shard.name, now)
            self.metrics.observe_pong(shard.name)

    def _heartbeat_loop(self) -> None:
        """Ping live shards; a shard that stops ponging is hung -> dead."""
        while not self._stop_event.wait(self.config.heartbeat_interval_s):
            for shard in self._live_shards():
                if not shard.alive:
                    self._on_shard_death(shard, cause="process-exit")
                    continue
                try:
                    shard.send_ping()
                except (OSError, ValueError, BrokenPipeError):
                    self._on_shard_death(shard, cause="ping-failed")
                    continue
                self.metrics.observe_heartbeat()
            now = self.clock()
            for name in self.monitor.expired(now):
                hung = self._shards.get(name)
                if hung is not None:
                    self._on_shard_death(hung, cause="heartbeat-timeout")

    # -- introspection -----------------------------------------------------

    def live_shard_names(self) -> List[str]:
        return sorted(shard.name for shard in self._live_shards())

    def snapshot(self) -> Dict:
        """Everything observable, merged: metrics + tier sections."""
        data = self.metrics.snapshot(now=self.clock())
        if self._engine is not None:
            engine = self._engine.metrics.snapshot()
            data.update((key, engine[key]) for key in _ENGINE_SECTIONS)
        data["admission"] = self.admission.snapshot()
        data["result_cache"] = self.result_cache.snapshot()
        data["router"] = self.router.snapshot()
        return data


__all__ = [
    "ConsistentHashRing",
    "Router",
    "ShardTierConfig",
    "ShardedServer",
]
