"""``repro.faults`` — seeded, deterministic fault injection for serving.

The paper's deployment couples a single shared FINN fabric engine with CPU
(NEON) execution paths for the *same* quantized layers — which is exactly
what makes graceful degradation well-defined: when the fabric misbehaves,
the bit-identical CPU reference path can take over.  This module is the
*fault half* of that story: a :class:`FaultPlan` describes which
invocations of which production **sites** fail and how, an installed
:class:`FaultInjector` makes the production hooks fire those faults
deterministically, and a :attr:`FaultInjector.transcript` records every
event so two runs with the same plan produce the same transcript.

Production seams (no-ops unless an injector is installed)::

    faults.call(SITE, fn)   # fabric sites: may raise / hang / corrupt fn()
    faults.stall(SITE)      # queue site: True = behave as a timed-out wait
    faults.fire(SITE)       # worker site: may raise WorkerDeath

Sites live in :data:`SITES`; the hooks are wired into
:mod:`repro.isa.vm` (``fabric.step``),
:mod:`repro.finn.offload_backend` (``fabric.backend``),
:mod:`repro.serve.queue` (``serve.queue.pop``) and
:mod:`repro.serve.workers` (``serve.worker``).  Tests and the
``repro serve-bench --faults`` scenario install plans; production code
never imports anything *from* the serving stack, so the dependency points
one way only.

Determinism: every decision is a pure function of (plan, per-site
invocation counter).  Explicit ``at`` indices need no RNG at all; ``rate``
specs draw from a generator seeded from ``(plan.seed, spec index)``, and
the per-site counters are serialized under one lock — so the n-th fabric
invocation fires the same fault on every run, regardless of thread
scheduling elsewhere.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# -- sites: where production code exposes an injection seam -------------------

#: The VM's FABRIC-tagged instruction (repro.isa.vm.run_fabric_step).
FABRIC_STEP = "fabric.step"
#: The FINN offload backend's accelerator invocation (repro.finn.offload_backend).
FABRIC_BACKEND = "fabric.backend"
#: The bounded admission queue's consumer wait (repro.serve.queue).
QUEUE_POP = "serve.queue.pop"
#: The heterogeneous worker pool's job loop (repro.serve.workers).
WORKER = "serve.worker"
#: The shard tier's per-request chaos tick: kill a shard process
#: (repro.serve.router polls this once per accepted request).
SHARD_KILL = "shard.kill"
#: The shard tier's per-request chaos tick: make one replica slow.
SHARD_SLOW = "shard.slow"
#: The router's per-request chaos tick: split its view of the fleet.
ROUTER_SPLIT = "router.split"

#: Every site a :class:`FaultSpec` may target.
SITES = (
    FABRIC_STEP,
    FABRIC_BACKEND,
    QUEUE_POP,
    WORKER,
    SHARD_KILL,
    SHARD_SLOW,
    ROUTER_SPLIT,
)

#: The fleet-scale sites the shard tier polls (one tick per request).
FLEET_SITES = (SHARD_KILL, SHARD_SLOW, ROUTER_SPLIT)

# -- kinds: what goes wrong ---------------------------------------------------

#: The fabric engine raises mid-execution.
FABRIC_RAISE = "fabric-raise"
#: The fabric engine stalls past any reasonable budget (watchdog territory).
FABRIC_HANG = "fabric-hang"
#: The fabric engine completes but returns silently corrupted output.
FABRIC_CORRUPT = "fabric-corrupt"
#: The request queue's consumer wait returns empty (a stalled tick).
QUEUE_STALL = "queue-stall"
#: A worker thread dies between jobs.
WORKER_DEATH = "worker-death"
#: A shard process is killed (SIGKILL — a crashed replica).
SHARD_KILL_KIND = "shard-kill"
#: A shard replica turns slow: each of its next requests stalls.
SHARD_SLOW_KIND = "shard-slow"
#: The router's fleet view splits: part of the fleet looks unreachable.
ROUTER_SPLIT_KIND = "router-split"

#: Every fault kind, with its default site.
DEFAULT_SITE = {
    FABRIC_RAISE: FABRIC_STEP,
    FABRIC_HANG: FABRIC_STEP,
    FABRIC_CORRUPT: FABRIC_STEP,
    QUEUE_STALL: QUEUE_POP,
    WORKER_DEATH: WORKER,
    SHARD_KILL_KIND: SHARD_KILL,
    SHARD_SLOW_KIND: SHARD_SLOW,
    ROUTER_SPLIT_KIND: ROUTER_SPLIT,
}
KINDS = tuple(DEFAULT_SITE)

#: Kinds a fabric site (``fabric.step`` / ``fabric.backend``) can fire.
FABRIC_KINDS = (FABRIC_RAISE, FABRIC_HANG, FABRIC_CORRUPT)

#: The fleet sites accept exactly one kind each (the tick semantics are
#: the router's, not the injector's — see repro.serve.router).
FLEET_SITE_KIND = {
    SHARD_KILL: SHARD_KILL_KIND,
    SHARD_SLOW: SHARD_SLOW_KIND,
    ROUTER_SPLIT: ROUTER_SPLIT_KIND,
}


# -- exceptions ---------------------------------------------------------------


class FabricError(RuntimeError):
    """Base of every fabric-side failure the serving layer may retry/degrade on.

    The retry/circuit-breaker machinery in :mod:`repro.serve` catches
    exactly this type: anything else (shape mismatches, programming
    errors) keeps propagating to the request futures untouched.
    """


class FabricFault(FabricError):
    """The fabric engine raised mid-execution (the ``fabric-raise`` kind)."""


class FabricHang(FabricError):
    """The fabric engine stalled for ``hang_s`` seconds (injected).

    A real wedged engine never returns; in this in-process simulation the
    hang manifests at the watchdog seam: the injector advances the
    injected clock by ``hang_s`` and raises this, and the serving
    watchdog converts it into :class:`FabricTimeout` — identically on
    every run.
    """

    def __init__(self, message: str, hang_s: float = 0.0) -> None:
        super().__init__(message)
        self.hang_s = hang_s


class FabricTimeout(FabricError):
    """The fabric watchdog gave up waiting on a hung engine."""


class FabricCorruption(FabricError):
    """Fabric output failed the CPU-reference scrub (silent-corruption check)."""


class WorkerDeath(RuntimeError):
    """A worker thread was killed between jobs (the ``worker-death`` kind)."""


# -- the plan -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: fire *kind* at *site* on selected invocations.

    Exactly one selector is used: ``at`` (explicit 0-based per-site
    invocation indices — fully deterministic, no RNG) or ``rate`` (seeded
    Bernoulli per invocation, capped by ``limit`` fires).  ``hang_s`` is
    how long a ``fabric-hang`` stalls the injected clock — and, for the
    ``shard-slow`` kind, how long the slowed replica stalls each affected
    request.  ``span`` scopes the fleet kinds: how many requests a
    ``shard-slow`` replica stays slow for, and how many chaos ticks a
    ``router-split`` partition lasts before it heals.
    """

    kind: str
    site: Optional[str] = None
    at: Tuple[int, ...] = ()
    rate: float = 0.0
    limit: Optional[int] = None
    hang_s: float = 10.0
    span: int = 8

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {KINDS})")
        site = self.site if self.site is not None else DEFAULT_SITE[self.kind]
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (known: {SITES})")
        if site in (FABRIC_STEP, FABRIC_BACKEND) and self.kind not in FABRIC_KINDS:
            raise ValueError(f"kind {self.kind!r} cannot target site {site!r}")
        if site in FLEET_SITE_KIND and self.kind != FLEET_SITE_KIND[site]:
            raise ValueError(f"kind {self.kind!r} cannot target site {site!r}")
        if self.kind in FLEET_SITE_KIND.values() and site not in FLEET_SITE_KIND:
            raise ValueError(f"fleet kind {self.kind!r} cannot target site {site!r}")
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        if any(i < 0 for i in self.at):
            raise ValueError("'at' indices are 0-based invocation counts (>= 0)")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.at and self.rate:
            raise ValueError("give either explicit 'at' indices or a 'rate', not both")
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")
        if self.span < 1:
            raise ValueError("span must be positive")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as recorded in the injector's transcript."""

    site: str
    kind: str
    #: 0-based index of the invocation (per site) that fired.
    invocation: int
    detail: str = ""

    def as_tuple(self) -> Tuple[str, str, int, str]:
        """The transcript row — what determinism tests compare across runs."""
        return (self.site, self.kind, self.invocation, self.detail)


class FaultPlan:
    """A seeded, deterministic set of :class:`FaultSpec` rules.

    The plan is immutable data; :func:`install` turns it into a live
    :class:`FaultInjector`.  :meth:`parse` accepts the CLI mini-language
    used by ``repro serve-bench --faults``::

        fabric-raise@0,1,2          # fire on fabric invocations 0, 1 and 2
        fabric-corrupt%0.25         # seeded 25% of invocations
        fabric-hang@3;worker-death@1    # ';' separates independent specs
        fabric-raise/fabric.backend@0   # '/' overrides the default site
        shard-kill@100;router-split@2000    # fleet kinds use the same syntax
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``kind[/site][@i,j|%rate]`` mini-language."""
        specs: List[FaultSpec] = []
        for raw in text.split(";"):
            token = raw.strip()
            if not token:
                continue
            at: Tuple[int, ...] = ()
            rate = 0.0
            if "@" in token:
                token, _, indices = token.partition("@")
                try:
                    at = tuple(int(i) for i in indices.split(",") if i.strip())
                except ValueError:
                    raise ValueError(
                        f"bad '@' indices in fault spec {raw!r}: expected "
                        "comma-separated integers"
                    ) from None
                if not at:
                    raise ValueError(f"fault spec {raw!r} has an empty '@' index list")
            elif "%" in token:
                token, _, fraction = token.partition("%")
                try:
                    rate = float(fraction)
                except ValueError:
                    raise ValueError(
                        f"bad '%' rate in fault spec {raw!r}: expected a float"
                    ) from None
            else:
                at = (0,)  # bare kind: fire once, on the first invocation
            kind, _, site = token.partition("/")
            specs.append(
                FaultSpec(kind=kind.strip(), site=site.strip() or None, at=at, rate=rate)
            )
        if not specs:
            raise ValueError(f"fault spec {text!r} contains no fault rules")
        return cls(specs, seed=seed)

    def describe(self) -> List[Dict]:
        """JSON-safe description of the plan (for bench reports)."""
        return [
            {
                "kind": spec.kind,
                "site": spec.site,
                "at": list(spec.at),
                "rate": spec.rate,
                "hang_s": spec.hang_s,
                "span": spec.span,
            }
            for spec in self.specs
        ]


# -- the live injector --------------------------------------------------------


class FaultInjector:
    """Runtime state of one installed :class:`FaultPlan`.

    Thread-safe; all decisions and the transcript are serialized under one
    lock so per-site invocation counters are race-free.  *clock* is the
    injected clock hang faults advance (anything with an ``advance``
    method, e.g. :class:`repro.util.clock.VirtualClock`); without one,
    hangs still raise but no time passes — the watchdog conversion is
    what matters.
    """

    def __init__(self, plan: FaultPlan, clock=None) -> None:
        self.plan = plan
        self.clock = clock
        self._lock = threading.Lock()
        self._invocations: Dict[str, int] = {site: 0 for site in SITES}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(plan.specs))}
        self._rngs = [
            np.random.default_rng((plan.seed, index))
            for index in range(len(plan.specs))
        ]
        self.transcript: List[FaultEvent] = []

    # -- decision core -----------------------------------------------------

    def _decide(self, site: str) -> Optional[Tuple[FaultSpec, FaultEvent]]:
        """Advance *site*'s counter; return the spec that fires, if any."""
        with self._lock:
            invocation = self._invocations[site]
            self._invocations[site] = invocation + 1
            for index, spec in enumerate(self.plan.specs):
                if spec.site != site:
                    continue
                if spec.at:
                    fire = invocation in spec.at
                else:
                    if spec.limit is not None and self._fired[index] >= spec.limit:
                        continue
                    fire = bool(spec.rate) and (
                        self._rngs[index].random() < spec.rate
                    )
                if fire:
                    self._fired[index] += 1
                    event = FaultEvent(site, spec.kind, invocation)
                    self.transcript.append(event)
                    return spec, event
            return None

    def invocations(self, site: str) -> int:
        """How many times *site* has been reached so far."""
        with self._lock:
            return self._invocations[site]

    def events(self) -> List[Tuple[str, str, int, str]]:
        """The transcript as plain tuples (deterministic across runs)."""
        with self._lock:
            return [event.as_tuple() for event in self.transcript]

    # -- seam entry points -------------------------------------------------

    def call(self, site: str, fn: Callable):
        """Run *fn* through a fabric seam: may raise, hang, or corrupt."""
        decision = self._decide(site)
        if decision is None:
            return fn()
        spec, event = decision
        if spec.kind == FABRIC_RAISE:
            raise FabricFault(
                f"injected fabric fault at {site} invocation {event.invocation}"
            )
        if spec.kind == FABRIC_HANG:
            if self.clock is not None and hasattr(self.clock, "advance"):
                self.clock.advance(spec.hang_s)
            raise FabricHang(
                f"injected fabric hang ({spec.hang_s:g}s) at {site} "
                f"invocation {event.invocation}",
                hang_s=spec.hang_s,
            )
        # FABRIC_CORRUPT: compute, then deterministically perturb the output.
        return self._corrupt(fn(), event)

    def stall(self, site: str) -> bool:
        """Queue seam: True when this wait should behave as a stalled tick."""
        decision = self._decide(site)
        return decision is not None and decision[0].kind == QUEUE_STALL

    def fire(self, site: str) -> None:
        """Worker seam: raise :class:`WorkerDeath` when the plan says so."""
        decision = self._decide(site)
        if decision is not None and decision[0].kind == WORKER_DEATH:
            raise WorkerDeath(
                f"injected worker death at {site} invocation "
                f"{decision[1].invocation}"
            )

    def poll(self, site: str) -> Optional[Tuple[FaultSpec, FaultEvent]]:
        """Fleet seam: the fired (spec, event), or None.

        Unlike :meth:`call`/:meth:`fire` the injector performs no action
        itself — the shard tier's router owns the semantics (which shard
        to kill, how long a split lasts) and derives them deterministically
        from the event's invocation index.
        """
        return self._decide(site)

    # -- internals ---------------------------------------------------------

    def _corrupt(self, result, event: FaultEvent):
        """Flip one element of *result* (anything with ``.data``), seeded.

        The perturbed position is a pure function of (seed, invocation), so
        the corruption — like every other fault — replays identically.
        """
        data = np.array(result.data, copy=True)
        if data.size == 0:
            return result
        rng = np.random.default_rng((self.plan.seed, event.invocation, 0xC0))
        position = int(rng.integers(data.size))
        flat = data.reshape(-1)
        flat[position] += np.asarray(1, dtype=data.dtype)
        return type(result)(data, scale=result.scale)


# -- module-level seams -------------------------------------------------------

_active_lock = threading.Lock()
_active: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, or None (the production default)."""
    with _active_lock:
        return _active


@contextmanager
def install(plan: FaultPlan, clock=None):
    """Install *plan* for the duration of the ``with`` block.

    Yields the live :class:`FaultInjector` (whose ``transcript`` the
    caller inspects afterwards).  Nesting is refused: overlapping plans
    would make transcripts meaningless.
    """
    global _active
    injector = FaultInjector(plan, clock=clock)
    with _active_lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already installed")
        _active = injector
    try:
        yield injector
    finally:
        with _active_lock:
            _active = None


def call(site: str, fn: Callable):
    """Production fabric seam: ``fn()`` unless the active plan interferes."""
    injector = active()
    if injector is None:
        return fn()
    return injector.call(site, fn)


def stall(site: str) -> bool:
    """Production queue seam: True when the active plan stalls this wait."""
    injector = active()
    return injector is not None and injector.stall(site)


def fire(site: str) -> None:
    """Production worker seam: may raise :class:`WorkerDeath`."""
    injector = active()
    if injector is not None:
        injector.fire(site)


def poll(site: str) -> Optional[Tuple[FaultSpec, FaultEvent]]:
    """Production fleet seam: the fired (spec, event) of this tick, or None."""
    injector = active()
    if injector is None:
        return None
    return injector.poll(site)


__all__ = [
    "FABRIC_STEP",
    "FABRIC_BACKEND",
    "QUEUE_POP",
    "WORKER",
    "SHARD_KILL",
    "SHARD_SLOW",
    "ROUTER_SPLIT",
    "SITES",
    "FLEET_SITES",
    "FABRIC_RAISE",
    "FABRIC_HANG",
    "FABRIC_CORRUPT",
    "QUEUE_STALL",
    "WORKER_DEATH",
    "SHARD_KILL_KIND",
    "SHARD_SLOW_KIND",
    "ROUTER_SPLIT_KIND",
    "KINDS",
    "FABRIC_KINDS",
    "FLEET_SITE_KIND",
    "FabricError",
    "FabricFault",
    "FabricHang",
    "FabricTimeout",
    "FabricCorruption",
    "WorkerDeath",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "active",
    "install",
    "call",
    "stall",
    "fire",
    "poll",
]
