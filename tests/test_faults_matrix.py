"""The fault-tolerance acceptance matrix (docs/TESTING.md).

For every fault kind in {fabric-raise, fabric-hang, fabric-corrupt,
worker-death} crossed with every breaker phase in {before-trip,
after-trip, half-open}, the :class:`InferenceServer` must

* return results **bit-identical** to ``Network.forward_batch`` on the
  same frames — degrading changes *where* a batch runs, never *what* it
  returns;
* emit exactly the expected retry / trip / probe / degraded / death
  metrics and breaker-transition trajectory;
* recover to the fabric path once the injected faults clear (the final
  breaker state is ``closed`` in every cell);
* be fully deterministic: two consecutive runs of a cell produce the
  same fault transcript and the same resilience snapshot.

Determinism is engineered, not hoped for: ``max_batch=1`` with
sequential ``infer`` calls pins batch composition and fault-site
invocation order, a start runs no frame (invocation 0 is the first
served frame), one shared :class:`VirtualClock` drives the server, the
breaker, the backoff sleeps and the injector, and the plans only target
the deterministic ``fabric.step`` / ``serve.worker`` sites (never the
timing-dependent ``serve.queue.pop``).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
from repro import faults
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.serve import InferenceServer, ServeConfig
from repro.util.clock import VirtualClock

KINDS = ("fabric-raise", "fabric-hang", "fabric-corrupt", "worker-death")
PHASES = ("before-trip", "after-trip", "half-open")

#: Exception-class name each fabric fault kind surfaces as in the
#: ``fabric_failures`` metric (the hang is reported by the watchdog, the
#: corruption by the scrub cross-check).
FAILURE_NAME = {
    "fabric-raise": "FabricFault",
    "fabric-hang": "FabricTimeout",
    "fabric-corrupt": "FabricCorruption",
}


@dataclass(frozen=True)
class Cell:
    """One matrix cell: the injected plan, the knobs, and what must happen."""

    plan: str
    threshold: int
    max_retries: int
    probe_after_s: float
    #: Frames served while the plan still has faults to deliver.
    fault_frames: int
    #: Frames served after the faults cleared (the recovery check).
    recovery_frames: int
    #: Virtual-clock advance between the two groups (None = no advance).
    advance_s: Optional[float] = None
    expect_trips: int = 0
    expect_probes: int = 0
    expect_retries: int = 0
    expect_degraded: int = 0
    expect_deaths: int = 0
    expect_dispatches: int = 0
    expect_events: int = 0
    expect_failures: Dict[str, int] = field(default_factory=dict)
    expect_transitions: Tuple[Tuple[str, str], ...] = ()

    @property
    def frames(self) -> int:
        return self.fault_frames + self.recovery_frames


def _cell(kind: str, phase: str) -> Cell:
    if kind == "worker-death":
        if phase == "before-trip":
            # The death is orthogonal to the breaker: the job is requeued
            # and the respawned worker serves it on the fabric, cleanly.
            return Cell(
                plan="worker-death@0",
                threshold=3, max_retries=2, probe_after_s=1000.0,
                fault_frames=1, recovery_frames=2,
                expect_deaths=1, expect_dispatches=3, expect_events=1,
            )
        if phase == "after-trip":
            # Fabric failures trip the breaker, then a worker dies while
            # the pool is serving degraded traffic.
            return Cell(
                plan="fabric-raise@0,1;worker-death@1",
                threshold=2, max_retries=1, probe_after_s=5.0,
                fault_frames=2, recovery_frames=3, advance_s=5.0,
                expect_trips=1, expect_probes=1, expect_retries=1,
                expect_degraded=2, expect_deaths=1,
                expect_dispatches=5, expect_events=3,
                expect_failures={"FabricFault": 2},
                expect_transitions=(
                    ("closed", "open"),
                    ("open", "half-open"),
                    ("half-open", "closed"),
                ),
            )
        # half-open: the worker serving the successful probe batch is the
        # respawn of one that just died.
        return Cell(
            plan="fabric-raise@0,1;worker-death@1",
            threshold=2, max_retries=1, probe_after_s=0.0,
            fault_frames=2, recovery_frames=1,
            expect_trips=1, expect_probes=1, expect_retries=1,
            expect_degraded=1, expect_deaths=1,
            expect_dispatches=4, expect_events=3,
            expect_failures={"FabricFault": 2},
            expect_transitions=(
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed"),
            ),
        )

    name = FAILURE_NAME[kind]
    if phase == "before-trip":
        # One fault, retried within the budget: the breaker never trips
        # and nothing is degraded.
        return Cell(
            plan=f"{kind}@0",
            threshold=3, max_retries=2, probe_after_s=1000.0,
            fault_frames=1, recovery_frames=2,
            expect_retries=1, expect_dispatches=4, expect_events=1,
            expect_failures={name: 1},
        )
    if phase == "after-trip":
        # Two faults exhaust the retry budget and trip the breaker; the
        # frame served while open degrades; after the probe delay the
        # breaker probes, closes, and the tail runs on the fabric again.
        return Cell(
            plan=f"{kind}@0,1",
            threshold=2, max_retries=1, probe_after_s=5.0,
            fault_frames=2, recovery_frames=3, advance_s=5.0,
            expect_trips=1, expect_probes=1, expect_retries=1,
            expect_degraded=2, expect_dispatches=5, expect_events=2,
            expect_failures={name: 2},
            expect_transitions=(
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed"),
            ),
        )
    # half-open: with probe_after_s=0 and a generous retry budget the
    # whole trip/probe-fail/probe-succeed trajectory plays out *within*
    # one request's retry loop — the batch still comes back bit-identical
    # off the fabric, never degraded.
    return Cell(
        plan=f"{kind}@0,1,2",
        threshold=2, max_retries=5, probe_after_s=0.0,
        fault_frames=1, recovery_frames=2,
        expect_trips=1, expect_probes=2, expect_retries=3,
        expect_dispatches=6, expect_events=3,
        expect_failures={name: 3},
        expect_transitions=(
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ),
    )


CELLS = [
    pytest.param(_cell(kind, phase), id=f"{kind}/{phase}")
    for kind in KINDS
    for phase in PHASES
]


@pytest.fixture(scope="module")
def hybrid(tmp_path_factory):
    """The mini CPU→fabric→CPU network, built once for the whole matrix."""
    from tests.test_serve_server import _hybrid_offload_network

    rng = np.random.default_rng(20180621)
    return _hybrid_offload_network(
        rng, tmp_path_factory.mktemp("binparam-matrix")
    )


@pytest.fixture(scope="module")
def frames(hybrid):
    rng = np.random.default_rng(20180622)
    return [
        FeatureMap(rng.normal(size=hybrid.input_shape).astype(np.float32))
        for _ in range(5)
    ]


@pytest.fixture(scope="module")
def expected(hybrid, frames):
    """Ground truth, computed with no fault plan installed."""
    return list(hybrid.forward_batch(FeatureMapBatch.from_maps(frames)).frames())


def run_cell(network, frames, cell: Cell):
    """Serve one matrix cell; returns (results, fault events, resilience)."""
    clock = VirtualClock()
    plan = faults.FaultPlan.parse(cell.plan, seed=20180621)
    config = ServeConfig(
        max_queue_depth=8,
        max_batch=1,
        max_delay_s=0.0,
        cpu_workers=1,
        scrub_fabric=True,  # silent corruption must be *caught*, not served
        max_retries=cell.max_retries,
        breaker_threshold=cell.threshold,
        breaker_probe_after_s=cell.probe_after_s,
        retry_backoff_s=0.001,
        retry_backoff_max_s=0.05,
    )
    results: List[FeatureMap] = []
    with faults.install(plan, clock=clock) as injector:
        with InferenceServer(network, config, clock=clock) as server:
            for index, frame in enumerate(frames[: cell.frames]):
                if index == cell.fault_frames and cell.advance_s is not None:
                    clock.advance(cell.advance_s)
                results.append(server.infer(frame, timeout_s=60))
            resilience = server.metrics.snapshot()["resilience"]
            dispatches = server.metrics.fabric_dispatches
        events = injector.events()
    return results, events, resilience, dispatches


class TestFaultMatrix:
    @pytest.mark.parametrize("cell", CELLS)
    def test_cell(self, hybrid, frames, expected, cell):
        results, events, resilience, dispatches = run_cell(
            hybrid, frames, cell
        )

        # 1. Bit-identity: every frame — faulted, degraded, probed or
        #    clean — returns exactly the forward_batch answer.
        assert len(results) == cell.frames
        for got, want in zip(results, expected):
            assert got.scale == want.scale
            assert np.array_equal(got.data, want.data)

        # 2. The metrics match the cell's script exactly.
        assert resilience["fabric_retries"] == cell.expect_retries
        assert resilience["breaker_trips"] == cell.expect_trips
        assert resilience["breaker_probes"] == cell.expect_probes
        assert resilience["degraded_inferences"] == cell.expect_degraded
        assert resilience["worker_deaths"] == cell.expect_deaths
        assert resilience["fabric_failures"] == cell.expect_failures
        assert dispatches == cell.expect_dispatches
        trajectory = tuple(
            (t["from"], t["to"]) for t in resilience["breaker_transitions"]
        )
        assert trajectory == cell.expect_transitions

        # 3. Recovery: once the plan's faults are spent the breaker is
        #    closed and fabric dispatches resumed (none of the recovery
        #    frames were degraded — the degraded count already matched).
        assert resilience["breaker_state"] == "closed"

        # 4. The injector delivered every planned fault, in order.
        assert len(events) == cell.expect_events

    @pytest.mark.parametrize("cell", CELLS)
    def test_cell_is_deterministic(self, hybrid, frames, cell):
        # Two consecutive runs: same transcript, same resilience snapshot
        # (including the virtual-clock timestamps inside the transitions).
        first = run_cell(hybrid, frames, cell)
        second = run_cell(hybrid, frames, cell)
        assert first[1] == second[1]  # fault transcript
        assert first[2] == second[2]  # resilience snapshot
