"""The shard tier's chaos acceptance matrix (docs/SERVING.md).

Every fleet fault kind in {shard-kill, shard-slow, router-split} crossed
with three injection phases {early, mid, late} of a closed-loop request
sequence against a live 3-shard :class:`ShardedServer`.  Each cell must

* return results **bit-identical** to ``Network.forward_batch`` on the
  same frames — chaos changes *where* a request runs, never *what* it
  returns;
* emit exactly the scripted death / split / slow-event metrics, shed or
  fail nothing, and keep the surviving fleet serving;
* be deterministic: two consecutive runs of a cell produce the same
  fault transcript and the same (timing-free) shard-tier metrics.

Determinism is engineered the same way as ``test_faults_matrix``: the
chaos sites are polled once per submitted request under one lock, the
requests are submitted closed-loop (each completes before the next is
admitted, so a kill never races an in-flight dispatch), the result cache
and coalescing are disabled so every request dispatches, and the
heartbeat timeout is set far beyond the test's wall time so the only
deaths are the scripted ones.  What *can't* be scripted — the heartbeat
counters and cold-start timings — is excluded from the comparison.

Two further scenarios cover the paths the matrix can't reach closed-loop:
a *hung* shard (stalled mid-request, detected by heartbeat timeout, its
in-flight work re-routed) and a fully dead fleet (served by the engine
in the parent process).
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro import faults
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve import (
    ConsistentHashRing,
    ShardedServer,
    ShardTierConfig,
    frame_digest,
)
from repro.serve.router import VNODES
from repro.serve.shard import fork_available

pytestmark = [
    pytest.mark.integration,
    pytest.mark.skipif(
        not fork_available(), reason="shard tier needs the fork start method"
    ),
]

SHARDS = 3
REQUESTS = 18

#: Injection phases: the per-site invocation index the fault fires at.
PHASES = {"early": 2, "mid": REQUESTS // 2, "late": REQUESTS - 3}

KINDS = ("shard-kill", "shard-slow", "router-split")

#: shard_tier keys that depend on wall-clock timing, not on the request
#: sequence — excluded from the two-run determinism comparison.
TIMING_KEYS = ("heartbeats_sent", "heartbeat_pongs", "cold_starts")


@dataclass(frozen=True)
class Cell:
    """One matrix cell: the injected spec and what must happen."""

    kind: str
    at: int
    span: int = 6
    hang_s: float = 0.001
    expect_deaths: int = 0
    expect_splits: int = 0
    expect_slow: int = 0

    def spec(self) -> faults.FaultSpec:
        return faults.FaultSpec(
            kind=self.kind, at=(self.at,), hang_s=self.hang_s, span=self.span
        )


def _cell(kind: str, phase: str) -> Cell:
    at = PHASES[phase]
    if kind == "shard-kill":
        return Cell(kind=kind, at=at, expect_deaths=1)
    if kind == "shard-slow":
        return Cell(kind=kind, at=at, expect_slow=1)
    return Cell(kind=kind, at=at, expect_splits=1)


CELLS = [
    pytest.param(_cell(kind, phase), id=f"{kind}/{phase}")
    for kind in KINDS
    for phase in PHASES
]


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(20180621)
    net = Network(zoo.mlp4_config())
    net.initialize(rng)
    return net


@pytest.fixture(scope="module")
def frames(network):
    rng = np.random.default_rng(20180622)
    return [
        FeatureMap(
            rng.uniform(0, 1, size=network.input_shape).astype(np.float32)
        )
        for _ in range(REQUESTS)
    ]


@pytest.fixture(scope="module")
def expected(network, frames):
    """Ground truth, computed with no fault plan installed."""
    return list(
        network.forward_batch(FeatureMapBatch.from_maps(frames)).frames()
    )


def _tier_config(**overrides) -> ShardTierConfig:
    base = dict(
        shards=SHARDS,
        result_cache=0,  # every request dispatches (deterministic counts)
        coalesce=False,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=30.0,  # only scripted deaths in the matrix
    )
    base.update(overrides)
    return ShardTierConfig(**base)


def run_cell(network, frames, cell: Cell):
    """Serve one matrix cell; returns (results, events, snapshot, alive)."""
    plan = faults.FaultPlan([cell.spec()], seed=20180621)
    with faults.install(plan) as injector:
        with ShardedServer(network, _tier_config()) as server:
            results = [server.infer(f, timeout_s=60) for f in frames]
            snapshot = server.snapshot()
            alive = server.router.alive_shards()
        events = injector.events()
    return results, events, snapshot, alive


def _timing_free(snapshot: Dict) -> Dict:
    """The deterministic slice of one run's observable state."""
    tier = {
        key: value
        for key, value in snapshot["shard_tier"].items()
        if key not in TIMING_KEYS
    }
    return {
        "shard_tier": tier,
        "accepted": snapshot["accepted"],
        "completed": snapshot["completed"],
        "failed": snapshot["failed"],
        "shed": snapshot["shed"],
        "router": snapshot["router"],
    }


class TestChaosMatrix:
    @pytest.mark.parametrize("cell", CELLS)
    def test_cell(self, network, frames, expected, cell):
        results, events, snapshot, alive = run_cell(network, frames, cell)

        # 1. Bit-identity: chaos must never change a single output bit.
        assert len(results) == REQUESTS
        for got, want in zip(results, expected):
            assert got.scale == want.scale
            assert np.array_equal(got.data, want.data)

        # 2. The scripted fault fired exactly once, at the scripted tick.
        spec = cell.spec()
        assert events == [(spec.site, cell.kind, cell.at, "")]

        # 3. The metrics match the script exactly.  Closed-loop submission
        #    means a kill never catches a request in flight: reroutes stay
        #    zero and nothing ever falls back to the parent's engine.
        tier = snapshot["shard_tier"]
        assert tier["shard_deaths"] == cell.expect_deaths
        assert tier["router_splits"] == cell.expect_splits
        assert tier["shard_slow_events"] == cell.expect_slow
        assert tier["reroutes"] == 0
        assert tier["inline_fallbacks"] == 0
        assert snapshot["accepted"] == REQUESTS
        assert snapshot["completed"] == REQUESTS
        assert snapshot["failed"] == 0
        assert snapshot["shed"] == 0

        # 4. Fleet health afterwards: a kill leaves N-1 shards serving
        #    (the cause is the chaos kill, or the collector noticing the
        #    corpse first — either way exactly one death is recorded).
        if cell.kind == "shard-kill":
            assert len(alive) == SHARDS - 1
            assert sum(tier["death_causes"].values()) == 1
        else:
            assert len(alive) == SHARDS
            assert tier["death_causes"] == {}

    @pytest.mark.parametrize("cell", CELLS)
    def test_cell_is_deterministic(self, network, frames, cell):
        first = run_cell(network, frames, cell)
        second = run_cell(network, frames, cell)
        assert first[1] == second[1]  # fault transcript
        assert _timing_free(first[2]) == _timing_free(second[2])
        assert first[3] == second[3]  # surviving membership


class TestHungShard:
    def test_heartbeat_timeout_reroutes_in_flight_work(
        self, network, frames, expected
    ):
        """A shard stalled *mid-request* stops ponging -> declared dead.

        The victim is slowed so hard (1.5s per request against a 0.4s
        heartbeat timeout) that it wedges on its first request; the
        monitor expires it, the router marks it dead, and every request
        queued behind the stall is re-routed and still answered
        bit-identically.
        """
        config = _tier_config(
            shards=2, heartbeat_interval_s=0.05, heartbeat_timeout_s=0.4
        )
        with ShardedServer(network, config) as server:
            # Pick frames that really route to the victim: rebuild the
            # server's ring locally and check each frame's owner.
            ring = ConsistentHashRing(VNODES)
            for name in server.live_shard_names():
                ring.add(name)
            owners = {frame_digest(f): ring.lookup(frame_digest(f)) for f in frames}
            victim_name = server.live_shard_names()[0]
            victim_frames = [
                f for f in frames if owners[frame_digest(f)] == victim_name
            ]
            assert len(victim_frames) >= 2  # seeded: both shards get traffic

            server._shards[victim_name].send_slow(1.5, len(victim_frames))
            futures = [server.submit(f) for f in frames]
            results = [fut.result(60) for fut in futures]
            snapshot = server.snapshot()
        for got, want in zip(results, expected):
            assert np.array_equal(got.data, want.data)
        tier = snapshot["shard_tier"]
        assert tier["shard_deaths"] == 1
        assert tier["death_causes"] == {"heartbeat-timeout": 1}
        assert tier["reroutes"] >= 1
        assert snapshot["failed"] == 0

    def test_all_shards_dead_serves_inline(self, network, frames, expected):
        """SIGKILL the whole fleet: the parent's own engine answers."""
        import time

        config = _tier_config(shards=2)
        with ShardedServer(network, config) as server:
            for shard in list(server._shards.values()):
                shard.kill()
            deadline = time.monotonic() + 10.0
            while server.router.alive_shards() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.router.alive_shards() == []
            result = server.infer(frames[0], timeout_s=60)
            snapshot = server.snapshot()
        assert np.array_equal(result.data, expected[0].data)
        assert snapshot["shard_tier"]["inline_fallbacks"] == 1
        assert snapshot["shard_tier"]["shard_deaths"] == 2
        assert snapshot["failed"] == 0


class TestConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardTierConfig(shards=-1)

    def test_heartbeat_interval_must_be_positive(self):
        # A zero interval would spin the heartbeat thread on wait(0).
        for interval in (0.0, -0.1):
            with pytest.raises(ValueError, match="heartbeat_interval_s"):
                ShardTierConfig(heartbeat_interval_s=interval)

    def test_heartbeat_interval_must_be_below_the_timeout(self):
        # The monitor checks right after each round of pings, when the
        # last pong is one interval old: at interval >= timeout every
        # healthy shard would expire as heartbeat-timeout.
        for interval in (2.0, 3.0):
            with pytest.raises(ValueError, match="heartbeat_timeout_s"):
                ShardTierConfig(heartbeat_interval_s=interval, heartbeat_timeout_s=2.0)
        ShardTierConfig(heartbeat_interval_s=1.9, heartbeat_timeout_s=2.0)

    def test_front_door_cannot_admit_more_than_an_engine_queues(self):
        assert ShardTierConfig(max_queue_depth=16).max_in_flight == 16
        with pytest.raises(ValueError, match="max_in_flight"):
            ShardTierConfig(max_queue_depth=16, max_in_flight=17)

    def test_fleet_spec_site_pairing_enforced(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(kind="shard-kill", site=faults.ROUTER_SPLIT)
        with pytest.raises(ValueError):
            faults.FaultSpec(kind="fabric-raise", site=faults.SHARD_KILL)
        with pytest.raises(ValueError):
            faults.FaultSpec(kind="shard-slow", site=faults.FABRIC_STEP)
        with pytest.raises(ValueError):
            faults.FaultSpec(kind="router-split", at=(0,), span=0)
