"""Shard process lifecycle + ShardedServer request-path tests.

The chaos matrix (``test_serve_chaos``) certifies the tier under
injected faults; this file covers the sunny-day contracts: the wire
protocol and handshake of one :class:`Shard`, the tier's one VM build
(shared by every shard and the inline fallback), the result cache /
coalescing / quota layers on the submit path, the engine each shard
runs (fabric retries inside the shard), the zero-shard front door, and
the :class:`HeartbeatMonitor` bookkeeping — plus bit-identity of the
whole tier against ``Network.forward_batch``.
"""

import importlib
import os
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve import (
    ConsistentHashRing,
    QuotaExceeded,
    ShardedServer,
    ShardTierConfig,
    frame_digest,
)
from repro.serve.queue import ServerClosed
from repro.serve.resilience import HeartbeatMonitor
from repro.serve.router import VNODES
from repro.serve.shard import Shard, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="shard tier needs the fork start method"
)


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(20180621)
    net = Network(zoo.mlp4_config())
    net.initialize(rng)
    return net


@pytest.fixture(scope="module")
def frames(network):
    rng = np.random.default_rng(20180623)
    return [
        FeatureMap(
            rng.uniform(0, 1, size=network.input_shape).astype(np.float32)
        )
        for _ in range(8)
    ]


@pytest.mark.integration
@needs_fork
class TestShardProcess:
    def test_handshake_protocol_and_shutdown(self, network, frames):
        shard = Shard(0, network)
        try:
            shard.start(ready_timeout_s=60)
            assert shard.name == "shard0"
            assert shard.alive and shard.pid is not None
            assert shard.cold_start_ms is not None and shard.cold_start_ms >= 0
            assert shard.plan_cache_hit is None  # no cache dir -> compiled

            shard.send_request(7, frames[0])
            assert shard.conn.poll(30)
            tag, rid, got = shard.conn.recv()
            assert (tag, rid) == ("res", 7)
            expected = network.forward_batch(FeatureMapBatch.from_maps([frames[0]]))
            assert np.array_equal(got.data, expected.frame(0).data)

            seq = shard.send_ping()
            assert shard.conn.poll(30)
            pong = shard.conn.recv()
            assert pong == ("pong", seq, 1, 0)  # served one, not slowed

            shard.request_stop()
            assert shard.join(30)
            assert not shard.alive
            shard.kill()  # idempotent on a corpse
        finally:
            shard.kill()
            shard.join(10)

    def test_double_start_rejected(self, network):
        shard = Shard(1, network)
        try:
            shard.start(ready_timeout_s=60)
            with pytest.raises(RuntimeError):
                shard.start()
        finally:
            shard.kill()
            shard.join(10)


@pytest.mark.integration
@needs_fork
class TestShardedServerPath:
    def test_tier_is_bit_identical_to_forward_batch(self, network, frames):
        expected = network.forward_batch(FeatureMapBatch.from_maps(frames))
        with ShardedServer(network, ShardTierConfig(shards=2)) as server:
            results = server.infer_many(frames, timeout_s=60)
            snapshot = server.snapshot()
        for index, got in enumerate(results):
            want = expected.frame(index)
            assert got.scale == want.scale
            assert np.array_equal(got.data, want.data)
        assert snapshot["completed"] == len(frames)
        assert snapshot["failed"] == 0
        tier = snapshot["shard_tier"]
        assert sum(tier["dispatches"].values()) == len(frames)
        assert tier["shard_deaths"] == 0

    def test_duplicate_frames_hit_the_result_cache(self, network, frames):
        with ShardedServer(network, ShardTierConfig(shards=2)) as server:
            first = server.infer(frames[0], timeout_s=60)
            second = server.infer(frames[0], timeout_s=60)
            tier = server.snapshot()["shard_tier"]
        assert np.array_equal(first.data, second.data)
        assert tier["result_cache_hits"] == 1
        assert sum(tier["dispatches"].values()) == 1  # one compute only

    def test_concurrent_duplicates_coalesce_onto_one_dispatch(
        self, network, frames
    ):
        # The cache answers *resolved* duplicates; coalescing answers
        # *in-flight* ones.  Slow the owning shard so the first dispatch
        # is provably still in flight when the duplicate arrives.
        config = ShardTierConfig(shards=2, result_cache=0)
        with ShardedServer(network, config) as server:
            ring = ConsistentHashRing(VNODES)
            for name in server.live_shard_names():
                ring.add(name)
            digest = frame_digest(frames[0])
            owner = ring.lookup(digest)
            server._shards[owner].send_slow(0.4, 1)
            primary = server.submit(frames[0])
            follower = server.submit(frames[0])
            first = primary.result(60)
            second = follower.result(60)
            tier = server.snapshot()["shard_tier"]
        assert np.array_equal(first.data, second.data)
        assert tier["coalesced"] == 1
        assert sum(tier["dispatches"].values()) == 1
        # The follower got a private copy, not the primary's buffer.
        assert second.data is not first.data

    def test_quota_rejection_on_the_submit_path(self, network, frames):
        config = ShardTierConfig(
            shards=1, quota_rps=0.001, quota_burst=1.0
        )
        with ShardedServer(network, config) as server:
            server.infer(frames[0], timeout_s=60)
            with pytest.raises(QuotaExceeded):
                server.submit(frames[1], tenant="default")
            snapshot = server.snapshot()
        assert snapshot["shard_tier"]["quota_rejections"] == {"default": 1}
        assert snapshot["admission"]["quota_rejections"] == {"default": 1}

    def test_submit_outside_lifecycle_is_refused(self, network, frames):
        server = ShardedServer(network, ShardTierConfig(shards=1))
        with pytest.raises(ServerClosed):
            server.submit(frames[0])  # never started
        server.start()
        try:
            server.infer(frames[0], timeout_s=60)
        finally:
            server.stop()
        with pytest.raises(ServerClosed):
            server.submit(frames[0])  # stopped


@pytest.fixture
def digest_pids(monkeypatch, tmp_path):
    """Each weights digest appends its process id to a file; forked shards
    inherit the wrapper, so the file names every process that hashed."""
    bind = importlib.import_module("repro.isa.bind")  # not the bind() function
    log = tmp_path / "digest-pids"
    inner = bind.tree_digest

    def recorded(chunks):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return inner(chunks)

    monkeypatch.setattr(bind, "tree_digest", recorded)
    return lambda: log.read_text().split() if log.exists() else []


@pytest.mark.integration
@needs_fork
class TestTierBuild:
    """The parent runs ``build_vm`` once; every engine serves on that VM."""

    def test_a_tier_start_builds_once_in_the_parent(
        self, network, frames, tmp_path, digest_pids
    ):
        config = ShardTierConfig(
            shards=2, plan_cache_dir=str(tmp_path / "plans")
        )
        expected = network.forward_batch(FeatureMapBatch.from_maps([frames[0]]))
        # An empty cache, then the one the first start primed: one digest
        # per start, made here, and every shard reports that build's hit.
        for starts, hit in ((1, False), (2, True)):
            with ShardedServer(network, config) as server:
                result = server.infer(frames[0], timeout_s=60)
                snapshot = server.snapshot()
            assert np.array_equal(result.data, expected.frame(0).data)
            assert digest_pids() == [str(os.getpid())] * starts
            assert snapshot["plan_cache"]["plan_cache_hit"] is hit
            assert snapshot["plan_cache"]["cold_start_ms"] > 0
            colds = snapshot["shard_tier"]["cold_starts"]
            assert sorted(colds) == ["shard0", "shard1"]
            assert all(info["plan_cache_hit"] is hit for info in colds.values())

    def test_the_inline_fallback_serves_on_the_tiers_vm(
        self, network, frames, tmp_path, digest_pids
    ):
        config = ShardTierConfig(
            shards=2, plan_cache_dir=str(tmp_path / "plans")
        )
        expected = network.forward_batch(FeatureMapBatch.from_maps([frames[0]]))
        with ShardedServer(network, config) as server:
            hashed = digest_pids()
            for shard in list(server._shards.values()):
                shard.kill()
            deadline = time.monotonic() + 10.0
            while server.router.alive_shards() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.router.alive_shards() == []
            result = server.infer(frames[0], timeout_s=60)
            snapshot = server.snapshot()
            assert server._local().vm is server._bound[0]
        assert np.array_equal(result.data, expected.frame(0).data)
        assert result.scale == expected.frame(0).scale
        assert snapshot["shard_tier"]["inline_fallbacks"] == 1
        assert hashed == [str(os.getpid())]
        assert digest_pids() == hashed  # no digest after start()


@pytest.mark.integration
@needs_fork
class TestShardEngines:
    def test_fabric_fault_is_retried_inside_the_shard(self, rng, tmp_path):
        # Each shard runs a full engine, so a fabric fault is retried by
        # the shard's own retry ladder instead of failing the request.
        # The forked shards inherit the plan installed before start(), and
        # a shard has no warm-up frame, so the fault hits a served request.
        from tests.test_serve_server import _frames, _hybrid_offload_network

        hybrid = _hybrid_offload_network(rng, tmp_path)
        frames = _frames(rng, hybrid.input_shape, 4)
        expected = hybrid.forward_batch(FeatureMapBatch.from_maps(frames))
        config = ShardTierConfig(shards=2, result_cache=0)
        with faults.install(faults.FaultPlan.parse("fabric-raise@0")):
            with ShardedServer(hybrid, config) as server:
                results = server.infer_many(frames, timeout_s=60)
                snapshot = server.snapshot()
        for index, got in enumerate(results):
            want = expected.frame(index)
            assert got.scale == want.scale
            assert np.array_equal(got.data, want.data)
        assert snapshot["completed"] == len(frames)
        assert snapshot["failed"] == 0


    def test_shard_engines_split_the_cpu_workers(self, network):
        # Copying the engine must not multiply the host's CPU workers.
        config = ShardTierConfig(shards=2, cpu_workers=4)
        with ShardedServer(network, config) as server:
            engines = [shard._config for shard in server._shards.values()]
        assert [engine.cpu_workers for engine in engines] == [2, 2]
        assert all(engine.max_batch == config.max_batch for engine in engines)
        assert not any(engine.warmup for engine in engines)  # first request warms


class TestZeroShards:
    def test_front_door_without_shards_serves_in_process(self, network, frames):
        config = ShardTierConfig(shards=0)
        expected = network.forward_batch(FeatureMapBatch.from_maps(frames))
        with ShardedServer(network, config) as server:
            assert server.live_shard_names() == []
            results = server.infer_many(frames, timeout_s=60)
            repeat = server.infer(frames[0], timeout_s=60)  # a cache hit
            snapshot = server.snapshot()
        for index, got in enumerate(results):
            want = expected.frame(index)
            assert got.scale == want.scale
            assert np.array_equal(got.data, want.data)
        assert np.array_equal(repeat.data, expected.frame(0).data)
        tier = snapshot["shard_tier"]
        assert tier["result_cache_hits"] == 1
        assert tier["inline_fallbacks"] == 0  # configured local, not a fallback
        assert tier["shard_deaths"] == 0
        assert snapshot["completed"] == len(frames) + 1
        assert snapshot["failed"] == 0
        # The engine in this process fills the engine sections.
        assert sum(snapshot["batch_histogram"].values()) >= 1
        assert snapshot["plan_cache"]["cold_start_ms"] > 0

    def test_in_flight_duplicates_coalesce_without_shards(self, network, frames):
        config = ShardTierConfig(shards=0, result_cache=0)
        with ShardedServer(network, config) as server:
            engine = server._local()
            release = threading.Event()
            run_stage = engine.vm.run_stage

            def held(*args, **kwargs):
                assert release.wait(60)
                return run_stage(*args, **kwargs)

            engine.vm.run_stage = held
            try:
                primary = server.submit(frames[0])
                follower = server.submit(frames[0])
            finally:
                release.set()
            first, second = primary.result(60), follower.result(60)
            tier = server.snapshot()["shard_tier"]
        assert np.array_equal(first.data, second.data)
        assert second.data is not first.data
        assert tier["coalesced"] == 1
        assert tier["inline_fallbacks"] == 0


class TestHeartbeatMonitor:
    def test_expiry_is_strictly_past_the_timeout(self):
        monitor = HeartbeatMonitor(timeout_s=2.0)
        monitor.beat("shard0", 10.0)
        monitor.beat("shard1", 11.0)
        assert monitor.expired(12.0) == []  # exactly at the edge for s0
        assert monitor.expired(12.5) == ["shard0"]
        assert monitor.expired(13.5) == ["shard0", "shard1"]  # sorted

    def test_beat_resets_and_forget_removes(self):
        monitor = HeartbeatMonitor(timeout_s=1.0)
        monitor.beat("shard0", 0.0)
        monitor.beat("shard0", 5.0)
        assert monitor.expired(5.5) == []
        assert monitor.last("shard0") == 5.0
        monitor.forget("shard0")
        assert monitor.expired(100.0) == []
        assert monitor.last("shard0") is None
