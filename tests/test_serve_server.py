"""InferenceServer integration: correctness, overload, fabric serialization.

The acceptance invariants of the serving subsystem:

* every accepted request's result is bit-identical to calling
  ``Network.forward_batch`` directly (pinned on the Tincy YOLO zoo
  network);
* the bounded queue sheds beyond its limit with a typed ``Overloaded``
  error, the shed count lands in the metrics, and accepted requests still
  complete correctly;
* at most one FINN-offload execution is ever in flight (the fabric is a
  serialized resource).
"""

import threading

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.finn.mvtu import Folding
from repro.finn.offload_backend import export_offload
from repro.nn import zoo
from repro.nn.network import Network
from repro.pipeline.scheduler import CPU, FABRIC
from repro.serve import (
    InferenceServer,
    Overloaded,
    RequestCancelled,
    RequestTimeout,
    ServeConfig,
    ServerClosed,
)


def _frames(rng, shape, count):
    return [
        FeatureMap(rng.normal(size=shape).astype(np.float32))
        for _ in range(count)
    ]


def _mlp4(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    return network


def _hybrid_offload_network(rng, tmp_path):
    """The mini CPU->fabric->CPU network of the Fig. 4 export tests."""
    from tests.test_finn_offload import FULL_CFG, HYBRID_CFG_TEMPLATE, _trained

    full = _trained(rng, FULL_CFG)
    binparam = str(tmp_path / "binparam-mini")
    export_offload(
        full.layers[1:4],
        input_scale=full.layers[0].out_quant.scale,
        input_shape=full.layers[0].out_shape,
        directory=binparam,
        folding=Folding(4, 4),
    )
    hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
    for src_index, dst_index in ((0, 0), (4, 2)):
        src, dst = full.layers[src_index], hybrid.layers[dst_index]
        dst.weights = src.weights.copy()
        dst.biases = src.biases.copy()
        if src.batch_normalize:
            dst.scales = src.scales.copy()
            dst.rolling_mean = src.rolling_mean.copy()
            dst.rolling_var = src.rolling_var.copy()
    hybrid.layers[1].backend.load_weights()
    return hybrid


def _assert_served_matches_direct(network, frames, config):
    direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
    with InferenceServer(network, config) as server:
        served = server.infer_many(frames, timeout_s=60)
    assert len(served) == len(frames)
    for expected, got in zip(direct.frames(), served):
        assert got.scale == expected.scale
        assert np.array_equal(got.data, expected.data)


class TestServedResultsBitIdentical:
    def test_mlp4_served_matches_direct(self, rng):
        network = _mlp4(rng)
        _assert_served_matches_direct(
            network,
            _frames(rng, network.input_shape, 11),
            ServeConfig(max_batch=4, max_delay_s=0.002, cpu_workers=3),
        )

    def test_results_keep_submission_order(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 9)
        expected = [network.forward(fm) for fm in frames]
        with InferenceServer(network, ServeConfig(max_batch=2)) as server:
            got = server.infer_many(frames, timeout_s=60)
        for e, g in zip(expected, got):
            assert np.array_equal(g.data, e.data)

    @pytest.mark.slow
    def test_tincy_served_matches_direct(self, rng):
        # The acceptance pin: serving the Tincy YOLO zoo network is
        # bit-identical to direct forward_batch execution per request.
        network = Network(zoo.tincy_yolo_config())
        network.initialize(rng)
        _assert_served_matches_direct(
            network,
            _frames(rng, network.input_shape, 4),
            ServeConfig(max_batch=2, max_delay_s=0.01, cpu_workers=2),
        )


class TestOverloadBehavior:
    def test_sheds_beyond_limit_and_reports_metrics(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_queue_depth=4, max_batch=4, max_delay_s=0.005, warmup=False
        )
        frames = _frames(rng, network.input_shape, 32)
        server = InferenceServer(network, config)
        # Stall admission by submitting before start(): the batcher thread
        # is not pulling yet, so the queue must absorb or shed everything.
        accepted, shed = [], 0
        server._started = True  # allow submit() pre-start (test-only poke)
        for frame in frames:
            try:
                accepted.append(server.submit(frame))
            except Overloaded as exc:
                shed += 1
                assert exc.limit == 4
        assert len(accepted) == 4
        assert shed == 28
        server._started = False
        server.start()
        try:
            results = [future.result(timeout=60) for future in accepted]
        finally:
            server.stop(timeout=10)
        # Accepted requests still complete correctly despite the shedding.
        direct = network.forward_batch(
            FeatureMapBatch.from_maps(frames[: len(accepted)])
        )
        for expected, got in zip(direct.frames(), results):
            assert np.array_equal(got.data, expected.data)
        snapshot = server.metrics.snapshot()
        assert snapshot["shed"] == 28
        assert snapshot["accepted"] == 4
        assert snapshot["completed"] == 4
        assert snapshot["queue_depth_max"] == 4

    def test_overloaded_error_carries_depth_and_limit(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(
            network, ServeConfig(max_queue_depth=1, max_batch=1, warmup=False)
        )
        server._started = True
        server.submit(_frames(rng, network.input_shape, 1)[0])
        with pytest.raises(Overloaded) as excinfo:
            server.submit(_frames(rng, network.input_shape, 1)[0])
        assert excinfo.value.depth == 1
        assert excinfo.value.limit == 1
        server._started = False
        server.start()
        server.stop(timeout=10)

    def test_submit_to_stopped_server_rejected(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(network, ServeConfig(warmup=False))
        server.start()
        server.stop(timeout=10)
        with pytest.raises(ServerClosed):
            server.submit(_frames(rng, network.input_shape, 1)[0])


class TestFabricSerialization:
    def test_only_one_offload_in_flight(self, rng, tmp_path):
        network = _hybrid_offload_network(rng, tmp_path)
        assert network.uses_fabric
        frames = _frames(rng, network.input_shape, 12)
        config = ServeConfig(max_batch=2, max_delay_s=0.001, cpu_workers=3)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        with InferenceServer(network, config) as server:
            assert server.resource == FABRIC
            served = server.infer_many(frames, timeout_s=60)
            gate = server.fabric_gate
            snapshot = server.metrics.snapshot()
        # The serialization invariant: the fabric engine never ran two
        # offload executions concurrently, while still serving every batch.
        assert gate.max_in_flight == 1
        assert gate.in_flight == 0
        assert gate.acquisitions >= 1
        assert snapshot["fabric_dispatches"] == gate.acquisitions
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_cpu_network_never_touches_the_gate(self, rng):
        network = _mlp4(rng)
        assert not network.uses_fabric
        with InferenceServer(network, ServeConfig(max_batch=4)) as server:
            assert server.resource == CPU
            server.infer_many(_frames(rng, network.input_shape, 6), timeout_s=60)
            assert server.fabric_gate.acquisitions == 0
            assert server.metrics.snapshot()["fabric_dispatches"] == 0


class TestTimeoutsAndCancellation:
    def test_expired_request_fails_with_timeout(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(max_batch=4, max_delay_s=0.005, warmup=False)
        with InferenceServer(network, config) as server:
            # timeout_s=0 expires at admission time — deterministically
            # before dispatch, with no sleeping in the test.
            future = server.submit(
                _frames(rng, network.input_shape, 1)[0], timeout_s=0.0
            )
            with pytest.raises(RequestTimeout):
                future.result(timeout=30)
            snapshot = server.metrics.snapshot()
        assert snapshot["timed_out"] == 1
        assert snapshot["completed"] == 0

    def test_cancelled_request_is_dropped(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(
            network, ServeConfig(max_batch=2, warmup=False)
        )
        server._started = True  # submit before the batcher thread runs
        future = server.submit(_frames(rng, network.input_shape, 1)[0])
        assert future.cancel()
        server._started = False
        server.start()
        with pytest.raises(RequestCancelled):
            future.result(timeout=30)
        server.stop(timeout=10)
        assert server.metrics.snapshot()["cancelled"] == 1

    def test_result_timeout_is_plain_timeouterror(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(network, ServeConfig(warmup=False))
        server._started = True
        future = server.submit(_frames(rng, network.input_shape, 1)[0])
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        future.cancel()
        server._started = False


class TestLifecycle:
    def test_stop_drains_accepted_requests(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_batch=64, max_delay_s=30.0, max_queue_depth=64, warmup=False
        )
        # A huge deadline and batch size: nothing would flush on its own;
        # stop(drain=True) must force the pending batch out.
        frames = _frames(rng, network.input_shape, 5)
        server = InferenceServer(network, config).start()
        futures = [server.submit(frame) for frame in frames]
        assert server.stop(timeout=30, drain=True)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        for expected, future in zip(direct.frames(), futures):
            assert np.array_equal(future.result(timeout=0).data, expected.data)
        assert server.metrics.snapshot()["flush_causes"].get("forced", 0) >= 1

    def test_stop_without_drain_fails_pending(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_batch=64, max_delay_s=30.0, max_queue_depth=64, warmup=False
        )
        server = InferenceServer(network, config).start()
        futures = [
            server.submit(frame)
            for frame in _frames(rng, network.input_shape, 3)
        ]
        assert server.stop(timeout=30, drain=False)
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=5)

    def test_warmup_runs_the_servers_own_vm_unobserved(self, rng, tmp_path):
        from repro import faults

        hybrid = _hybrid_offload_network(rng, tmp_path)
        frame = _frames(rng, hybrid.input_shape, 1)[0]
        compiles = []
        original = hybrid.plan
        hybrid.plan = lambda: (compiles.append(1), original())[1]
        # A plan that never fires: the injector only counts the seam.
        with faults.install(faults.FaultPlan.parse("fabric-raise@99")) as seam:
            server = InferenceServer(hybrid, ServeConfig(max_batch=1)).start()
            try:
                # One zero frame crossed the fabric.step seam, through the
                # one program the server compiled — no second VM was built
                # and nothing was recorded for it.
                assert seam.invocations(faults.FABRIC_STEP) == 1
                assert compiles == [1]
                warm = server.metrics.snapshot()
                assert warm["plan_steps"] == {}
                assert warm["completed"] == 0
                server.infer(frame, timeout_s=60)
                assert seam.invocations(faults.FABRIC_STEP) == 2
                steps = server.metrics.snapshot()["plan_steps"]
                assert {entry["count"] for entry in steps.values()} == {1}
            finally:
                server.stop(timeout=30)
        assert compiles == [1]

    def test_double_start_rejected(self, rng):
        server = InferenceServer(_mlp4(rng), ServeConfig(warmup=False))
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop(timeout=10)

    def test_stop_before_start_is_noop(self, rng):
        assert InferenceServer(_mlp4(rng)).stop(timeout=1)

    def test_errors_propagate_to_futures_not_pool(self, rng):
        network = _mlp4(rng)
        with InferenceServer(
            network, ServeConfig(max_batch=1, warmup=False)
        ) as server:
            bad = FeatureMap(np.zeros((1, 28, 28), dtype=np.float32))
            bad.data = np.zeros((1, 28, 29), dtype=np.float32)  # poison shape
            future = server.submit(bad)
            with pytest.raises(ValueError, match="do not match network"):
                future.result(timeout=30)
            # The pool survived the poison batch and still serves traffic.
            good = _frames(rng, network.input_shape, 1)[0]
            out = server.infer(good, timeout_s=30)
            assert np.array_equal(out.data, network.forward(good).data)
            assert server.metrics.snapshot()["failed"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch cannot exceed"):
            ServeConfig(max_queue_depth=2, max_batch=4)
        with pytest.raises(ValueError, match="cpu_workers"):
            ServeConfig(cpu_workers=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            ServeConfig(max_delay_s=-0.1)


class TestConcurrentClients:
    def test_many_client_threads_all_served(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 24)
        expected = [network.forward(fm) for fm in frames]
        results = [None] * len(frames)
        errors = []
        with InferenceServer(
            network, ServeConfig(max_batch=4, max_delay_s=0.002, cpu_workers=3)
        ) as server:

            def client(index):
                try:
                    results[index] = server.infer(frames[index], timeout_s=60)
                except Exception as exc:  # noqa: BLE001 — collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(frames))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not errors
        for e, g in zip(expected, results):
            assert g is not None
            assert np.array_equal(g.data, e.data)
