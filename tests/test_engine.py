"""Plan structure, liveness, bit-identity and contracts of the one runtime.

The promise is *refactor without drift*: ``Network.forward*`` — the
in-process ``PlanVM`` on the compiled program — must be bit-identical to
the frozen pre-engine batched walk (``repro.engine.reference``) on
everything — the full Tincy YOLO zoo network, backward-looking [route]
topologies, and the FINN offload hybrid — while buffer liveness provably
shrinks the working set and the FABRIC resource tag (not ``ltype`` string
compares) keys the offload guard.
"""

import numpy as np
import pytest

from repro.core.resources import CPU, FABRIC
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine import (
    INPUT,
    compile_plan,
    legacy_forward_batch_all,
)
from repro.finn.offload_backend import export_offload
from repro.finn.schedule import Folding
from repro.nn import zoo
from repro.nn.layers.base import Layer
from repro.nn.network import LAYER_TYPES, Network, register_layer_type
from tests.test_nn_route import ROUTE_CFG


def _tincy(rng):
    network = Network(zoo.tincy_yolo_config())
    network.initialize(rng)
    return network


def _frames(rng, shape, count):
    return [
        FeatureMap(rng.normal(size=shape).astype(np.float32))
        for _ in range(count)
    ]


class RecordingGuard:
    """Context manager counting how often the VM entered it."""

    def __init__(self):
        self.entered = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def __enter__(self):
        self.entered += 1
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        return self

    def __exit__(self, *exc_info):
        self.in_flight -= 1
        return False


class FakeFabricLayer(Layer):
    """A registered offload-style layer: FABRIC-tagged, not ltype 'offload'."""

    ltype = "fakefabric"
    resource = FABRIC

    def _configure(self, in_shape):
        return in_shape

    def forward_batch(self, fmb, history=None):
        self._require_initialized()
        return FeatureMapBatch(fmb.data * 2.0, fmb.scale)


FAKE_FABRIC_CFG = """
[net]
width=6
height=6
channels=2

[convolutional]
filters=3
size=3
stride=1
pad=1
activation=relu

[fakefabric]

[convolutional]
filters=2
size=1
stride=1
pad=0
activation=linear
"""


@pytest.fixture
def fake_fabric_network(rng):
    register_layer_type("fakefabric", FakeFabricLayer)
    try:
        network = Network.from_cfg(FAKE_FABRIC_CFG)
        network.initialize(rng)
        yield network
    finally:
        del LAYER_TYPES["fakefabric"]


class TestPlanStructure:
    def test_tincy_chain_edges(self):
        network = Network(zoo.tincy_yolo_config())
        plan = compile_plan(network)
        assert len(plan) == len(network.layers)
        assert plan.input_shape == tuple(network.input_shape)
        assert plan.output_shape == tuple(network.output_shape)
        for index, (step, layer) in enumerate(zip(plan.steps, network.layers)):
            assert step.index == index
            assert step.ltype == layer.ltype
            assert step.layer is layer
            assert step.out_shape == tuple(layer.out_shape)
            assert step.ops == layer.workload().ops
            assert step.resource == CPU
            assert step.inputs == ((index - 1,) if index else (INPUT,))

    def test_metadata_accessors(self):
        plan = compile_plan(Network(zoo.tincy_yolo_config()))
        edges = plan.edges()
        assert (INPUT, 0) in edges
        assert all(producer < consumer for producer, consumer in edges)
        assert plan.consumers(INPUT) == (0,)
        assert plan.consumers(0) == (1,)
        assert plan.consumers(len(plan) - 1) == ()  # the plan output
        assert plan.buffer_shape(INPUT) == plan.input_shape
        assert plan.buffer_shape(len(plan) - 1) == plan.output_shape

    def test_tincy_chain_liveness_releases_each_buffer_once(self):
        plan = compile_plan(Network(zoo.tincy_yolo_config()))
        released = [b for victims in plan.release_after.values() for b in victims]
        # Every buffer except the final output dies exactly once.
        expected = [INPUT] + [s.index for s in plan.steps[:-1]]
        assert sorted(released) == sorted(expected)
        # A pure chain frees each input right after its only consumer.
        assert plan.release_after[0] == (INPUT,)
        assert plan.release_after[1] == (0,)

    def test_route_history_edges(self):
        network = Network.from_cfg(ROUTE_CFG)
        plan = compile_plan(network)
        route = plan.steps[2]
        assert route.ltype == "route"
        # Chain predecessor first, then the resolved [route] sources
        # (layers=-1,-2 resolves to absolute indices 1, 0).
        assert route.inputs == (1, 1, 0)
        # Buffer 0 must stay alive past step 1 (the route still reads it)
        # and die only after the route has consumed it.
        assert 0 not in plan.release_after.get(1, ())
        assert 0 in plan.release_after[2]

    def test_fabric_resource_tags(self, fake_fabric_network):
        plan = compile_plan(fake_fabric_network)
        assert [s.resource for s in plan.steps] == [CPU, FABRIC, CPU]
        assert plan.uses_fabric
        assert [s.index for s in plan.steps if s.resource == FABRIC] == [1]
        assert fake_fabric_network.uses_fabric

    def test_empty_network_rejected(self):
        class Hollow:
            layers = []
            input_shape = (1, 1, 1)

        with pytest.raises(ValueError, match="empty network"):
            compile_plan(Hollow())

    def test_network_plan_is_cached(self):
        network = Network.from_cfg(ROUTE_CFG)
        assert network.plan() is network.plan()
        assert network.vm() is network.vm()
        assert network.vm(0) is not network.vm()


class TestLiveness:
    def test_tincy_peak_strictly_below_keep_everything(self):
        plan = compile_plan(Network(zoo.tincy_yolo_config()))
        peak = plan.peak_live_bytes()
        # Keep-everything: the input plus every intermediate, 4 B/element.
        total = 4 * (
            int(np.prod(plan.input_shape))
            + sum(step.out_elements for step in plan.steps)
        )
        # Releasing dead intermediates must shrink the working set on a
        # 15-layer network — by a wide margin, not epsilon.
        assert peak < 0.75 * total

    def test_measured_high_water_run_below_run_all(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 2))
        network.forward_batch(fmb)
        live_peak = network.vm().last_report.peak_live_bytes
        network.forward_batch_all(fmb)
        keep_all_peak = network.vm(0).last_report.peak_live_bytes
        assert live_peak < keep_all_peak

    def test_estimate_matches_measured_float32_high_water(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        vm = network.vm(1)  # one whole instruction per layer, as the plan
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1))
        vm.run(fmb)
        # Float32 maps, batch 1: the compile-time estimate is exact.
        assert vm.last_report.peak_live_bytes == (
            network.plan().peak_live_bytes()
        )

    def test_perf_reconciliation_helper(self):
        from repro.perf.memory import activation_high_water

        network = Network(zoo.tincy_yolo_config())
        assert activation_high_water(network) == network.plan().peak_live_bytes()
        assert activation_high_water(network, bytes_per_element=1) == (
            network.plan().peak_live_bytes(bytes_per_element=1)
        )


class TestLegacyEquivalence:
    def test_tincy_bit_identical_to_legacy_walk(self, rng):
        network = _tincy(rng)
        frames = _frames(rng, network.input_shape, 2)
        out = network.forward_batch(FeatureMapBatch.from_maps(frames))
        for index, frame in enumerate(frames):
            one = FeatureMapBatch.from_maps([frame])
            legacy = legacy_forward_batch_all(network, one)[-1].frame(0)
            assert np.array_equal(out.frame(index).data, legacy.data)
            assert out.frame(index).scale == legacy.scale

    def test_route_network_bit_identical_to_legacy_walk(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        frames = _frames(rng, (2, 8, 8), 3)
        fmb = FeatureMapBatch.from_maps(frames)
        vm_all = network.forward_batch_all(fmb)
        legacy_all = legacy_forward_batch_all(network, fmb)
        assert len(vm_all) == len(legacy_all)
        for vm_fmb, legacy_fmb in zip(vm_all, legacy_all):
            assert np.array_equal(vm_fmb.data, legacy_fmb.data)
            assert vm_fmb.scale == legacy_fmb.scale

    def test_offload_hybrid_bit_identical_with_guard(self, rng, tmp_path):
        from tests.test_batched_inference import TestOffloadBatchedEquivalence
        from tests.test_finn_offload import FULL_CFG, _trained

        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
            folding=Folding(4, 4),
        )
        hybrid = Network.from_cfg(
            TestOffloadBatchedEquivalence.CFG.format(binparam=binparam)
        )
        for src_index, dst_index in ((0, 0), (4, 2)):
            src, dst = full.layers[src_index], hybrid.layers[dst_index]
            dst.weights = src.weights.copy()
            dst.biases = src.biases.copy()
            if src.batch_normalize:
                dst.scales = src.scales.copy()
                dst.rolling_mean = src.rolling_mean.copy()
                dst.rolling_var = src.rolling_var.copy()
        hybrid.layers[1].backend.load_weights()

        fmb = FeatureMapBatch.from_maps(_frames(rng, (3, 24, 24), 4))
        guard = RecordingGuard()
        out = hybrid.forward_batch(fmb, offload_guard=guard)
        legacy = legacy_forward_batch_all(hybrid, fmb)[-1]
        assert np.array_equal(out.data, legacy.data)
        assert out.scale == legacy.scale
        # The real [offload] layer is FABRIC-tagged, so the guard wrapped
        # exactly that one step.
        assert guard.entered == 1
        assert guard.max_in_flight == 1


class TestOffloadGuardByResourceTag:
    def test_guard_wraps_registered_fabric_layer(self, fake_fabric_network, rng):
        # Satellite: the guard keys off the FABRIC resource tag.  A
        # registered fabric-backed layer whose ltype is NOT "offload" must
        # still execute inside the guard (the legacy ltype compare missed it).
        guard = RecordingGuard()
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 6, 6), 2))
        out = fake_fabric_network.forward_batch(fmb, offload_guard=guard)
        assert guard.entered == 1
        legacy = legacy_forward_batch_all(fake_fabric_network, fmb)[-1]
        assert np.array_equal(out.data, legacy.data)

    def test_guard_skips_cpu_only_network(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        guard = RecordingGuard()
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1))
        network.forward_batch(fmb, offload_guard=guard)
        assert guard.entered == 0


class TestBatchHistoryContract:
    # Satellite: Layer.forward_batch enforces its signature instead of
    # silently ignoring mismatched history plumbing.
    def test_history_to_non_history_layer_is_typeerror(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        conv = network.layers[0]
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1))
        with pytest.raises(TypeError, match="does not consume a layer history"):
            conv.forward_batch(fmb, history=[fmb])

    def test_missing_history_for_route_is_valueerror(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        outputs = network.forward_batch_all(
            FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1))
        )
        route = network.layers[2]
        with pytest.raises(ValueError, match="history"):
            route.forward_batch(outputs[1])

    def test_run_batch_arity_is_checked(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1))
        with pytest.raises(ValueError, match="exactly one input"):
            network.layers[0].run_batch([fmb, fmb])


class TestDegenerateBatches:
    def test_empty_batch_through_executor(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        empty = FeatureMapBatch(np.zeros((0, 2, 8, 8), dtype=np.float32))
        out = network.vm().run(empty)
        assert out.batch == 0
        assert tuple(out.frame_shape) == network.plan().output_shape
        assert network.vm().last_report.batch == 0
        everything = network.vm(0).run_all(empty)
        assert [fmb.batch for fmb in everything] == [0] * len(network.layers)
        assert [tuple(fmb.frame_shape) for fmb in everything] == [
            tuple(layer.out_shape) for layer in network.layers
        ]

    def test_empty_batch_through_network(self, rng):
        network = _tincy(rng)
        empty = FeatureMapBatch(
            np.zeros((0,) + tuple(network.input_shape), dtype=np.float32)
        )
        out = network.forward_batch(empty)
        assert out.batch == 0
        assert tuple(out.frame_shape) == tuple(network.output_shape)

    def test_batch_of_one_matches_single_frame(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        frame = _frames(rng, (2, 8, 8), 1)[0]
        single = network.forward(frame)
        batched = network.forward_batch(FeatureMapBatch.from_maps([frame]))
        assert batched.batch == 1
        assert np.array_equal(batched.frame(0).data, single.data)

    def test_serve_empty_and_singleton(self, rng):
        from repro.serve import InferenceServer

        network = Network(zoo.mlp4_config())
        network.initialize(rng)
        frame = _frames(rng, network.input_shape, 1)[0]
        with InferenceServer(network) as server:
            assert server.infer_many([]) == []
            outs = server.infer_many([frame], timeout_s=30)
            assert len(outs) == 1
            assert np.array_equal(outs[0].data, network.forward(frame).data)


class TestInstrumentation:
    def test_report_covers_every_step(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        vm = network.vm(1)  # one whole instruction per layer
        fmb = FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 3))
        vm.run(fmb)
        report = vm.last_report
        assert report.batch == 3
        assert [s.index for s in report.steps] == list(range(len(network.layers)))
        assert all(s.wall_s >= 0.0 for s in report.steps)
        assert report.total_ops == 3 * network.total_ops()
        assert report.peak_live_bytes == max(s.live_bytes for s in report.steps)

    def test_on_step_hook_fires_in_order(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        seen = []
        vm = network.vm(1)
        vm.on_step = lambda s: seen.append(s.name)
        vm.run(FeatureMapBatch.from_maps(_frames(rng, (2, 8, 8), 1)))
        assert seen == [step.name for step in network.plan().steps]

    def test_serve_metrics_expose_plan_steps(self, rng):
        from repro.serve import InferenceServer

        network = Network(zoo.mlp4_config())
        network.initialize(rng)
        frames = _frames(rng, network.input_shape, 3)
        with InferenceServer(network) as server:
            server.infer_many(frames, timeout_s=30)
            snapshot = server.metrics.snapshot()
        steps = snapshot["plan_steps"]
        # The server runs the default -O2 program: one row per instruction.
        assert set(steps) == {
            i.name for i in network.vm().program.compute_instructions()
        }
        for entry in steps.values():
            assert entry["count"] >= 1
            assert entry["total_ms"] >= 0.0

    def test_executor_rejects_wrong_frame_shape(self, rng):
        network = Network.from_cfg(ROUTE_CFG)
        network.initialize(rng)
        bad = FeatureMapBatch(np.zeros((2, 2, 8, 9), dtype=np.float32))
        with pytest.raises(ValueError, match="do not match network"):
            network.vm().run(bad)
