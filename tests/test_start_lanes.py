"""A start on every core: the weights digest and bind run as lane items.

``PlanVM`` binds in one :func:`repro.core.lanes.run` call: the leaves of
the weights tree digest and one item per layer the program's constants
name.  These tests pin what that must not change — a weight edited in
place is still refused, a failing item still fails the bind, the golden
frame is bit-identical at one and two lanes, a program without
constants still hashes — and the rule that an item fills arrays the
binding thread allocated.  They also pin that importing the lanes sets
the bundled OpenBLAS to one thread.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core import lanes
from repro.core.tensor import FeatureMapBatch
from repro.isa import BindError, PlanCache, PlanVM, compile_network
from repro.nn import zoo
from repro.nn.network import Network
from tests.test_golden_e2e import (  # noqa: F401  (module fixtures)
    GOLDEN_DETECTIONS_SHA256,
    detections_digest,
    golden_frame,
    golden_tincy_network,
    tincy_hybrid,
)


def _cnv6() -> Network:
    network = Network(zoo.cnv6_config())
    network.initialize(np.random.default_rng(3))
    return network


@pytest.fixture(params=[1, 2], ids=["one-lane", "two-lanes"])
def lane_count(request, monkeypatch):
    monkeypatch.setattr(lanes, "_LANES", request.param)
    return request.param


class TestBindOnLanes:
    def test_a_weight_edited_after_the_cache_lookup_is_refused(
        self, tmp_path, lane_count
    ):
        network = _cnv6()
        program, _hit = PlanCache(str(tmp_path)).get_or_compile(
            network, name="cnv6"
        )
        weights = [  # in the stream's last leaf
            layer.weights for layer in network.layers if hasattr(layer, "weights")
        ][-1]
        kept = weights.flat[0]
        weights.flat[0] = kept + 1.0
        with pytest.raises(BindError, match="weights hash mismatch"):
            PlanVM(program, network)
        weights.flat[0] = kept
        PlanVM(program, network)

    def test_a_failing_bind_item_fails_the_bind(self, lane_count, monkeypatch):
        network = _cnv6()
        program, _stats = compile_network(network, name="cnv6", level=2)
        named = {index for _kind, index, _param in program.constants}
        victim = network.layers[max(named)]

        def failing(in_scales):
            def job():
                raise RuntimeError("bind item failed")

            return job

        monkeypatch.setattr(victim, "constants_job", failing)
        vm = None
        with pytest.raises(RuntimeError, match="bind item failed"):
            vm = PlanVM(program, network)
        assert vm is None

    def test_items_fill_arrays_the_binding_thread_allocated(self):
        network = golden_tincy_network()
        layer = network.layers[12]  # 9.4 MB of weights
        layer.scales = layer.scales.copy()
        layer.scales[::3] *= -1.0  # a fold that must copy the weights
        tracemalloc.start()
        try:
            job = layer.constants_job([layer.out_quant.scale])
            before, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            job()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert before >= 2 * layer.weights.nbytes  # +-1 and folded panels
        assert peak - before < layer.weights.nbytes // 16
        kernel = layer._band_cache[2]
        assert not np.shares_memory(kernel.weights, layer.effective_weights())

    def test_the_golden_frame_is_bit_identical_at_one_and_two_lanes(
        self, golden_frame, monkeypatch
    ):
        source = golden_tincy_network()
        program, _stats = compile_network(source, name="tincy", level=2)
        assert program.constants
        batch = FeatureMapBatch.from_maps([golden_frame])
        outputs = []
        for count in (1, 2):
            monkeypatch.setattr(lanes, "_LANES", count)
            network = golden_tincy_network()  # cold caches: bind derives them
            out = PlanVM(program, network).run(batch).frame(0)
            outputs.append(out.copy())
        assert outputs[0].scale == outputs[1].scale
        assert np.array_equal(outputs[0].data, outputs[1].data)
        region = source.layers[-1]
        assert detections_digest(region, outputs[1]) == GOLDEN_DETECTIONS_SHA256

    def test_a_program_without_constants_still_hashes_at_bind(
        self, tincy_hybrid, lane_count, monkeypatch
    ):
        program, _stats = compile_network(tincy_hybrid, name="tincy", level=2)
        bare = replace(program, constants=())
        assert bare.weights_sha256 and bare.uses_fabric
        first = tincy_hybrid.layers[0]
        calls = []
        original = first.save_weights
        monkeypatch.setattr(
            first, "save_weights", lambda sink: (calls.append(1), original(sink))[1]
        )
        PlanVM(bare, tincy_hybrid)
        assert calls == [1]
        kept = first.weights.flat[0]
        first.weights.flat[0] = kept + 1.0
        try:
            with pytest.raises(BindError, match="weights hash mismatch"):
                PlanVM(bare, tincy_hybrid)
        finally:
            first.weights.flat[0] = kept


def test_importing_the_lanes_pins_openblas_to_one_thread():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    probe = (
        "from repro.core import lanes\n"
        "calls = lanes._openblas()\n"
        "print('absent' if calls is None else calls[1]())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout.split()
    assert out[-1] in ("1", "absent")
    if out[-1] == "absent":
        pytest.skip("no OpenBLAS thread entry point in this numpy build")
