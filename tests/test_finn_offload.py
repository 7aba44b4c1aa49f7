"""End-to-end offload tests: export -> binparam -> fabric.so -> Darknet cfg.

This is the Fig. 4 flow: a quantized network's hidden layers are exported
to a binparam bundle, and an ``[offload]`` layer with ``library=fabric.so``
replaces them inside the Darknet network.  The resulting hybrid network
must produce the same outputs as the original, level for level.
"""

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so)
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.finn.mvtu import Folding
from repro.finn.offload_backend import FabricBackend, export_offload
from repro.nn.config import Section
from repro.nn.network import Network
from tests.batch_of_one import forward_frame

FULL_CFG = """
[net]
width=24
height=24
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[convolutional]
batch_normalize=1
filters=12
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=16
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[convolutional]
filters=10
size=1
stride=1
pad=0
activation=linear
"""

HYBRID_CFG_TEMPLATE = """
[net]
width=24
height=24
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[offload]
library=fabric.so
network=hidden.cfg
weights={binparam}
height=6
width=6
channel=16

[convolutional]
filters=10
size=1
stride=1
pad=0
activation=linear
"""


def _trained(rng, cfg):
    net = Network.from_cfg(cfg)
    net.initialize(rng)
    for layer in net.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.biases = rng.normal(size=n).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.5).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
    return net


class TestExportRoundtrip:
    def test_hybrid_network_matches_original(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        hidden = full.layers[1:4]  # conv/pool/conv W1A3 run
        export_offload(
            hidden,
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
            folding=Folding(4, 4),
        )

        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        # Copy the CPU layers' parameters into the hybrid network.
        for src_index, dst_index in ((0, 0), (4, 2)):
            src, dst = full.layers[src_index], hybrid.layers[dst_index]
            dst.weights = src.weights.copy()
            dst.biases = src.biases.copy()
            if src.batch_normalize:
                dst.scales = src.scales.copy()
                dst.rolling_mean = src.rolling_mean.copy()
                dst.rolling_var = src.rolling_var.copy()
        hybrid.layers[1].backend.load_weights()

        x = FeatureMap(rng.normal(size=(3, 24, 24)).astype(np.float32))
        expected = full.forward(x)
        got = hybrid.forward(x)
        assert np.allclose(got.data, expected.data, atol=1e-5)

    def test_backend_validates_input_shape(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": binparam})
        with pytest.raises(ValueError, match="exported for input"):
            backend.init(section, (3, 24, 24))

    def test_backend_validates_scale_and_dtype(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": binparam})
        backend.init(section, full.layers[0].out_shape)
        with pytest.raises(ValueError, match="scale"):
            forward_frame(
                backend,
                FeatureMap(np.zeros(full.layers[0].out_shape, dtype=np.int32), 0.9),
            )
        with pytest.raises(ValueError, match="integer level codes"):
            forward_frame(
                backend,
                FeatureMap(
                    np.zeros(full.layers[0].out_shape, dtype=np.float32),
                    full.layers[0].out_quant.scale,
                ),
            )

    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_reference_forward_batch_equals_forward_batch(
        self, rng, tmp_path, batch
    ):
        """The degraded-mode CPU walk and the fabric batch path agree
        byte for byte, dtype and scale included, empty batch too."""
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": binparam})
        out_shape = backend.init(section, full.layers[0].out_shape)
        levels = rng.integers(
            0, 8, size=(batch,) + tuple(full.layers[0].out_shape)
        ).astype(np.int32)
        fmb = FeatureMapBatch(levels, scale=full.layers[0].out_quant.scale)
        fabric = backend.forward_batch(fmb)
        reference = backend.reference_forward_batch(fmb)
        assert reference.data.shape == fabric.data.shape == (batch,) + tuple(out_shape)
        assert reference.data.dtype == fabric.data.dtype == np.uint8
        assert reference.scale == fabric.scale
        assert reference.data.tobytes() == fabric.data.tobytes()

    def test_missing_directory(self):
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": "/nope"})
        with pytest.raises(FileNotFoundError):
            backend.init(section, (1, 1, 1))

    def test_plan_prices_each_slot_at_its_dtype(self, rng, tmp_path):
        """The offload emits its last stage's uint8 codes and the plan
        prices that slot at one byte, so the plan's live-bytes estimate is
        the VM's measured high water."""
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        hybrid.layers[1].backend.load_weights()
        plan = hybrid.plan()
        assert [step.out_dtype for step in plan.steps] == [
            np.uint8, np.uint8, np.float32
        ]
        vm = hybrid.vm(1)
        frames = rng.normal(size=(2, 3, 24, 24)).astype(np.float32)
        out = vm.run(FeatureMapBatch(frames))
        assert out.data.dtype == np.float32
        assert vm.last_report.peak_live_bytes == plan.arena_budget(2)

    def test_ops_per_frame_reaches_network_workload(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        offload_ops = hybrid.layers[1].workload().ops
        hidden_conv_ops = sum(
            l.workload().ops for l in full.layers[1:4] if l.ltype == "convolutional"
        )
        assert offload_ops == hidden_conv_ops

    def test_lifecycle_destroy(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam-mini")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        backend = hybrid.layers[1].backend
        hybrid.destroy()
        assert backend.accelerator is None


class TestExportVerification:
    def test_verify_passes_for_healthy_export(self, rng, tmp_path):
        full = _trained(rng, FULL_CFG)
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=str(tmp_path / "ok"),
            verify=True,
        )

    def test_verify_catches_corrupted_thresholds(self, rng, tmp_path):
        """Sabotage the compiled stage before verification: must fail."""
        from repro.finn.accelerator import compile_stages
        from repro.finn.offload_backend import verify_stages

        full = _trained(rng, FULL_CFG)
        hidden = full.layers[1:4]
        scale = full.layers[0].out_quant.scale
        shape = full.layers[0].out_shape
        stages = compile_stages(hidden, scale, shape)
        stages[0].conv.mvtu.thresholds.thresholds[:, :] += 50  # sabotage
        with pytest.raises(AssertionError, match="verification failed"):
            verify_stages(stages, hidden, scale, shape)
