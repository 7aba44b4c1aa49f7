"""Network construction / forward / weights / offload integration tests."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn.network import Network
from repro.nn.registry import register_backend, unregister_backend
from repro.nn.weights import load_weights, save_weights

SMALL_CFG = """
[net]
width=16
height=16
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
filters=4
size=1
stride=1
pad=0
activation=linear
"""


class TestBuild:
    def test_shapes_propagate(self):
        net = Network.from_cfg(SMALL_CFG)
        assert net.input_shape == (3, 16, 16)
        assert [layer.out_shape for layer in net.layers] == [
            (8, 16, 16),
            (8, 8, 8),
            (4, 8, 8),
        ]

    def test_unknown_layer_type(self):
        with pytest.raises(ValueError, match="unknown layer type"):
            Network.from_cfg("[net]\nwidth=8\nheight=8\nchannels=1\n[frobnicate]\nx=1")

    def test_forward_shape_and_determinism(self, rng):
        net = Network.from_cfg(SMALL_CFG)
        net.initialize(rng)
        x = FeatureMap(
            np.random.default_rng(7).normal(size=(3, 16, 16)).astype(np.float32)
        )
        out1 = net.forward(x)
        out2 = net.forward(x)
        assert out1.shape == (4, 8, 8)
        assert np.array_equal(out1.data, out2.data)

    def test_forward_rejects_wrong_input(self, rng):
        net = Network.from_cfg(SMALL_CFG)
        with pytest.raises(ValueError, match="input shape"):
            net.forward(FeatureMap(np.zeros((1, 16, 16), dtype=np.float32)))

    def test_forward_all_collects_intermediates(self, rng):
        net = Network.from_cfg(SMALL_CFG)
        net.initialize(rng)
        x = FeatureMap(rng.normal(size=(3, 16, 16)).astype(np.float32))
        outputs = net.forward_batch_all(FeatureMapBatch.from_maps([x]))
        assert len(outputs) == 3
        assert np.array_equal(outputs[-1].frame(0).data, net.forward(x).data)


class TestWeightsFile:
    def test_darknet_roundtrip(self, rng, tmp_path):
        net = Network.from_cfg(SMALL_CFG)
        net.initialize(rng)
        for layer in net.layers:
            if hasattr(layer, "biases") and layer.biases is not None:
                layer.biases = rng.normal(size=layer.biases.shape).astype(np.float32)
        path = str(tmp_path / "net.weights")
        save_weights(net, path, seen=12345)
        clone = Network.from_cfg(SMALL_CFG)
        seen = load_weights(clone, path)
        assert seen == 12345
        assert np.array_equal(clone.save_weights_array(), net.save_weights_array())
        x = FeatureMap(rng.normal(size=(3, 16, 16)).astype(np.float32))
        assert np.array_equal(clone.forward(x).data, net.forward(x).data)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.weights"
        path.write_bytes(b"\x00" * 4)
        with pytest.raises(ValueError, match="truncated"):
            load_weights(Network.from_cfg(SMALL_CFG), str(path))

    def test_surplus_floats_rejected(self, rng, tmp_path):
        net = Network.from_cfg(SMALL_CFG)
        net.initialize(rng)
        path = str(tmp_path / "net.weights")
        save_weights(net, path)
        with open(path, "ab") as handle:
            handle.write(np.zeros(3, dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match="unconsumed"):
            load_weights(Network.from_cfg(SMALL_CFG), path)


class _DoublerBackend:
    """A minimal Fig. 3 backend: doubles the input, halves the geometry."""

    def __init__(self):
        self.loaded = False
        self.destroyed = False

    def init(self, section, in_shape):
        c, h, w = in_shape
        return (c, h // 2, w // 2)

    def load_weights(self):
        self.loaded = True

    def forward_batch(self, fmb):
        data = fmb.data[:, :, ::2, ::2] * 2
        return FeatureMapBatch(data, scale=fmb.scale)

    def destroy(self):
        self.destroyed = True


OFFLOAD_CFG = """
[net]
width=8
height=8
channels=2

[offload]
library=test.doubler
network=sub.json
weights=binparam/
height=4
width=4
channel=2
"""


class TestOffloadIntegration:
    def setup_method(self):
        self.backend = _DoublerBackend()
        register_backend("test.doubler", lambda: self.backend)

    def teardown_method(self):
        unregister_backend("test.doubler")

    def test_life_cycle_hooks_run(self, rng):
        net = Network.from_cfg(OFFLOAD_CFG)
        net.load_weights_array(np.zeros(0, dtype=np.float32))
        assert self.backend.loaded
        x = FeatureMap(rng.normal(size=(2, 8, 8)).astype(np.float32))
        out = net.forward(x)
        assert out.shape == (2, 4, 4)
        assert np.allclose(out.data, x.data[:, ::2, ::2] * 2)
        net.destroy()
        assert self.backend.destroyed

    def test_geometry_mismatch_detected(self):
        bad_cfg = OFFLOAD_CFG.replace("channel=2", "channel=3")
        with pytest.raises(ValueError, match="declares"):
            Network.from_cfg(bad_cfg)

    def test_unregistered_library_fails(self):
        cfg = OFFLOAD_CFG.replace("test.doubler", "missing.so")
        with pytest.raises(LookupError, match="missing.so"):
            Network.from_cfg(cfg)

    def test_import_path_resolution(self):
        cfg = OFFLOAD_CFG.replace(
            "library=test.doubler", "library=tests.test_nn_network:_DoublerBackend"
        )
        net = Network.from_cfg(cfg)
        assert net.output_shape == (2, 4, 4)
