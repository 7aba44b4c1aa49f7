"""Layer-level unit tests (life cycle, geometry, quantization semantics)."""

import numpy as np
import pytest

from repro.core.quantize import BinaryQuantizer
from repro.core.tensor import FeatureMap
from repro.nn.config import Section
from repro.nn.layers.base import ArraySink, ArraySource
from repro.nn.layers.connected import ConnectedLayer
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.nn.layers.maxpool import MaxpoolLayer
from repro.nn.layers.region import RegionLayer
from tests.batch_of_one import forward_frame


def make_conv(**options):
    defaults = {
        "filters": "4",
        "size": "3",
        "stride": "1",
        "pad": "1",
        "activation": "leaky",
        "batch_normalize": "1",
    }
    defaults.update({k: str(v) for k, v in options.items()})
    return ConvolutionalLayer(Section("convolutional", defaults))


class TestConvLifecycle:
    def test_forward_before_init_fails(self, rng):
        layer = make_conv()
        with pytest.raises(RuntimeError, match="before init"):
            forward_frame(
                layer, FeatureMap(rng.normal(size=(3, 8, 8)).astype(np.float32))
            )

    def test_geometry(self):
        layer = make_conv(filters=16, stride=2)
        layer.init((3, 416, 416))
        assert layer.out_shape == (16, 208, 208)

    def test_weight_roundtrip(self, rng):
        layer = make_conv()
        layer.init((3, 8, 8))
        layer.initialize(rng)
        layer.biases = rng.normal(size=4).astype(np.float32)
        sink = ArraySink()
        layer.save_weights(sink)
        clone = make_conv()
        clone.init((3, 8, 8))
        clone.load_weights(ArraySource(sink.concatenated()))
        assert np.array_equal(clone.weights, layer.weights)
        assert np.array_equal(clone.biases, layer.biases)

    def test_num_params_counts_bn(self):
        layer = make_conv(filters=8)
        layer.init((3, 8, 8))
        assert layer.num_params() == 8 * 3 * 9 + 8 + 3 * 8
        plain = make_conv(filters=8, batch_normalize=0)
        plain.init((3, 8, 8))
        assert plain.num_params() == 8 * 3 * 9 + 8


class TestConvForward:
    def test_linear_no_bn_matches_reference(self, rng):
        from repro.core.ops import conv2d

        layer = make_conv(activation="linear", batch_normalize=0)
        layer.init((3, 8, 8))
        layer.initialize(rng)
        layer.biases = rng.normal(size=4).astype(np.float32)
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        got = forward_frame(layer, FeatureMap(x)).data
        expected = conv2d(x, layer.weights, layer.biases, 1, 1)
        assert np.allclose(got, expected, atol=1e-5)

    def test_binary_flag_binarizes_weights(self, rng):
        layer = make_conv(binary=1, activation="linear", batch_normalize=0)
        layer.init((3, 6, 6))
        layer.initialize(rng)
        eff = layer.effective_weights()
        assert set(np.unique(eff)) <= {-1.0, 1.0}
        assert np.array_equal(eff, BinaryQuantizer().quantize(layer.weights))

    def test_activation_bits_yields_level_codes(self, rng):
        layer = make_conv(activation="relu", activation_bits=3)
        layer.init((3, 6, 6))
        layer.initialize(rng)
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        out = forward_frame(layer, FeatureMap(x))
        assert out.scale == pytest.approx(1.0 / 7.0)
        assert out.data.min() >= 0 and out.data.max() <= 7
        assert np.issubdtype(out.data.dtype, np.integer)

    def test_batchnorm_beta_is_bias(self, rng):
        """Darknet stores BN beta in the bias slot; check the arithmetic."""
        layer = make_conv(activation="linear")
        layer.init((3, 5, 5))
        layer.initialize(rng)
        layer.scales = np.full(4, 2.0, dtype=np.float32)
        layer.biases = np.full(4, 1.5, dtype=np.float32)
        layer.rolling_mean = np.zeros(4, dtype=np.float32)
        layer.rolling_var = np.ones(4, dtype=np.float32)
        x = rng.normal(size=(3, 5, 5)).astype(np.float32)
        from repro.core.ops import conv2d

        raw = conv2d(x, layer.weights, None, 1, 1)
        got = forward_frame(layer, FeatureMap(x)).data
        assert np.allclose(got, 2.0 * raw / np.sqrt(1 + 1e-6) + 1.5, atol=1e-4)

    def test_quantized_input_accepted_via_scale(self, rng):
        layer = make_conv(activation="linear", batch_normalize=0)
        layer.init((2, 4, 4))
        layer.initialize(rng)
        levels = rng.integers(0, 8, size=(2, 4, 4))
        out_scaled = forward_frame(layer, FeatureMap(levels, scale=0.25)).data
        out_plain = forward_frame(
            layer, FeatureMap((levels * 0.25).astype(np.float32))
        ).data
        assert np.allclose(out_scaled, out_plain, atol=1e-5)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            make_conv(activation="swish")


class TestMaxpoolLayer:
    def test_tiny_yolo_geometries(self):
        pool = MaxpoolLayer(Section("maxpool", {"size": "2", "stride": "2"}))
        pool.init((16, 416, 416))
        assert pool.out_shape == (16, 208, 208)
        pool_s1 = MaxpoolLayer(Section("maxpool", {"size": "2", "stride": "1"}))
        pool_s1.init((512, 13, 13))
        assert pool_s1.out_shape == (512, 13, 13)

    def test_workload_is_positions_times_kernel(self):
        """Table I layer 2: 208*208*4 = 173,056 — channels NOT counted."""
        pool = MaxpoolLayer(Section("maxpool", {"size": "2", "stride": "2"}))
        pool.init((16, 416, 416))
        assert pool.workload().ops == 173_056

    def test_scale_passthrough(self, rng):
        pool = MaxpoolLayer(Section("maxpool", {"size": "2", "stride": "2"}))
        pool.init((2, 4, 4))
        fm = FeatureMap(rng.integers(0, 8, size=(2, 4, 4)), scale=1.0 / 7.0)
        out = forward_frame(pool, fm)
        assert out.scale == fm.scale


class TestConnectedLayer:
    def test_forward_matches_matmul(self, rng):
        layer = ConnectedLayer(
            Section("connected", {"output": "5", "activation": "linear"})
        )
        layer.init((2, 3, 3))
        layer.initialize(rng)
        layer.biases = rng.normal(size=5).astype(np.float32)
        x = rng.normal(size=(2, 3, 3)).astype(np.float32)
        got = forward_frame(layer, FeatureMap(x)).data.ravel()
        assert np.allclose(got, layer.weights @ x.ravel() + layer.biases, atol=1e-5)

    def test_workload(self):
        layer = ConnectedLayer(Section("connected", {"output": "1024"}))
        layer.init((1, 28, 28))
        assert layer.workload().ops == 2 * 784 * 1024

    def test_sign_activation(self, rng):
        layer = ConnectedLayer(
            Section("connected", {"output": "6", "activation": "sign", "binary": "1"})
        )
        layer.init((1, 2, 2))
        layer.initialize(rng)
        x = rng.normal(size=(1, 2, 2)).astype(np.float32)
        out = forward_frame(layer, FeatureMap(x))
        assert set(np.unique(out.data)) <= {-1.0, 1.0}


class TestRegionLayer:
    def _layer(self, h=13, w=13):
        layer = RegionLayer(Section("region", {"classes": "20", "num": "5"}))
        layer.init((125, h, w))
        return layer

    def test_channel_validation(self):
        layer = RegionLayer(Section("region", {"classes": "20", "num": "5"}))
        with pytest.raises(ValueError, match="channels"):
            layer.init((100, 13, 13))

    def test_forward_probability_structure(self, rng):
        layer = self._layer()
        fm = FeatureMap(rng.normal(size=(125, 13, 13)).astype(np.float32))
        out = forward_frame(layer, fm).data.reshape(5, 25, 13, 13)
        # x, y, objectness squashed into (0, 1)
        assert np.all((out[:, 0] > 0) & (out[:, 0] < 1))
        assert np.all((out[:, 4] > 0) & (out[:, 4] < 1))
        # class scores are a distribution per anchor and cell
        assert np.allclose(out[:, 5:].sum(axis=1), 1.0, atol=1e-5)

    def test_detections_threshold_and_geometry(self, rng):
        layer = self._layer()
        raw = np.full((125, 13, 13), -10.0, dtype=np.float32)
        # One confident detection: anchor 0, cell (6, 6), class 7.
        raw[4, 6, 6] = 10.0   # objectness logit
        raw[5 + 7, 6, 6] = 10.0  # class logit
        raw[0, 6, 6] = 0.0    # tx -> sigmoid = .5
        raw[1, 6, 6] = 0.0
        raw[2, 6, 6] = 0.0    # tw -> exp = 1
        raw[3, 6, 6] = 0.0
        out = forward_frame(layer, FeatureMap(raw))
        dets = layer.detections(out, threshold=0.5)
        assert len(dets) == 1
        det = dets[0]
        assert det.class_id == 7
        assert det.box.x == pytest.approx(6.5 / 13)
        assert det.box.w == pytest.approx(1.08 / 13)  # first anchor prior

    def test_anchor_count_validation(self):
        with pytest.raises(ValueError, match="anchor"):
            RegionLayer(
                Section("region", {"classes": "20", "num": "5", "anchors": "1,2"})
            )
