"""Ternary-weight support (§II related work: Li et al., Prost-Boucle et al.)."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.nn.config import Section
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.train.layers import QConv2d
from tests.batch_of_one import forward_frame


def make_conv(**options):
    defaults = {
        "filters": "4",
        "size": "3",
        "stride": "1",
        "pad": "1",
        "activation": "linear",
        "batch_normalize": "0",
    }
    defaults.update({k: str(v) for k, v in options.items()})
    return ConvolutionalLayer(Section("convolutional", defaults))


class TestTernaryConvLayer:
    def test_effective_weights_three_levels(self, rng):
        layer = make_conv(ternary=1)
        layer.init((3, 6, 6))
        layer.initialize(rng)
        eff = layer.effective_weights()
        levels = np.unique(eff)
        assert len(levels) == 3
        assert 0.0 in levels
        assert levels[0] == -levels[-1]  # symmetric +-scale

    def test_twn_scale_is_mean_of_surviving_weights(self, rng):
        from repro.core.quantize import TernaryQuantizer

        layer = make_conv(ternary=1)
        layer.init((3, 6, 6))
        layer.initialize(rng)
        quantizer = TernaryQuantizer.from_weights(layer.weights)
        surviving = np.abs(layer.weights) > quantizer.threshold
        expected = float(np.mean(np.abs(layer.weights[surviving])))
        assert quantizer.scale == pytest.approx(expected)

    def test_binary_and_ternary_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_conv(binary=1, ternary=1)

    def test_forward_uses_ternary_weights(self, rng):
        layer = make_conv(ternary=1)
        layer.init((2, 5, 5))
        layer.initialize(rng)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        out = forward_frame(layer, FeatureMap(x)).data
        from repro.core.ops import conv2d

        expected = conv2d(x, layer.effective_weights(), layer.biases, 1, 1)
        assert np.allclose(out, expected, atol=1e-5)

    def test_ternary_closer_to_float_than_binary(self, rng):
        """The 'moderate retreat' claim: ternary approximates the float
        convolution better than full binarization (per-output correlation)."""
        float_layer = make_conv()
        float_layer.init((4, 12, 12))
        float_layer.initialize(rng)
        x = rng.normal(size=(4, 12, 12)).astype(np.float32)
        reference = forward_frame(float_layer, FeatureMap(x)).data

        def correlation(flag):
            layer = make_conv(**{flag: 1})
            layer.init((4, 12, 12))
            layer.weights = float_layer.weights.copy()
            out = forward_frame(layer, FeatureMap(x)).data
            a, b = out.ravel(), reference.ravel()
            return float(np.corrcoef(a, b)[0, 1])

        assert correlation("ternary") > correlation("binary")


class TestTernaryTraining:
    def test_qconv_ternary_forward_and_ste(self, rng):
        conv = QConv2d(2, 3, ternary=True, rng=rng)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        y = conv.forward(x)
        assert len(np.unique(conv.effective_weights())) == 3
        conv.backward(np.ones_like(y))
        assert np.any(conv.weight.grad != 0)

    def test_mutually_exclusive(self, rng):
        with pytest.raises(ValueError, match="mutually exclusive"):
            QConv2d(1, 1, binary=True, ternary=True, rng=rng)

    def test_ste_clips(self, rng):
        conv = QConv2d(1, 1, ksize=1, pad=0, ternary=True, rng=rng)
        conv.weight.value[...] = 5.0
        y = conv.forward(np.ones((1, 1, 2, 2), dtype=np.float32))
        conv.backward(np.ones_like(y))
        assert np.all(conv.weight.grad == 0)
