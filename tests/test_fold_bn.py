"""Batch-norm folding tests."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.nn.config import Section
from repro.nn.fold_bn import fold_batchnorm_conv, fold_network_batchnorms
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.nn.network import Network
from tests.batch_of_one import forward_frame


def make_bn_conv(rng, filters=6, **extra):
    options = {
        "filters": str(filters),
        "size": "3",
        "stride": "1",
        "pad": "1",
        "activation": "leaky",
        "batch_normalize": "1",
    }
    options.update({k: str(v) for k, v in extra.items()})
    layer = ConvolutionalLayer(Section("convolutional", options))
    layer.init((3, 10, 10))
    layer.initialize(rng)
    layer.scales = rng.uniform(0.5, 2.0, size=filters).astype(np.float32)
    layer.biases = rng.normal(size=filters).astype(np.float32)
    layer.rolling_mean = (rng.normal(size=filters) * 2).astype(np.float32)
    layer.rolling_var = rng.uniform(0.5, 2.0, size=filters).astype(np.float32)
    return layer


class TestFoldConv:
    def test_fold_is_exact(self, rng):
        layer = make_bn_conv(rng)
        folded = fold_batchnorm_conv(layer)
        x = FeatureMap(rng.normal(size=(3, 10, 10)).astype(np.float32))
        assert np.allclose(
            forward_frame(folded, x).data,
            forward_frame(layer, x).data,
            atol=1e-4,
        )
        assert not folded.batch_normalize

    def test_fold_with_activation_quantization(self, rng):
        """Folding commutes with the downstream 3-bit activation quantizer."""
        layer = make_bn_conv(rng, activation="relu", activation_bits=3)
        folded = fold_batchnorm_conv(layer)
        x = FeatureMap(rng.normal(size=(3, 10, 10)).astype(np.float32))
        a, b = forward_frame(layer, x), forward_frame(folded, x)
        assert np.array_equal(a.data, b.data)
        assert a.scale == b.scale

    def test_original_layer_untouched(self, rng):
        layer = make_bn_conv(rng)
        weights_before = layer.weights.copy()
        fold_batchnorm_conv(layer)
        assert np.array_equal(layer.weights, weights_before)
        assert layer.batch_normalize

    def test_rejects_bn_free_layer(self, rng):
        layer = make_bn_conv(rng, batch_normalize=0)
        with pytest.raises(ValueError, match="no batch normalization"):
            fold_batchnorm_conv(layer)

    def test_rejects_quantized_weights(self, rng):
        layer = make_bn_conv(rng, binary=1)
        with pytest.raises(ValueError, match="thresholds"):
            fold_batchnorm_conv(layer)


class TestFoldNetwork:
    CFG = """
[net]
width=16
height=16
channels=3

[convolutional]
batch_normalize=1
filters=4
size=3
stride=1
pad=1
activation=relu

[convolutional]
batch_normalize=1
filters=6
size=3
stride=2
pad=1
activation=relu
binary=1
activation_bits=3

[convolutional]
batch_normalize=1
filters=4
size=1
stride=1
pad=0
activation=linear
"""

    def _network(self, rng):
        network = Network.from_cfg(self.CFG)
        network.initialize(rng)
        for layer in network.layers:
            n = layer.filters
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.biases = rng.normal(size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n)).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
        return network

    def test_folds_only_float_layers(self, rng):
        network = self._network(rng)
        x = FeatureMap(rng.normal(size=(3, 16, 16)).astype(np.float32))
        before = network.forward(x)
        count = fold_network_batchnorms(network)
        after = network.forward(x)
        assert count == 2  # the binary middle layer is skipped
        assert network.layers[1].batch_normalize  # fabric layer untouched
        assert np.allclose(before.data, after.data, atol=1e-4)
