"""W1A1 bipolar convolutions on the fabric — the CNV-6 regime.

Ends with CNV-6's entire binary section (5 hidden convs + 2 pools + 3 FC
layers) running on simulated MVTU stages and agreeing with the float
W1A1 network exactly.
"""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.finn.dense import (
    MVTUBipolarConvLayer,
    compile_bipolar_conv_stage,
    compile_dense_stage,
    derive_sign_thresholds,
)
from repro.finn.mvtu import MVTU, Folding
from repro.nn.network import Network
from repro.nn.zoo import cnv6_config
from tests.batch_of_one import forward_frame


def _randomize_bn(network, rng):
    for layer in network.layers:
        if layer.ltype not in ("convolutional", "connected"):
            continue
        n = layer.out_shape[0]
        layer.biases = rng.normal(size=n).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 2).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)


class TestBipolarConvStage:
    def _stage(self, rng, c_in=4, c_out=6, k=3):
        weights = rng.choice([-1, 1], size=(c_out, c_in * k * k))
        thresholds = derive_sign_thresholds(
            gamma=rng.uniform(0.5, 2.0, size=c_out),
            beta=rng.normal(size=c_out),
            mean=rng.normal(size=c_out) * 3,
            var=rng.uniform(0.5, 2.0, size=c_out),
            fan_in=c_in * k * k,
        )
        mvtu = MVTU(weights, thresholds, Folding(2, 4))
        return MVTUBipolarConvLayer(mvtu, in_channels=c_in, ksize=k), weights

    def test_matches_bipolar_reference(self, rng):
        stage, weights = self._stage(rng)
        bits = rng.integers(0, 2, size=(4, 8, 8))
        out = stage.forward(FeatureMap(bits))
        assert out.shape == (6, 6, 6)
        # reference: conv in the bipolar domain + BN + sign
        from repro.core.im2col import im2col

        bipolar = 2 * bits.astype(np.int64) - 1
        acc = weights @ im2col(bipolar, 3, 1, 0)
        assert np.array_equal(
            out.data.reshape(6, -1),
            stage.mvtu.thresholds.apply(acc),
        )

    def test_rejects_non_binary_levels(self, rng):
        stage, _ = self._stage(rng)
        with pytest.raises(ValueError, match="0,1"):
            stage.forward(FeatureMap(np.full((4, 8, 8), 2)))

    def test_cycles(self, rng):
        stage, _ = self._stage(rng)
        assert stage.cycles((4, 8, 8)) == 36 * Folding(2, 4).fold(6, 36)


class TestCompileGuards:
    def test_requires_valid_convolution(self, rng):
        net = Network.from_cfg(
            "[net]\nwidth=8\nheight=8\nchannels=2\n"
            "[convolutional]\nbatch_normalize=1\nfilters=4\nsize=3\nstride=1\n"
            "pad=1\nactivation=sign\nbinary=1\n"
        )
        with pytest.raises(ValueError, match="unpadded"):
            compile_bipolar_conv_stage(net.layers[0], Folding(1, 1))


class TestCNV6OnFabric:
    def test_binary_section_agrees_with_float_network(self, rng):
        """CNV-6 layers 2..9 (binary convs, pools, dense) on the fabric."""
        network = Network(cnv6_config())
        network.initialize(rng)
        _randomize_bn(network, rng)

        # Float path: run the first (8-bit) conv, then everything else.
        x = FeatureMap(rng.uniform(size=(3, 32, 32)).astype(np.float32))
        fm = forward_frame(network.layers[0], x)          # conv1: relu output, float
        # Binarize conv1's output the FINN way before the W1A1 section.
        bipolar = np.where(fm.values() >= 0.5, 1.0, -1.0).astype(np.float32)
        float_fm = FeatureMap(bipolar)
        for layer in network.layers[1:-1]:          # up to the last connected
            float_fm = forward_frame(layer, float_fm)

        # Fabric path: compile each binary layer; pools act on level codes.
        from repro.core.ops import maxpool2d

        bits_fm = FeatureMap(((bipolar + 1) / 2).astype(np.int64))
        fabric_fm = bits_fm
        for layer in network.layers[1:-1]:
            if layer.ltype == "convolutional":
                stage = compile_bipolar_conv_stage(layer, Folding(4, 8))
                fabric_fm = stage.forward(fabric_fm)
            elif layer.ltype == "maxpool":
                pooled = maxpool2d(
                    fabric_fm.data.astype(np.float64), layer.size, layer.stride,
                    layer.padding,
                )
                fabric_fm = FeatureMap(pooled.astype(np.int64))
            elif layer.ltype == "connected":
                if layer.activation == "sign":
                    stage = compile_dense_stage(layer, Folding(4, 8))
                    fabric_fm = stage.forward(fabric_fm)
                else:
                    # final classifier layer: raw bipolar logits
                    bipolar_in = 2 * fabric_fm.data.ravel().astype(np.int64) - 1
                    logits = (
                        layer.effective_weights().astype(np.int64) @ bipolar_in
                        + layer.biases
                    )
                    fabric_fm = FeatureMap(
                        logits.reshape(-1, 1, 1).astype(np.float32)
                    )
            else:
                raise AssertionError(f"unexpected layer {layer.ltype}")

        # The float path's last connected layer is 'linear' (no sign), so
        # float_fm already holds logits; compare classification outcomes.
        assert np.argmax(fabric_fm.data) == np.argmax(float_fm.data)
        assert np.allclose(
            fabric_fm.data.ravel(), float_fm.data.ravel(), atol=1e-3
        )

    def test_pool_on_level_codes_equals_pool_on_bipolar(self, rng):
        """max over {0,1} codes == max over {-1,+1} values (monotone map)."""
        from repro.core.ops import maxpool2d

        bits = rng.integers(0, 2, size=(3, 8, 8))
        bipolar = 2 * bits - 1
        pooled_bits = maxpool2d(bits.astype(np.float64), 2, 2)
        pooled_bipolar = maxpool2d(bipolar.astype(np.float64), 2, 2)
        assert np.array_equal(2 * pooled_bits - 1, pooled_bipolar)
