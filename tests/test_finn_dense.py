"""W1A1 dense fabric stages: sign thresholds, MVTU execution, end-to-end.

The headline test trains a miniature binary MLP (the MLP-4 structure) on
glyph data, exports it layer by layer onto the simulated fabric and checks
the fabric classifier predicts *identically* to the trained float-emulated
network — the full FINN story for the Table II show cases.
"""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.finn.dense import (
    MVTUBipolarConvLayer,
    MVTUDenseLayer,
    compile_dense_stage,
    derive_sign_thresholds,
)
from repro.finn.mvtu import MVTU, Folding
from repro.nn.config import Section
from repro.nn.layers.connected import ConnectedLayer
from tests.batch_of_one import forward_frame


def _bn(rng, n):
    return (
        rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n),
        rng.normal(size=n),
        rng.normal(size=n) * 2,
        rng.uniform(0.3, 2.0, size=n),
    )


class TestSignThresholds:
    def test_matches_float_pipeline(self, rng):
        n = 16
        gamma, beta, mean, var = _bn(rng, n)
        ta = derive_sign_thresholds(gamma, beta, mean, var, in_scale=1.0, fan_in=2)
        acc = rng.integers(-200, 200, size=(n, 64))
        got = ta.apply(acc)
        y = (
            gamma[:, None] * (acc - mean[:, None]) / np.sqrt(var[:, None] + 1e-6)
            + beta[:, None]
        )
        expected = (y >= 0).astype(np.int32)
        assert np.array_equal(got, expected)

    def test_zero_gamma(self):
        ta = derive_sign_thresholds(
            np.array([0.0, 0.0]),
            np.array([1.0, -1.0]),
            np.zeros(2),
            np.ones(2),
            fan_in=5,
        )
        got = ta.apply(np.array([[-5, 5], [-5, 5]]))
        assert got[0].tolist() == [1, 1]
        assert got[1].tolist() == [0, 0]

    def test_single_threshold_per_neuron(self, rng):
        gamma, beta, mean, var = _bn(rng, 4)
        ta = derive_sign_thresholds(gamma, beta, mean, var, fan_in=1)
        assert ta.thresholds.shape == (4, 1)
        assert ta.bits == 1


#: Zero crossings 5e-10 .. 2e-9 either side of accumulator 10, where a
#: ``ceil(x - 1e-9)`` guard would decide the level by fiat.
NUDGES = np.array([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10, -5e-10])

#: Inputs of the probe stages: ``acc = 2 * popcount - INPUTS`` sweeps
#: ``-24, -22, ..., 24`` over popcounts 0..24, through 10.
INPUTS = 24


def _near_tie_bn(gamma):
    channels = NUDGES.size
    zeros, ones = np.zeros(channels), np.ones(channels)
    return np.full(channels, gamma), zeros, 10.0 + NUDGES, ones


def _tiny_gain_bn():
    """Gains of +-1e-30: a sentinel with beta != 0, a real crossing at 3.5
    with beta == 0."""
    gamma = np.array([1e-30, -1e-30, 1e-30, -1e-30, 1e-30, -1e-30])
    beta = np.array([0.5, 0.5, -0.5, -0.5, 0.0, 0.0])
    mean = np.array([0.0, 0.0, 0.0, 0.0, 3.5, 3.5])
    return gamma, beta, mean, np.ones(6)


def _sign_reference(acc, gamma, beta, mean, var, eps=1e-6):
    """The float64 ``bn(acc) >= 0`` a sign table replicates, per channel."""
    gamma, beta, mean, var = (
        np.asarray(a, np.float64)[:, np.newaxis] for a in (gamma, beta, mean, var)
    )
    y = gamma * (acc - mean) / np.sqrt(var + eps) + beta
    return (y >= 0).astype(np.int32)


def _all_ones_mvtu(bn):
    thresholds = derive_sign_thresholds(*bn, fan_in=INPUTS)
    weights = np.ones((thresholds.channels, INPUTS), dtype=np.int64)
    return MVTU(weights, thresholds, Folding(1, 1))


def _popcount_columns():
    """``(INPUTS, INPUTS + 1)`` bits: column ``p`` has popcount ``p``."""
    return (np.arange(INPUTS)[:, None] < np.arange(INPUTS + 1)).astype(np.int64)


def _swept_acc(bn):
    """The accumulators of :func:`_popcount_columns` on every channel."""
    acc = 2 * np.arange(INPUTS + 1) - INPUTS
    return np.broadcast_to(acc, (len(bn[0]), acc.size)).astype(np.float64)


EDGE_CASES = [_near_tie_bn(g) for g in (1.0, -1.0, 0.5, -0.25)] + [_tiny_gain_bn()]
EDGE_IDS = ["tie-gain1", "tie-gain-1", "tie-gain0.5", "tie-gain-0.25", "gain1e-30"]


class TestSignTableEdges:
    """Near ties and +-1e-30 gains, through both W1A1 stage kinds, against
    the float64 reference."""

    @pytest.mark.parametrize("bn", EDGE_CASES, ids=EDGE_IDS)
    def test_dense_stage(self, bn):
        layer = MVTUDenseLayer(_all_ones_mvtu(bn), inputs=INPUTS)
        got = np.stack(
            [layer.forward(FeatureMap(bits.reshape(-1, 1, 1))).data.ravel()
             for bits in _popcount_columns().T],
            axis=1,
        )
        np.testing.assert_array_equal(got, _sign_reference(_swept_acc(bn), *bn))

    @pytest.mark.parametrize("bn", EDGE_CASES, ids=EDGE_IDS)
    def test_bipolar_conv_stage(self, bn):
        # A 1x1 conv over INPUTS channels on a 5x5 map: pixel p has popcount p.
        stage = MVTUBipolarConvLayer(_all_ones_mvtu(bn), in_channels=INPUTS, ksize=1)
        bits = _popcount_columns().reshape(INPUTS, 5, 5)
        got = stage.forward(FeatureMap(bits)).data.reshape(len(bn[0]), -1)
        np.testing.assert_array_equal(got, _sign_reference(_swept_acc(bn), *bn))


class TestMVTUDenseLayer:
    def _layer(self, rng, inputs=32, outputs=8):
        weights = rng.choice([-1, 1], size=(outputs, inputs))
        gamma, beta, mean, var = _bn(rng, outputs)
        thresholds = derive_sign_thresholds(gamma, beta, mean, var, fan_in=inputs)
        mvtu = MVTU(weights, thresholds, Folding(4, 8))
        return MVTUDenseLayer(mvtu, inputs=inputs), (weights, gamma, beta, mean, var)

    def test_matches_bipolar_reference(self, rng):
        layer, (weights, gamma, beta, mean, var) = self._layer(rng)
        bits = rng.integers(0, 2, size=32)
        out = layer.forward(FeatureMap(bits.reshape(-1, 1, 1)))
        acc = weights @ (2 * bits - 1)
        y = gamma * (acc - mean) / np.sqrt(var + 1e-6) + beta
        assert np.array_equal(out.data.ravel(), (y >= 0).astype(np.int32))

    def test_rejects_non_binary_levels(self, rng):
        layer, _ = self._layer(rng)
        with pytest.raises(ValueError, match="0,1"):
            layer.forward(FeatureMap(np.full((32, 1, 1), 3)))

    def test_rejects_wrong_size(self, rng):
        layer, _ = self._layer(rng)
        with pytest.raises(ValueError, match="inputs"):
            layer.forward(FeatureMap(np.zeros((16, 1, 1), dtype=np.int64)))

    def test_cycles_follow_folding(self, rng):
        layer, _ = self._layer(rng, inputs=64, outputs=16)
        assert layer.cycles() == Folding(4, 8).fold(16, 64)

    def test_requires_1bit_thresholds(self, rng):
        from repro.core.thresholds import ThresholdActivation

        thresholds = ThresholdActivation(
            np.zeros((4, 7), dtype=np.int64), np.ones(4, dtype=np.int8), bits=3
        )
        mvtu = MVTU(rng.choice([-1, 1], size=(4, 8)), thresholds, Folding(1, 1))
        with pytest.raises(ValueError, match="1-bit"):
            MVTUDenseLayer(mvtu, inputs=8)


class TestCompileDenseStage:
    def _connected(self, rng, inputs=20, outputs=6):
        layer = ConnectedLayer(
            Section(
                "connected",
                {
                    "output": str(outputs),
                    "activation": "sign",
                    "binary": "1",
                    "batch_normalize": "1",
                },
            )
        )
        layer.init((inputs, 1, 1))
        layer.initialize(rng)
        gamma, beta, mean, var = _bn(rng, outputs)
        layer.scales = gamma.astype(np.float32)
        layer.biases = beta.astype(np.float32)
        layer.rolling_mean = mean.astype(np.float32)
        layer.rolling_var = var.astype(np.float32)
        return layer

    def test_equivalence_with_darknet_layer(self, rng):
        layer = self._connected(rng)
        stage = compile_dense_stage(layer, Folding(2, 4))
        bipolar = rng.choice([-1.0, 1.0], size=(20, 1, 1)).astype(np.float32)
        float_out = forward_frame(layer, FeatureMap(bipolar))
        bits = ((bipolar + 1) / 2).astype(np.int64)
        fabric_out = stage.forward(FeatureMap(bits))
        # float path emits {-1,+1}; fabric emits {0,1}: same information.
        assert np.array_equal(
            (float_out.data.ravel() > 0).astype(np.int32),
            fabric_out.data.ravel(),
        )

    def test_tiny_gains_bind(self, rng):
        layer = self._connected(rng)
        layer.scales = np.array([1e-30, -1e-30] * 3, np.float32)
        table = compile_dense_stage(layer, Folding(2, 4)).mvtu.thresholds
        bn = (layer.scales, layer.biases, layer.rolling_mean, layer.rolling_var)
        acc = np.arange(-20, 21)
        acc = np.broadcast_to(acc, (6, acc.size)).astype(np.float64)
        np.testing.assert_array_equal(table.apply(acc), _sign_reference(acc, *bn))

    def test_guards(self, rng):
        layer = self._connected(rng)
        layer.binary = False
        with pytest.raises(ValueError, match="binary"):
            compile_dense_stage(layer, Folding(1, 1))


class TestEndToEndMLP:
    def test_trained_binary_mlp_runs_on_fabric_identically(self):
        """Train a mini MLP-4 (W1A1), export to fabric stages, compare."""
        from repro.data.classify import mnist_like
        from repro.train.classify import (
            binarize_images,
            mini_mlp,
            train_classifier,
        )
        from repro.train.dense_layers import BatchNorm1d, QLinear

        dataset = mnist_like(seed=5)
        model = mini_mlp(hidden=32, n_hidden_layers=2, binary=True, seed=3)
        result = train_classifier(model, dataset, steps=120, batch_size=32)
        assert result.accuracy > 0.6  # well above 10% chance

        # Export: pair each hidden QLinear with its BatchNorm1d.
        modules = model.modules
        linears = [m for m in modules if isinstance(m, QLinear)]
        bns = [m for m in modules if isinstance(m, BatchNorm1d)]
        stages = []
        for linear, bn in zip(linears[:-1], bns):
            thresholds = derive_sign_thresholds(
                bn.gamma.value, bn.beta.value,
                bn.running_mean, bn.running_var, eps=bn.eps,
                fan_in=linear.weight.value.shape[1],
            )
            mvtu = MVTU(linear.effective_weights(), thresholds, Folding(4, 8))
            stages.append(MVTUDenseLayer(mvtu, inputs=linear.weight.value.shape[1]))
        head = linears[-1]
        head_weights = head.effective_weights().astype(np.int64)
        head_bias = head.bias.value

        images, labels = dataset.batch(10_000, 64)
        bipolar = binarize_images(images)
        expected = model.forward(bipolar, training=False).argmax(axis=1)

        got = []
        for image in bipolar:
            bits = ((image.reshape(-1) + 1) / 2).astype(np.int64)
            fm = FeatureMap(bits.reshape(-1, 1, 1))
            for stage in stages:
                fm = stage.forward(fm)
            bipolar_hidden = 2 * fm.data.ravel().astype(np.int64) - 1
            logits = head_weights @ bipolar_hidden + head_bias
            got.append(int(np.argmax(logits)))
        assert np.array_equal(np.asarray(got), expected)
