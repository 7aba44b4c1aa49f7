"""Activation-scale calibration and SQNR tests."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.nn.calibrate import calibrate_activation_scales, quantization_sqnr
from repro.nn.network import Network

QUANT_CFG = """
[net]
width=16
height=16
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
filters=8
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[convolutional]
filters=4
size=1
stride=1
pad=0
activation=linear
"""


def _network(rng, activation_gain=1.0):
    network = Network.from_cfg(QUANT_CFG)
    network.initialize(rng)
    for layer in network.layers:
        n = layer.filters
        layer.biases = (rng.normal(size=n) * 0.05).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = (
                rng.uniform(0.5, 1.5, size=n) * activation_gain
            ).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.1).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 1.5, size=n).astype(np.float32)
    return network


def _samples(rng, count=4):
    return [rng.uniform(size=(3, 16, 16)).astype(np.float32) for _ in range(count)]


class TestCalibration:
    def test_scales_follow_activation_magnitude(self, rng):
        """A network with 5x hotter activations calibrates to ~5x the step."""
        cool = _network(np.random.default_rng(0), activation_gain=1.0)
        hot = _network(np.random.default_rng(0), activation_gain=5.0)
        samples = _samples(rng)
        cool_scales = calibrate_activation_scales(cool, samples)
        hot_scales = calibrate_activation_scales(hot, samples)
        first = min(cool_scales)
        ratio = hot_scales[first] / cool_scales[first]
        assert 3.0 < ratio < 8.0

    def test_calibration_improves_sqnr_for_hot_network(self, rng):
        """With activations above 1, the default [0,1] range clips hard;
        calibration must recover output fidelity."""
        samples = _samples(rng, count=4)
        before = _network(np.random.default_rng(3), activation_gain=4.0)
        sqnr_before = quantization_sqnr(before, samples)
        after = _network(np.random.default_rng(3), activation_gain=4.0)
        calibrate_activation_scales(after, samples)
        sqnr_after = quantization_sqnr(after, samples)
        assert sqnr_after > sqnr_before + 3.0  # at least 3 dB better

    def test_scales_written_back_to_cfg(self, rng):
        network = _network(rng)
        scales = calibrate_activation_scales(network, _samples(rng, 2))
        for index, scale in scales.items():
            section = network.layers[index].section
            assert float(section.options["activation_scale"]) == pytest.approx(
                scale
            )

    @pytest.mark.parametrize(
        "gain, written",
        [
            (1.0, ["0.19624173641204834", "1.0750751495361328", None]),
            (4.0, ["0.7791171073913574", "8.650841304234095", None]),
        ],
    )
    def test_written_scales_are_pinned(self, gain, written):
        """The exact ``activation_scale`` strings a seeded network
        calibrates to (pinned when calibration recomputed conv + BN/bias +
        activation itself; observing through the layer's own
        ``forward_batch_pre`` must not move a digit)."""
        network = _network(np.random.default_rng(11), activation_gain=gain)
        calibrate_activation_scales(network, _samples(np.random.default_rng(12), 3))
        options = [layer.section.options for layer in network.layers]
        assert [o.get("activation_scale") for o in options] == written

    def test_only_quantized_layers_touched(self, rng):
        network = _network(rng)
        scales = calibrate_activation_scales(network, _samples(rng, 2))
        assert sorted(scales) == [0, 1]  # the final float conv is untouched

    def test_no_inputs_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            calibrate_activation_scales(_network(rng), [])

    def test_bad_percentile_rejected(self, rng):
        with pytest.raises(ValueError, match="percentile"):
            calibrate_activation_scales(_network(rng), _samples(rng, 1), percentile=0)

    def test_unquantized_network_is_noop(self, rng):
        cfg = (
            "[net]\nwidth=8\nheight=8\nchannels=3\n"
            "[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\n"
            "activation=relu\n"
        )
        network = Network.from_cfg(cfg)
        network.initialize(rng)
        assert calibrate_activation_scales(network, _samples(rng, 1)) == {}


class TestSQNR:
    def test_finite_and_positive_for_sane_network(self, rng):
        network = _network(rng)
        sqnr = quantization_sqnr(network, _samples(rng, 2))
        assert np.isfinite(sqnr)

    def test_float_network_restored_after_measurement(self, rng):
        network = _network(rng)
        x = FeatureMap(_samples(rng, 1)[0])
        before = network.forward(x).data.copy()
        quantization_sqnr(network, _samples(rng, 2))
        after = network.forward(x).data
        assert np.array_equal(before, after)  # quantizers reinstated

    def test_measurement_neither_sees_nor_leaves_a_stale_program(self, rng):
        # A compiled program bakes in each conv's out_quant structure; the
        # float pass swaps the quantizers out under a network that has
        # already compiled one, and must get (and leave) a fresh compile.
        used = _network(np.random.default_rng(7))
        twin = _network(np.random.default_rng(7))
        x = FeatureMap(_samples(rng, 1)[0])
        samples = _samples(rng, 2)
        first = used.forward(x).data.copy()
        assert np.array_equal(first, twin.forward(x).data)
        twin = _network(np.random.default_rng(7))  # never ran a forward
        compiled_before = used.vm()
        assert quantization_sqnr(used, samples) == quantization_sqnr(
            twin, samples
        )
        assert used.vm() is not compiled_before
        assert used.vm().program == twin.vm().program
        assert used.forward(x).data.tobytes() == first.tobytes()
        assert twin.forward(x).data.tobytes() == first.tobytes()
