"""Memory-footprint model tests (§I: quantization defuses parameter storage)."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMapBatch
from repro.nn.network import Network
from repro.nn.zoo import (
    cnv6_config,
    mlp4_config,
    tincy_yolo_config,
    tiny_yolo_config,
)
from repro.perf.memory import (
    activation_high_water,
    compression_factor,
    network_memory,
)


class TestFloatBaseline:
    def test_tiny_yolo_float_weights_are_tens_of_megabytes(self):
        network = Network(tiny_yolo_config())
        report = network_memory(network, "float32")
        # ~15.8 M weights * 4 bytes ~ 63 MB: far beyond on-chip memory.
        assert 40e6 < report.weight_bytes < 80e6

    def test_total_includes_activations(self):
        network = Network(tiny_yolo_config())
        report = network_memory(network, "float32")
        assert report.total_bytes > report.weight_bytes
        assert report.activation_bytes > 0


class TestQuantizedRegime:
    def test_tincy_weights_fit_fpga_bram(self):
        """The §III-A enabler: binarized hidden weights fit on-chip."""
        network = Network(tincy_yolo_config())
        report = network_memory(network, "quantized")
        hidden = [l for l in report.layers if l.name == "convolutional"][1:-1]
        hidden_weight_bits = sum(l.weight_bits for l in hidden)
        assert hidden_weight_bits == 6_312_960  # matches the BRAM model
        from repro.finn.device import XCZU3EG

        assert hidden_weight_bits < XCZU3EG.bram_bits

    def test_compression_factor_large(self):
        network = Network(tincy_yolo_config())
        factor = compression_factor(network)
        # binary hidden weights + int8 ends: ~25-32x smaller than float32.
        assert factor > 20.0

    def test_activation_maps_shrink_with_3bit_coding(self):
        network = Network(tincy_yolo_config())
        quantized = network_memory(network, "quantized")
        floating = network_memory(network, "float32")
        assert quantized.activation_bytes < floating.activation_bytes / 8

    def test_int8_regime_between_extremes(self):
        network = Network(tincy_yolo_config())
        float_w = network_memory(network, "float32").weight_bytes
        int8_w = network_memory(network, "int8").weight_bytes
        quant_w = network_memory(network, "quantized").weight_bytes
        assert quant_w < int8_w < float_w
        assert int8_w == pytest.approx(float_w / 4, rel=0.05)

    def test_mlp4_binary_weights_under_a_megabyte(self):
        network = Network(mlp4_config())
        report = network_memory(network, "quantized")
        assert report.weight_bytes < 1e6  # ~2.9 Mbit / 8

    def test_sign_activations_are_priced_at_one_bit(self):
        # Table II's W1A1 regime: a sign layer has no out_quant, and used
        # to be booked at 8 bits per activation.
        mlp4 = network_memory(Network(mlp4_config()), "quantized")
        assert [l.activation_bits for l in mlp4.layers] == [1024, 1024, 1024, 80]
        assert mlp4.activation_bytes == 394
        cnv6 = network_memory(Network(cnv6_config()), "quantized")
        # the 8-bit ReLU input layer dominates: 64*30*30 bytes of 68 234
        assert cnv6.layers[0].activation_bits == 8 * 64 * 30 * 30
        assert [l.activation_bits for l in cnv6.layers[1:]] == [
            64 * 28 * 28, 128 * 12 * 12, 128 * 10 * 10, 256 * 3 * 3, 256,
            512, 512, 8 * 10,
        ]
        assert cnv6.activation_bytes == 68_234

    def test_cnv6_live_bytes_shrink_with_the_stored_codes(self):
        # StepStats/peak_live_bytes read the real arrays: with float32
        # sign maps the -O2 plan peaked at 2 244 608 bytes at batch 8.
        network = Network(cnv6_config())
        network.initialize(np.random.default_rng(0))
        frames = np.random.default_rng(1).random((8, 3, 32, 32), np.float32)
        vm = network.vm(2)
        vm.run(FeatureMapBatch(frames))
        assert vm.last_report.peak_live_bytes == 1_943_552
        assert vm.last_report.peak_live_bytes < 2_244_608

    def test_plan_prices_w1a3_slots_at_one_byte(self):
        # Level codes travel as uint8, so a Tincy slot costs one byte per
        # element; only the float head (last conv, region) costs four.
        network = Network(tincy_yolo_config())
        network.initialize(np.random.default_rng(0))
        plan = network.plan()
        dtypes = [step.out_dtype for step in plan.steps]
        assert dtypes == [np.uint8] * 13 + [np.float32] * 2
        assert plan.peak_live_bytes(4) == 4 * plan.peak_live_bytes(1)
        assert plan.peak_live_bytes() < plan.peak_live_bytes(4) / 2
        frame = np.random.default_rng(1).random((1, 3, 416, 416), np.float32)
        vm = network.vm(1)
        vm.run(FeatureMapBatch(frame))
        assert vm.last_report.peak_live_bytes == plan.peak_live_bytes()
        assert activation_high_water(network) == plan.peak_live_bytes()

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            network_memory(Network(mlp4_config()), "bfloat16")
