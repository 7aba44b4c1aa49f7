"""Accelerator schedule tests: functional equivalence, cycles, resources."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMapBatch
from repro.finn.accelerator import (
    DataflowAccelerator,
    IteratedAccelerator,
    balanced_dataflow_foldings,
    compile_stages,
)
from repro.finn.device import XCZU3EG, XCZU9EG
from repro.finn.mvtu import Folding
from repro.nn.network import Network
from repro.nn.zoo import tincy_yolo_config

MINI_HIDDEN_CFG = """
[net]
width=24
height=24
channels=8

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
batch_normalize=1
filters=10
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3
"""

IN_SCALE = 1.0 / 7.0


def _trained_mini_net(rng):
    net = Network.from_cfg(MINI_HIDDEN_CFG)
    net.initialize(rng)
    for layer in net.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
        layer.biases = rng.normal(size=n).astype(np.float32)
        layer.rolling_mean = (rng.normal(size=n) * 0.5).astype(np.float32)
        layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
    return net


class TestCompileStages:
    def test_pools_attach_to_preceding_conv(self, rng):
        net = _trained_mini_net(rng)
        stages = compile_stages(net.layers, IN_SCALE, net.input_shape)
        assert len(stages) == 3
        assert stages[0].pool is not None
        assert stages[1].pool is None

    def test_functional_equivalence_with_darknet_layers(self, rng):
        """The compiled fabric reproduces the fake-quantized float network
        level for level — the core FINN-correctness claim."""
        net = _trained_mini_net(rng)
        stages = compile_stages(net.layers, IN_SCALE, net.input_shape)
        levels = rng.integers(0, 8, size=(1,) + tuple(net.input_shape))
        fabric_fm = FeatureMapBatch(levels, scale=IN_SCALE)
        for stage in stages:
            fabric_fm = stage.forward_batch_matmat(fabric_fm)

        float_fm = FeatureMapBatch(levels, scale=IN_SCALE)
        for layer in net.layers:
            float_fm = layer.forward_batch(float_fm)
        assert fabric_fm.scale == pytest.approx(float_fm.scale)
        assert np.array_equal(fabric_fm.data, np.asarray(float_fm.data))

    def test_rejects_unquantized_layers(self, rng):
        cfg = MINI_HIDDEN_CFG.replace("binary=1", "binary=0")
        net = Network.from_cfg(cfg)
        with pytest.raises(ValueError, match="binary"):
            compile_stages(net.layers, IN_SCALE, net.input_shape)

    def test_rejects_leading_pool(self, rng):
        net = _trained_mini_net(rng)
        with pytest.raises(ValueError, match="convolution"):
            compile_stages(net.layers[1:], IN_SCALE, (12, 24, 24))


def _tincy_hidden_stages(folding=Folding(32, 32), per_layer=None):
    net = Network(tincy_yolo_config())
    # hidden run: everything between the first and the last convolution
    layers = net.layers[1:-2]  # skip conv1; drop conv15 + region
    rng = np.random.default_rng(0)
    for layer in layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
        layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
    in_shape = net.layers[0].out_shape
    return compile_stages(
        layers, 1.0 / 7.0, in_shape, folding=folding, per_layer_folding=per_layer
    )


class TestIteratedAcceleratorTiming:
    def test_tincy_hidden_layers_take_about_30ms(self):
        """§III-C: the QNN accelerator reduces all hidden layers to ~30 ms."""
        accel = IteratedAccelerator(_tincy_hidden_stages())
        t = accel.time_per_frame()
        assert 0.025 <= t <= 0.035

    def test_cycle_count_matches_hand_calculation(self):
        accel = IteratedAccelerator(_tincy_hidden_stages())
        conv_cycles = sum(s.conv.cycles(s.in_shape) for s in accel.stages)
        # Hand-derived in DESIGN.md: folds 10/36/72/288/1152/2304/2304.
        assert conv_cycles == (
            10 * 208 * 208
            + 36 * 104 * 104
            + 72 * 52 * 52
            + 288 * 26 * 26
            + 1152 * 169
            + 2304 * 169
            + 2304 * 169
        )

    def test_speedup_over_generic_cpu_is_about_300x(self):
        """§III-C: 9160 ms generic -> 30 ms on fabric, >300x."""
        accel = IteratedAccelerator(_tincy_hidden_stages())
        speedup = 9.160 / accel.time_per_frame()
        assert speedup > 250

    def test_shared_engine_requires_uniform_folding(self):
        stages = _tincy_hidden_stages(
            per_layer=[Folding(32, 32)] * 6 + [Folding(16, 16)]
        )
        with pytest.raises(ValueError, match="one folding"):
            IteratedAccelerator(stages)


class TestResourceFit:
    def test_single_iterated_engine_fits_xczu3eg(self):
        accel = IteratedAccelerator(_tincy_hidden_stages())
        assert accel.resources().fits(XCZU3EG)

    def test_two_engines_do_not_fit_xczu3eg(self):
        """§III-A: *only* a single conv+pool engine fits the fabric."""
        accel = IteratedAccelerator(_tincy_hidden_stages())
        doubled = accel.resources() + accel.resources()
        assert not doubled.fits(XCZU3EG)

    def test_weight_bram_dominates(self):
        accel = IteratedAccelerator(_tincy_hidden_stages())
        resources = accel.resources()
        utilization = resources.utilization(XCZU3EG)
        assert utilization["bram"] > utilization["lut"]
        assert utilization["bram"] > 0.8  # weights nearly fill the device

    def test_throughput_matched_dataflow_overflows_xczu3eg(self):
        """A per-layer pipeline matching the iterated engine's throughput
        does not fit the small device — the reason the layers 'must be run
        one after the other on the same accelerator'."""
        base = _tincy_hidden_stages()
        unit = [
            s.conv.mvtu.geometry.rows
            * s.conv.mvtu.geometry.cols
            * int(np.prod(s.conv.out_shape(s.in_shape)[1:]))
            for s in base
        ]
        target = IteratedAccelerator(base).cycles_per_frame()
        foldings = balanced_dataflow_foldings(unit, target)
        stages = _tincy_hidden_stages(per_layer=foldings)
        dataflow = DataflowAccelerator(stages)
        assert not dataflow.resources().fits(XCZU3EG)
        assert dataflow.resources().fits(XCZU9EG)

    def test_dataflow_beats_iterated_on_big_device(self):
        base = _tincy_hidden_stages()
        unit = [
            s.conv.mvtu.geometry.rows
            * s.conv.mvtu.geometry.cols
            * int(np.prod(s.conv.out_shape(s.in_shape)[1:]))
            for s in base
        ]
        target = IteratedAccelerator(base).cycles_per_frame()
        foldings = balanced_dataflow_foldings(unit, target)
        dataflow = DataflowAccelerator(_tincy_hidden_stages(per_layer=foldings))
        iterated = IteratedAccelerator(base)
        assert dataflow.time_per_frame() <= iterated.time_per_frame()


class TestDataflowModel:
    def test_initiation_interval_is_max_stage(self, rng):
        net = _trained_mini_net(rng)
        stages = compile_stages(net.layers, IN_SCALE, net.input_shape)
        dataflow = DataflowAccelerator(stages)
        assert dataflow.initiation_interval_cycles() == max(
            s.cycles() for s in stages
        )
        assert dataflow.latency_s() >= dataflow.time_per_frame()

    def test_balanced_foldings_meet_target(self):
        unit = [1000, 8000, 64000]
        foldings = balanced_dataflow_foldings(unit, target_cycles=1000)
        for cycles, folding in zip(unit, foldings):
            assert cycles / folding.macs_per_cycle <= 1000
