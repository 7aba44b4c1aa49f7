"""Plan dataflow verifier: clean zoo plans plus a seeded-fault matrix.

Each fault class from the analyzer's contract gets one deliberately
corrupted artifact — a plan edited behind the compiler's back, a cfg
with a broken quantization chain, an offload bundle with a scrambled
threshold table — and the test asserts the verifier reports the
expected rule id (and nothing worse on the clean baseline).
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so)
from repro.analyze.dataflow import (
    LEVELS,
    abstract_values,
    check_requantizer,
    verify_plan,
)
from repro.analyze.findings import ERROR, WARNING
from repro.core.gemm import RequantizeParams
from repro.engine.plan import compile_plan
from repro.finn.mvtu import Folding
from repro.finn.offload_backend import export_offload
from repro.nn.config import parse_config
from repro.nn.network import Network
from repro.nn.zoo import cnv6_config, mlp4_config, tincy_yolo_config


def _network(config, seed=0):
    network = Network(config)
    network.initialize(np.random.default_rng(seed))
    return network


def _errors(findings):
    return [f for f in findings if f.severity == ERROR]


class TestCleanPlans:
    @pytest.mark.parametrize(
        "factory", [tincy_yolo_config, mlp4_config, cnv6_config]
    )
    def test_zoo_plans_verify_without_errors(self, factory):
        plan = compile_plan(_network(factory()))
        findings = verify_plan(plan)
        assert not _errors(findings), findings


class TestSeededFaults:
    def test_corrupted_out_shape_is_df_shape_error(self):
        plan = compile_plan(_network(mlp4_config()))
        step = plan.steps[0]
        plan.steps[0] = replace(step, out_shape=(step.out_shape[0] + 7, 1, 1))
        findings = verify_plan(plan)
        hits = [f for f in _errors(findings) if f.rule == "DF-SHAPE"]
        assert hits and step.name in hits[0].where

    def test_edge_to_missing_buffer_is_df_shape_error(self):
        plan = compile_plan(_network(mlp4_config()))
        step = plan.steps[1]
        plan.steps[1] = replace(step, inputs=(42,))
        findings = verify_plan(plan)
        assert any(
            f.rule == "DF-SHAPE" and "unknown buffer" in f.message
            for f in _errors(findings)
        )

    def test_binary_layer_on_float_map_is_flagged(self):
        network = Network.from_cfg(
            "[net]\nwidth=16\nheight=16\nchannels=3\n"
            "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\n"
            "stride=1\npad=1\nactivation=relu\n"  # no activation_bits!
            "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\n"
            "stride=1\npad=1\nactivation=relu\nbinary=1\n"
            "activation_bits=3\n"
        )
        network.initialize(np.random.default_rng(0))
        findings = verify_plan(compile_plan(network))
        hits = [f for f in findings if f.rule == "DF-UNQUANT-BINARY"]
        assert hits and hits[0].severity == WARNING


class TestRequantizer:
    def test_well_scaled_requantizer_is_clean(self):
        params = RequantizeParams.from_real_scale(1.0 / 64.0)
        assert check_requantizer(params, 0, 10_000) == []

    def test_escaping_interval_is_df_requant_clip(self):
        params = RequantizeParams.from_real_scale(0.1)
        findings = check_requantizer(params, 0, 10_000, where="layer 0")
        assert [f.rule for f in findings] == ["DF-REQUANT-CLIP"]
        assert findings[0].severity == WARNING
        assert findings[0].where == "layer 0"


OFFLOAD_FULL_CFG = """
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

OFFLOAD_HYBRID_CFG = """
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


def _hybrid_network(rng, tmp_path):
    full = Network.from_cfg(OFFLOAD_FULL_CFG)
    full.initialize(rng)
    for layer in full.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.biases = rng.normal(size=n).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.5).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
    binparam = str(tmp_path / "binparam-analyze")
    export_offload(
        full.layers[1:4],
        input_scale=full.layers[0].out_quant.scale,
        input_shape=full.layers[0].out_shape,
        directory=binparam,
        folding=Folding(4, 4),
    )
    hybrid = Network.from_cfg(OFFLOAD_HYBRID_CFG.format(binparam=binparam))
    hybrid.initialize(np.random.default_rng(7))
    return hybrid


class TestOffloadDataflow:
    def test_exported_bundle_verifies_clean(self, rng, tmp_path):
        hybrid = _hybrid_network(rng, tmp_path)
        findings = verify_plan(compile_plan(hybrid))
        assert not _errors(findings), findings

    def test_scrambled_threshold_table_is_monotone_error(self, rng, tmp_path):
        hybrid = _hybrid_network(rng, tmp_path)
        offload = next(l for l in hybrid.layers if l.ltype == "offload")
        table = offload.backend.accelerator.stages[0].conv.mvtu.thresholds
        spans = table.thresholds.max(axis=1) - table.thresholds.min(axis=1)
        channel = int(np.argmax(spans))  # a channel whose values vary
        first = table.thresholds[channel, 0].copy()
        table.thresholds[channel, 0] = table.thresholds[channel, -1]
        table.thresholds[channel, -1] = first
        findings = verify_plan(compile_plan(hybrid))
        hits = [f for f in _errors(findings) if f.rule == "DF-THRESH-MONOTONE"]
        assert hits, findings

    def test_mismatched_export_scale_is_scale_chain_error(self, rng, tmp_path):
        hybrid = _hybrid_network(rng, tmp_path)
        offload = next(l for l in hybrid.layers if l.ltype == "offload")
        offload.backend._meta["input_scale"] *= 2.0
        findings = verify_plan(compile_plan(hybrid))
        assert any(
            f.rule == "DF-SCALE-CHAIN" for f in _errors(findings)
        ), findings


ROUTE_REORG_CFG = """
[net]
width=8
height=8
channels=2

[convolutional]
batch_normalize=1
filters=3
size=3
stride=1
pad=1
activation=relu
activation_bits=3

[convolutional]
batch_normalize=1
filters=4
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[route]
layers=-2

[reorg]
stride=2

[route]
layers=-1,-3
"""


def _route_reorg_plan():
    return compile_plan(_network(parse_config(ROUTE_REORG_CFG)))


class TestRouteReorgDataflow:
    """The route and reorg transfer functions on a YOLOv2-style
    passthrough: layer 0 (3x8x8) reorganized to 12x4x4 and concatenated
    with layer 1 (4x4x4)."""

    def test_passthrough_plan_verifies_clean(self):
        plan = _route_reorg_plan()
        assert plan.output_shape == (16, 4, 4)
        findings = verify_plan(plan)
        assert not _errors(findings), findings
        final = abstract_values(plan)[len(plan) - 1]
        assert final.domain == LEVELS and final.shape == (16, 4, 4)

    def test_route_source_of_another_size_is_df_shape_error(self):
        plan = _route_reorg_plan()
        step = plan.steps[4]
        # route the 3x8x8 layer 0 map next to the 4x4 reorg output
        plan.steps[4] = replace(step, inputs=(step.inputs[0], step.inputs[1], 0))
        hits = [f for f in _errors(verify_plan(plan)) if f.rule == "DF-SHAPE"]
        assert hits and "spatial size" in hits[0].message

    def test_reorg_of_an_indivisible_map_is_df_shape_error(self):
        plan = _route_reorg_plan()
        plan.steps[3].layer.stride = 3
        hits = [f for f in _errors(verify_plan(plan)) if f.rule == "DF-SHAPE"]
        assert hits and "not divisible by stride 3" in hits[0].message
