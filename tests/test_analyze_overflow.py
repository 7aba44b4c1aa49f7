"""Overflow prover: bound soundness and verdicts vs runtime saturation.

The acceptance contract: a *proved-safe* verdict means the saturating
acc16 kernel records **zero** overflow events on any input, which the
tests check against a randomized corpus plus the adversarial worst-case
input; a seeded overflowing weight row must flip the verdict to
*saturation-possible* and demonstrably saturate the real kernel.
"""

import numpy as np
import pytest

from repro.analyze.findings import ERROR, WARNING
from repro.analyze.overflow import (
    INT16_MAX,
    INT32_MAX,
    OVERFLOW_ERROR,
    PROVED_SAFE,
    SATURATION_POSSIBLE,
    StepVerdict,
    prove_plan,
    prove_program,
    verdict_findings,
)
from repro.core.gemm import (
    acc16_worst_case_bound,
    acc32_worst_case_bound,
    gemm_i8_acc16,
    rounding_rshift,
)
from repro.core.quantize import AffineQuantizer
from repro.engine.plan import compile_plan
from repro.neon.kernels import ACC16_PRESHIFT
from repro.nn.network import Network
from repro.nn.zoo import mlp4_config, tincy_yolo_config

CONV_CFG = """
[net]
width=8
height=8
channels=3

[convolutional]
batch_normalize=1
filters=4
size=3
stride=1
pad=1
activation=relu
"""


def _conv_network(weight_fill):
    network = Network.from_cfg(CONV_CFG)
    network.initialize(np.random.default_rng(0))
    layer = network.layers[0]
    layer.weights = weight_fill(layer.weights.shape).astype(np.float32)
    return network


def _prover_codes(weights):
    """Quantize a weight tensor exactly as the prover (and kernels) do."""
    flat = np.asarray(weights, dtype=np.float64).reshape(weights.shape[0], -1)
    quant = AffineQuantizer.symmetric(float(np.abs(flat).max()) or 1.0, bits=8)
    return quant.to_levels(flat).astype(np.int64)


class TestBounds:
    def test_acc16_bound_dominates_exact_accumulation(self, rng):
        codes = rng.integers(-127, 128, size=(27, 8)).astype(np.int64)
        bound = acc16_worst_case_bound(codes, a_max=255, pre_shift=4)
        for _ in range(50):
            a = rng.integers(0, 256, size=27).astype(np.int64)
            exact = int(rounding_rshift(codes.T * a, 4).sum(axis=1).max())
            assert abs(exact) <= bound

    def test_acc16_bound_is_attained_for_aligned_signs(self):
        codes = np.full((27, 1), 127, dtype=np.int64)
        bound = acc16_worst_case_bound(codes, a_max=255, pre_shift=4)
        exact = int(rounding_rshift(codes[:, 0] * 255, 4).sum())
        assert bound == exact

    def test_acc16_bound_accepts_single_column(self):
        codes = np.arange(-13, 14, dtype=np.int64)
        assert acc16_worst_case_bound(codes) == acc16_worst_case_bound(
            codes.reshape(-1, 1)
        )

    def test_acc32_bound_is_k_times_operand_maxima(self):
        assert acc32_worst_case_bound(27, 255, 127) == 27 * 255 * 127
        assert acc32_worst_case_bound(70_000, 255, 127) > INT32_MAX


class TestVerdictsMatchRuntime:
    def test_proved_safe_layer_never_saturates(self, rng):
        # One dominant tap per filter: the symmetric quantizer pins it to
        # code 127 and everything else to ~0, so the bound stays far under
        # the int16 ceiling.
        def fill(shape):
            w = np.full(shape, 1e-3)
            w.reshape(shape[0], -1)[:, 0] = 1.0
            return w

        network = _conv_network(fill)
        verdict = prove_plan(compile_plan(network))[0]
        assert verdict.path == "int8-acc16"
        assert verdict.verdict == PROVED_SAFE
        codes = _prover_codes(network.layers[0].weights)
        for _ in range(20):
            a = rng.integers(0, 256, size=(16, codes.shape[1])).astype(np.uint8)
            _, overflow = gemm_i8_acc16(
                a, codes.T.astype(np.int8), pre_shift=ACC16_PRESHIFT
            )
            assert overflow == 0

    def test_seeded_overflowing_weights_flip_the_verdict(self):
        network = _conv_network(lambda shape: np.ones(shape))
        verdict = prove_plan(compile_plan(network))[0]
        assert verdict.verdict == SATURATION_POSSIBLE
        assert verdict.bound > INT16_MAX
        # ... and the worst-case input really does saturate the kernel.
        codes = _prover_codes(network.layers[0].weights)
        worst = np.full((1, codes.shape[1]), 255, dtype=np.uint8)
        _, overflow = gemm_i8_acc16(
            worst, codes.T.astype(np.int8), pre_shift=ACC16_PRESHIFT
        )
        assert overflow > 0

    @pytest.mark.parametrize("factory", [mlp4_config, tincy_yolo_config])
    def test_zoo_networks_have_no_overflow_errors(self, factory):
        network = Network(factory())
        network.initialize(np.random.default_rng(0))
        verdicts = prove_plan(compile_plan(network))
        assert all(v.verdict != OVERFLOW_ERROR for v in verdicts)
        # Binary layers are popcount-bounded and always provably safe.
        for v in verdicts:
            if v.path == "binary-popcount":
                assert v.verdict == PROVED_SAFE

    def test_non_matmul_steps_are_trivially_safe(self):
        network = Network(tincy_yolo_config())
        network.initialize(np.random.default_rng(0))
        verdicts = prove_plan(compile_plan(network))
        assert any(
            v.path == "none" and v.verdict == PROVED_SAFE for v in verdicts
        )

    def test_offload_bound_is_the_worst_stage(self, rng, tmp_path):
        """The FINN offload is one verdict: the largest ``cols x level``
        over its stages, on the plan and on the -O2 program alike."""
        from repro.isa import compile_network
        from tests.test_analyze_dataflow import _hybrid_network

        hybrid = _hybrid_network(rng, tmp_path)
        # Exported hidden convs: 8 -> 12 and 12 -> 16 channels, 3x3, each
        # fed 3-bit levels (7 at most).
        expected = max(8 * 3 * 3 * 7, 12 * 3 * 3 * 7)
        program, _stats = compile_network(hybrid, level=2)
        for verdicts in (
            prove_plan(compile_plan(hybrid)),
            prove_program(program, hybrid),
        ):
            (offload,) = [v for v in verdicts if "offload" in v.name]
            assert offload.path == "binary-popcount"
            assert offload.bound == expected
            assert offload.limit == INT32_MAX
            assert offload.verdict == PROVED_SAFE



class TestRendering:
    def test_saturation_renders_as_warning(self):
        verdict = StepVerdict(0, "#00 conv", "int8-acc16", 40_000, INT16_MAX,
                              SATURATION_POSSIBLE)
        findings = verdict_findings([verdict])
        assert [f.rule for f in findings] == ["OV-ACC16-SAT"]
        assert findings[0].severity == WARNING

    def test_acc32_breach_renders_as_error(self):
        verdict = StepVerdict(0, "#00 conv", "gemmlowp-acc32",
                              INT32_MAX + 1, INT32_MAX, OVERFLOW_ERROR)
        findings = verdict_findings([verdict])
        assert [f.rule for f in findings] == ["OV-ACC32-OVERFLOW"]
        assert findings[0].severity == ERROR

    def test_proved_safe_renders_nothing(self):
        verdict = StepVerdict(0, "#00 conv", "int8-acc16", 100, INT16_MAX,
                              PROVED_SAFE)
        assert verdict_findings([verdict]) == []

    def test_headroom_fraction(self):
        verdict = StepVerdict(0, "s", "int8-acc16", INT16_MAX // 2,
                              INT16_MAX, PROVED_SAFE)
        assert 0.0 < verdict.headroom < 1.0
        assert StepVerdict(0, "s", "none", 0, 0, PROVED_SAFE).headroom == 1.0
