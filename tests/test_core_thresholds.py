"""FINN threshold-activation derivation tests.

The central invariant: counting integer thresholds is *exactly* equivalent to
the float BN + ReLU + re-quantization pipeline, for every integer
accumulator value a layer can produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import accumulator_bound
from repro.core.thresholds import (
    ThresholdActivation,
    derive_thresholds,
    float_reference_activation,
    monotone_violations,
)


def _random_bn(rng, channels, allow_negative_gamma=True):
    gamma = rng.uniform(0.2, 2.0, size=channels)
    if allow_negative_gamma:
        gamma *= rng.choice([-1.0, 1.0], size=channels)
    beta = rng.uniform(-1.0, 1.0, size=channels)
    mean = rng.uniform(-5.0, 5.0, size=channels)
    var = rng.uniform(0.1, 4.0, size=channels)
    return gamma, beta, mean, var


class TestDeriveThresholds:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_exact_equivalence_exhaustive_accumulators(self, rng, bits):
        channels = 8
        gamma, beta, mean, var = _random_bn(rng, channels)
        in_scale, out_scale = 1.0 / 7.0, 1.0 / 7.0
        ta = derive_thresholds(
            gamma, beta, mean, var, in_scale, out_scale, bits, fan_in=144
        )
        # Every accumulator a 3x3x16 binary-weight layer can produce.
        max_acc = 7 * 144
        acc = np.tile(np.arange(-max_acc, max_acc + 1), (channels, 1))
        got = ta.apply(acc)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, in_scale, out_scale, bits
        )
        assert np.array_equal(got, expected)

    def test_negative_gamma_flips_comparison(self, rng):
        channels = 4
        gamma = np.full(channels, -1.0)
        beta = np.zeros(channels)
        mean = np.zeros(channels)
        var = np.ones(channels) - 1e-6
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=1, fan_in=1)
        assert np.all(ta.signs == -1)
        # y = -acc: positive accumulators give level 0, negative level 1.
        acc = np.tile(np.array([-3, -1, 0, 1, 3]), (channels, 1))
        got = ta.apply(acc)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, 1.0, 1.0, bits=1
        )
        assert np.array_equal(got, expected)

    def test_zero_gamma_constant_channel(self):
        gamma = np.array([0.0, 0.0])
        beta = np.array([10.0, -10.0])
        mean = np.zeros(2)
        var = np.ones(2)
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=2, fan_in=1)
        acc = np.tile(np.array([-100, 0, 100]), (2, 1))
        got = ta.apply(acc)
        assert np.all(got[0] == 3)  # beta=10 saturates to top level
        assert np.all(got[1] == 0)

    @given(seed=st.integers(0, 10_000), bits=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_random_bn(self, seed, bits):
        rng = np.random.default_rng(seed)
        channels = 3
        gamma, beta, mean, var = _random_bn(rng, channels)
        in_scale = float(rng.uniform(0.05, 1.0))
        out_scale = float(rng.uniform(0.05, 1.0))
        ta = derive_thresholds(
            gamma, beta, mean, var, in_scale, out_scale, bits, fan_in=2
        )
        acc = rng.integers(-500, 500, size=(channels, 64))
        got = ta.apply(acc)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, in_scale, out_scale, bits
        )
        assert np.array_equal(got, expected)

    def test_apply_on_spatial_maps(self, rng):
        channels = 5
        gamma, beta, mean, var = _random_bn(rng, channels)
        ta = derive_thresholds(gamma, beta, mean, var, 0.2, 0.3, bits=3, fan_in=1)
        acc = rng.integers(-200, 200, size=(channels, 6, 7))
        got = ta.apply(acc)
        assert got.shape == (channels, 6, 7)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, 0.2, 0.3, bits=3
        )
        assert np.array_equal(got, expected)

    def test_wrong_channel_count_rejected(self, rng):
        gamma, beta, mean, var = _random_bn(rng, 4)
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=3, fan_in=1)
        with pytest.raises(ValueError):
            ta.apply(np.zeros((5, 2)))

    def test_threshold_count_validation(self):
        with pytest.raises(ValueError):
            ThresholdActivation(
                thresholds=np.zeros((2, 3)), signs=np.ones(2), bits=3
            )


def _assert_is_the_reference(args, bits, fan_in, eps=1e-6):
    """The table counts like :func:`float_reference_activation` on every
    accumulator of ``[-B, B]``, is monotone, and stays within the
    ``+-(B + 1)`` sentinels."""
    got = derive_thresholds(*args, bits=bits, eps=eps, fan_in=fan_in)
    bound = accumulator_bound(np.uint8, fan_in)
    assert got.bits == bits
    assert got.thresholds.dtype == np.int64 and got.signs.dtype == np.int8
    assert got.thresholds.shape == (len(args[0]), (1 << bits) - 1)
    assert np.abs(got.thresholds).max() <= bound + 1
    assert monotone_violations(got.thresholds, got.signs).size == 0
    acc = np.broadcast_to(np.arange(-bound, bound + 1), (len(args[0]), 2 * bound + 1))
    want = float_reference_activation(acc, *args, bits=bits, eps=eps)
    np.testing.assert_array_equal(got.apply(acc), want)
    return got


class TestVectorizedDerivationMatchesLoop:
    """``derive_thresholds`` is :func:`float_reference_activation` on every
    accumulator of its range, for hostile batch-norm constants."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bn_parameters(self, bits, seed):
        rng = np.random.default_rng((20180621, seed, bits))
        channels = int(rng.integers(1, 65))
        gamma = rng.uniform(0.01, 3.0, size=channels)
        gamma *= rng.choice([-1.0, 1.0], size=channels)  # negative slopes
        gamma[rng.random(channels) < 0.15] = 0.0  # constant channels
        beta = rng.uniform(-2.0, 2.0, size=channels)
        mean = rng.uniform(-50.0, 50.0, size=channels)
        # Tiny to huge variances: slopes from ~1e3 down to ~1e-4.
        var = 10.0 ** rng.uniform(-9.0, 8.0, size=channels)
        in_scale = float(rng.choice([1.0, 1.0 / 7.0, 0.0123, 3.5]))
        out_scale = float(rng.choice([1.0, 1.0 / 7.0, 0.3, 2.25]))
        args = (gamma, beta, mean, var, in_scale, out_scale)
        _assert_is_the_reference(args, bits, fan_in=9)

    @pytest.mark.parametrize("scalar", [float, np.float32, np.float64])
    def test_float32_checkpoint_arrays_and_numpy_scales(self, rng, scalar):
        # What the layers pass: float32 BN arrays, scales of any float type.
        channels = 16
        gamma, beta, mean, var = (
            a.astype(np.float32) for a in _random_bn(rng, channels)
        )
        gamma[3] = 0.0
        args = (gamma, beta, mean, var, scalar(1.0 / 7.0), scalar(6.0 / 7.0))
        _assert_is_the_reference(args, bits=3, fan_in=16, eps=1e-5)
        _assert_is_the_reference(args, bits=3, fan_in=16, eps=0.0)

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 0.5, -0.25])
    def test_tie_cases_at_the_1e9_guard(self, gamma):
        # acc_real lands on an integer, and 1e-9 / 2e-9 either side of it,
        # where a closed form's ``ceil(x - 1e-9)`` guard rounds by fiat (an
        # accumulator the reference puts at level 0 got level 1).
        nudges = np.array([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10, -5e-10])
        channels = nudges.size
        # gamma * (acc - mean) with var = 1, eps = 0, beta = 0: level k's
        # edge sits at acc = mean + (k - .5) / gamma.
        mean = 7.0 - 0.5 / gamma + nudges
        args = (
            np.full(channels, gamma), np.zeros(channels), mean,
            np.ones(channels), 1.0, 1.0,
        )
        for bits in (1, 2, 3):
            _assert_is_the_reference(args, bits=bits, fan_in=1, eps=0.0)

    def test_constant_channel_sentinels(self):
        # Zero gain: -(B+1) where beta alone reaches the level, B+1 above.
        beta = np.array([-1.0, 0.5, 1.5, 10.0])
        zeros = np.zeros(4)
        args = (zeros, beta, np.full(4, 1e30), np.ones(4), 1.0, 1.0)
        got = _assert_is_the_reference(args, bits=2, fan_in=1).thresholds
        never = accumulator_bound(np.uint8, 1) + 1
        assert got.tolist() == [
            [never, never, never],
            [-never, never, never],
            [-never, -never, never],
            [-never, -never, -never],
        ]

    def test_out_of_range_is_a_sentinel(self):
        # The crossing lies ~1e24 accumulators out, past int64: the
        # "never" sentinel B + 1.
        args = (np.array([1e-12]), np.zeros(1), np.zeros(1), np.ones(1), 1e-12, 1.0)
        got = _assert_is_the_reference(args, bits=1, fan_in=1)
        assert got.thresholds.tolist() == [[accumulator_bound(np.uint8, 1) + 1]]
