"""FINN threshold-activation derivation tests.

The central invariant: counting integer thresholds is *exactly* equivalent to
the float BN + ReLU + re-quantization pipeline, for every integer
accumulator value a layer can produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import (
    ThresholdActivation,
    derive_thresholds,
    float_reference_activation,
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
        ta = derive_thresholds(gamma, beta, mean, var, in_scale, out_scale, bits)
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
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=1)
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
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=2)
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
        ta = derive_thresholds(gamma, beta, mean, var, in_scale, out_scale, bits)
        acc = rng.integers(-500, 500, size=(channels, 64))
        got = ta.apply(acc)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, in_scale, out_scale, bits
        )
        assert np.array_equal(got, expected)

    def test_apply_on_spatial_maps(self, rng):
        channels = 5
        gamma, beta, mean, var = _random_bn(rng, channels)
        ta = derive_thresholds(gamma, beta, mean, var, 0.2, 0.3, bits=3)
        acc = rng.integers(-200, 200, size=(channels, 6, 7))
        got = ta.apply(acc)
        assert got.shape == (channels, 6, 7)
        expected = float_reference_activation(
            acc, gamma, beta, mean, var, 0.2, 0.3, bits=3
        )
        assert np.array_equal(got, expected)

    def test_wrong_channel_count_rejected(self, rng):
        gamma, beta, mean, var = _random_bn(rng, 4)
        ta = derive_thresholds(gamma, beta, mean, var, 1.0, 1.0, bits=3)
        with pytest.raises(ValueError):
            ta.apply(np.zeros((5, 2)))

    def test_threshold_count_validation(self):
        with pytest.raises(ValueError):
            ThresholdActivation(
                thresholds=np.zeros((2, 3)), signs=np.ones(2), bits=3
            )


def _derive_thresholds_loop(gamma, beta, mean, var, in_scale, out_scale, bits, eps=1e-6):
    """The element-by-element derivation ``derive_thresholds`` vectorizes.

    Kept as the reference: same float64 arithmetic, one (channel, level)
    pair at a time through ``math.ceil`` / ``math.floor``.
    """
    import math

    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    channels = gamma.shape[0]
    n_thresh = (1 << bits) - 1
    inv_sigma = gamma / np.sqrt(var + eps)
    thresholds = np.zeros((channels, n_thresh), dtype=np.int64)
    signs = np.ones(channels, dtype=np.int8)
    huge = np.int64(2**62)
    for ch in range(channels):
        slope = inv_sigma[ch]
        for k in range(1, n_thresh + 1):
            y_k = out_scale * (k - 0.5)
            if slope == 0.0:
                always = beta[ch] >= y_k
                thresholds[ch, k - 1] = -huge if always else huge
                continue
            acc_real = (mean[ch] + (y_k - beta[ch]) / slope) / in_scale
            if slope > 0:
                thresholds[ch, k - 1] = int(math.ceil(acc_real - 1e-9))
            else:
                thresholds[ch, k - 1] = int(math.floor(acc_real + 1e-9))
        if slope < 0:
            signs[ch] = -1
    return thresholds, signs


def _assert_same_bytes(args, bits, eps=1e-6):
    got = derive_thresholds(*args, bits=bits, eps=eps)
    thresholds, signs = _derive_thresholds_loop(*args, bits=bits, eps=eps)
    assert got.bits == bits
    assert got.thresholds.dtype == thresholds.dtype == np.int64
    assert got.signs.dtype == signs.dtype == np.int8
    assert got.thresholds.shape == thresholds.shape
    assert got.thresholds.tobytes() == thresholds.tobytes()
    assert got.signs.tobytes() == signs.tobytes()


class TestVectorizedDerivationMatchesLoop:
    """``derive_thresholds`` is byte-identical to the loop it replaced."""

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
        _assert_same_bytes((gamma, beta, mean, var, in_scale, out_scale), bits)

    @pytest.mark.parametrize("scalar", [float, np.float32, np.float64])
    def test_float32_checkpoint_arrays_and_numpy_scales(self, rng, scalar):
        # What the layers pass: float32 BN arrays, scales of any float type.
        channels = 16
        gamma, beta, mean, var = (
            a.astype(np.float32) for a in _random_bn(rng, channels)
        )
        gamma[3] = 0.0
        args = (gamma, beta, mean, var, scalar(1.0 / 7.0), scalar(6.0 / 7.0))
        _assert_same_bytes(args, bits=3, eps=1e-5)
        _assert_same_bytes(args, bits=3, eps=0.0)

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 0.5, -0.25])
    def test_tie_cases_at_the_1e9_guard(self, gamma):
        # acc_real lands on an integer, and 1e-9 / 2e-9 either side of it.
        # The loop's 1e-9 guard rounds these by fiat — an accumulator the
        # reference puts at level 0 got level 1 — so here the derivation
        # steps each edge onto the side the float reference itself puts
        # it: at a tie the table is the documented pipeline.
        nudges = np.array([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10, -5e-10])
        channels = nudges.size
        # gamma * (acc - mean) with var = 1, eps = 0, beta = 0: level k's
        # edge sits at acc = mean + (k - .5) / gamma.
        mean = 7.0 - 0.5 / gamma + nudges
        args = (
            np.full(channels, gamma), np.zeros(channels), mean,
            np.ones(channels), 1.0, 1.0,
        )
        acc = np.broadcast_to(np.arange(-8, 24), (channels, 32))
        for bits in (1, 2, 3):
            got = derive_thresholds(*args, bits=bits, eps=0.0)
            want = float_reference_activation(
                acc.astype(np.float64), *args, bits=bits, eps=0.0
            )
            np.testing.assert_array_equal(got.apply(acc), want)
            # On the un-nudged channel guard and reference agree: the loop's
            # bytes hold.
            loop, _ = _derive_thresholds_loop(*args, bits=bits, eps=0.0)
            np.testing.assert_array_equal(got.thresholds[0], loop[0])

    def test_constant_channel_sentinels(self):
        # slope == 0: -2**62 where beta alone reaches the level, +2**62 above.
        beta = np.array([-1.0, 0.5, 1.5, 10.0])
        zeros = np.zeros(4)
        args = (zeros, beta, np.full(4, 1e30), np.ones(4), 1.0, 1.0)
        _assert_same_bytes(args, bits=2)
        got = derive_thresholds(*args, bits=2).thresholds
        huge = 2**62
        assert got.tolist() == [
            [huge, huge, huge],
            [-huge, huge, huge],
            [-huge, -huge, huge],
            [-huge, -huge, -huge],
        ]

    def test_out_of_range_threshold_raises_like_the_loop(self):
        # A threshold beyond int64 was an OverflowError on assignment in
        # the loop; the vectorized cast must not wrap silently.
        args = (np.array([1e-12]), np.zeros(1), np.zeros(1), np.ones(1), 1e-12, 1.0)
        with pytest.raises(OverflowError):
            _derive_thresholds_loop(*args, bits=1)
        with pytest.raises(OverflowError):
            derive_thresholds(*args, bits=1)
