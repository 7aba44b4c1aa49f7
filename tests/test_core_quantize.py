"""Unit tests for the weight/activation quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantize import (
    AffineQuantizer,
    BinaryQuantizer,
    TernaryQuantizer,
    UnsignedUniformQuantizer,
    round_half_up,
)


class TestRoundHalfUp:
    def test_matches_fixed_point_rounding(self):
        values = np.array([0.0, 0.4, 0.5, 0.6, 1.5, 2.5, 3.49999])
        expected = np.array([0, 0, 1, 1, 2, 3, 3])
        assert np.array_equal(round_half_up(values), expected)

    def test_differs_from_bankers_rounding(self):
        # np.round(2.5) == 2 (half to even); hardware rounds to 3.
        assert round_half_up(np.array([2.5]))[0] == 3


class TestBinaryQuantizer:
    def test_sign_mapping(self):
        q = BinaryQuantizer()
        x = np.array([-3.0, -0.1, 0.0, 0.2, 5.0])
        assert np.array_equal(q.quantize(x), [-1, -1, 1, 1, 1])

    def test_zero_maps_to_plus_one(self):
        # BinaryNet/FINN convention exercised explicitly.
        assert BinaryQuantizer().quantize(np.zeros(4)).tolist() == [1, 1, 1, 1]

    def test_levels_roundtrip(self, rng):
        q = BinaryQuantizer(scale=0.5)
        x = rng.normal(size=100)
        levels = q.to_levels(x)
        assert set(np.unique(levels)).issubset({0, 1})
        assert np.array_equal(q.from_levels(levels), q.quantize(x))

    @pytest.mark.parametrize("scale", [1.0, 0.37, 1 / 3, -0.2, 1e-45, 3e38])
    def test_bit_identical_to_the_float64_select(self, rng, scale):
        """The arithmetic select equals ``np.where`` through float64 then
        rounded once to float32 — signed zeros, NaN and infinities too."""
        q = BinaryQuantizer(scale=scale)
        x = rng.normal(size=(3, 50)).astype(np.float32)
        x.flat[:5] = [0.0, -0.0, np.nan, np.inf, -np.inf]
        want = np.where(x >= 0, scale, -scale).astype(np.float32)
        got = q.quantize(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        again = q.from_levels(q.to_levels(x))
        assert again.dtype == np.float32
        assert np.array_equal(again.view(np.uint32), want.view(np.uint32))

    def test_ste_mask_clips_outside_unit_interval(self):
        q = BinaryQuantizer()
        mask = q.ste_mask(np.array([-2.0, -1.0, 0.0, 1.0, 1.5]))
        assert mask.tolist() == [0, 1, 1, 1, 0]


class TestTernaryQuantizer:
    def test_three_levels(self):
        q = TernaryQuantizer(threshold=0.5, scale=2.0)
        x = np.array([-1.0, -0.4, 0.0, 0.4, 1.0])
        assert q.quantize(x).tolist() == [-2.0, 0.0, 0.0, 0.0, 2.0]

    def test_levels_roundtrip(self, rng):
        q = TernaryQuantizer(threshold=0.3, scale=1.5)
        x = rng.normal(size=200)
        assert np.array_equal(q.from_levels(q.to_levels(x)), q.quantize(x))

    def test_from_weights_uses_twn_heuristic(self, rng):
        x = rng.normal(size=1000)
        q = TernaryQuantizer.from_weights(x)
        assert q.threshold == pytest.approx(0.7 * np.mean(np.abs(x)))
        assert q.scale > 0


class TestUnsignedUniformQuantizer:
    def test_three_bit_levels(self):
        q = UnsignedUniformQuantizer(bits=3, scale=1.0)
        x = np.array([-1.0, 0.0, 0.49, 0.5, 3.2, 7.0, 9.0])
        assert q.to_levels(x).tolist() == [0, 0, 0, 1, 3, 7, 7]

    def test_quantize_is_idempotent(self, rng):
        q = UnsignedUniformQuantizer(bits=3, scale=0.25)
        x = rng.uniform(-1, 3, size=500)
        once = q.quantize(x)
        assert np.array_equal(q.quantize(once), once)

    def test_max_value(self):
        q = UnsignedUniformQuantizer(bits=3, scale=1.0 / 7.0)
        assert q.max_value == pytest.approx(1.0)
        assert q.levels == 7

    @given(bits=st.integers(1, 8), scale_exp=st.integers(-4, 2))
    @settings(max_examples=50, deadline=None)
    def test_levels_within_range(self, bits, scale_exp):
        q = UnsignedUniformQuantizer(bits=bits, scale=2.0**scale_exp)
        rng = np.random.default_rng(bits * 100 + scale_exp)
        levels = q.to_levels(rng.uniform(-10, 10, size=64))
        assert levels.min() >= 0
        assert levels.max() <= (1 << bits) - 1

    def test_ste_mask_window(self):
        q = UnsignedUniformQuantizer(bits=3, scale=1.0)
        mask = q.ste_mask(np.array([-0.1, 0.0, 3.0, 7.0, 7.1]))
        assert mask.tolist() == [0, 1, 1, 1, 0]


class TestAffineQuantizer:
    def test_from_range_represents_zero_exactly(self):
        q = AffineQuantizer.from_range(-0.37, 2.11, bits=8)
        assert q.from_levels(np.array([q.zero_point]))[0] == pytest.approx(0.0)

    def test_roundtrip_error_bounded_by_half_step(self, rng):
        q = AffineQuantizer.from_range(-1.0, 1.0, bits=8)
        x = rng.uniform(-1, 1, size=1000)
        err = np.abs(q.quantize(x) - x)
        assert err.max() <= q.scale / 2 + 1e-9

    def test_signed_range(self):
        q = AffineQuantizer.from_range(-1.0, 1.0, bits=8, signed=True)
        assert q.qmin == -128 and q.qmax == 127
        levels = q.to_levels(np.array([-5.0, 5.0]))
        assert levels.min() >= -128 and levels.max() <= 127

    def test_degenerate_range_widened(self):
        q = AffineQuantizer.from_range(0.0, 0.0, bits=8)
        assert q.scale > 0

    @given(
        low=st.floats(-10, 0), high=st.floats(0.1, 10), bits=st.sampled_from([4, 8])
    )
    @settings(max_examples=50, deadline=None)
    def test_levels_in_range(self, low, high, bits):
        q = AffineQuantizer.from_range(low, high, bits=bits)
        rng = np.random.default_rng(42)
        levels = q.to_levels(rng.uniform(low * 2, high * 2, size=32))
        assert int(levels.min()) >= q.qmin
        assert int(levels.max()) <= q.qmax
