"""Threshold counting equals the float epilogue — the ``requant-split-compose``
axiom against the real kernels.

``fold-requant`` replaces a split requantization (``CONV.pre`` then
``THRESHOLD.pre``, or ``.acc`` then ``.acc``) by the layer's whole forward,
and the whole forward counts thresholds.  So the axiom holds exactly when
the threshold tables are the float epilogue they replace.  All three
kinds of table come out of the one bisection
(:func:`repro.core.thresholds.bisect_thresholds`); each is drawn here with
hostile batch-norm constants (negative gains, zero gains, gains down to
``+-1e-30``, tiny variances) and 1- to 4-bit outputs, checked monotone per
channel, and probed at every threshold and at its neighbours:

* the integer tables of :func:`derive_thresholds` (the W1A3 hidden
  layers), against :func:`float_reference_activation`, through both
  ``ThresholdActivation.apply`` and the band kernel's clamped float32
  copy (:func:`count_hits`);
* the sign tables of :func:`derive_sign_thresholds` (the W1A1 layers),
  against the float64 ``bn(acc) >= 0``;
* the float32 tables of a first layer, through a real layer: its ``-O2``
  forward (the float band kernel) against its ``-O0`` pair
  (``forward_batch_pre`` + ``forward_batch_to_levels``).

A gain of ``+-1e-30`` puts a crossing far past any accumulator; such a
checkpoint still binds a W1A3 layer and an exported MVTU stage
(:class:`TestTinyGainsBind`).

Registered in ``repro.isa.passes.witness.AXIOM_KERNEL_TESTS``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import BandKernel
from repro.core.ops import accumulator_bound
from repro.core.tensor import FeatureMapBatch
from repro.core.thresholds import (
    ThresholdActivation,
    count_hits,
    derive_thresholds,
    float_reference_activation,
    monotone_violations,
)
from repro.finn.dense import derive_sign_thresholds
from repro.finn.offload_backend import export_offload
from repro.nn.layers.convolutional import BN_EPS
from repro.nn.network import Network
from repro.nn.weights import load_binparam

#: A BN gain: either sign, exactly zero, or tiny (down to +-1e-30).
GAINS = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 1e-6]),
    st.builds(
        lambda magnitude, sign: sign * magnitude,
        st.floats(1e-30, 1e-6),
        st.sampled_from([-1.0, 1.0]),
    ),
)
#: Dot-product lengths: a 1x1 probe, 3x3 kernels over 1, 16 and 512 maps.
FAN_INS = st.sampled_from([1, 9, 144, 4608])
MEANS = st.floats(-8.0, 8.0, allow_nan=False)
VARIANCES = st.one_of(
    st.floats(1e-3, 16.0), st.sampled_from([0.0, 1e-12, 1e-7])
)


def _channels(draw, count):
    return [
        tuple(draw(s) for s in (GAINS, MEANS, MEANS, VARIANCES))
        for _ in range(count)
    ]


@st.composite
def epilogues(draw):
    """``(bits, out_scale, activation, batch_normalize, channels)`` with
    ``channels`` a list of ``(gain, beta, mean, var)``."""
    bits = draw(st.integers(1, 4))
    out_scale = draw(st.sampled_from([1.0 / ((1 << bits) - 1), 0.1, 0.37, 2.0]))
    activation = draw(st.sampled_from(["relu", "leaky", "linear"]))
    return (
        bits,
        out_scale,
        activation,
        draw(st.booleans()),
        _channels(draw, draw(st.integers(1, 4))),
    )


def _float32_neighbours(values, steps=3):
    """*values* and their float32 neighbours up to *steps* ulp either way."""
    out = [np.asarray(values, dtype=np.float32)]
    with np.errstate(over="ignore"):  # +-FLT_MAX step on to +-inf
        for direction in (np.float32(np.inf), np.float32(-np.inf)):
            current = out[0]
            for _ in range(steps):
                current = np.nextafter(current, direction)
                out.append(current)
    return np.concatenate(out)


def _probe_layer(bits, out_scale, activation, batch_normalize, channels, width):
    """A 1x1 non-binary conv whose accumulators are its input: one input
    channel, every weight 1.0, so ``acc[c, p] == x[p]`` exactly."""
    cfg = (
        f"[net]\nwidth={width}\nheight=1\nchannels=1\n\n"
        f"[convolutional]\nbatch_normalize={int(batch_normalize)}\n"
        f"filters={len(channels)}\nsize=1\nstride=1\npad=0\n"
        f"activation={activation}\nactivation_bits={bits}\n"
        f"activation_scale={out_scale!r}\n"
    )
    layer = Network.from_cfg(cfg).layers[0]
    gain, beta, mean, var = (np.array(c, dtype=np.float32) for c in zip(*channels))
    layer.weights = np.ones_like(layer.weights)
    layer.biases = beta
    if batch_normalize:
        layer.scales, layer.rolling_mean, layer.rolling_var = gain, mean, var
    return layer


def _edge_grid(thresholds, bound, channels):
    """Every threshold and its neighbours up to 3 away, 0, +-1 and the
    ends of ``[-bound, bound]``, on every channel."""
    edges = thresholds[np.abs(thresholds) <= bound]
    acc = np.unique(
        np.concatenate(
            [edges + d for d in range(-3, 4)] + [[0, 1, -1, -bound, bound]]
        )
    )
    acc = acc[np.abs(acc) <= bound]
    return np.broadcast_to(acc, (channels, acc.size)).astype(np.int64)


def _assert_derived(activation, bound):
    """Monotone per channel, within the +-(B + 1) sentinels."""
    assert monotone_violations(activation.thresholds, activation.signs).size == 0
    assert np.abs(activation.thresholds).max() <= bound + 1


class TestRequantSplitCompose:
    """Threshold counting == the float epilogue, for both table kinds."""

    @given(epilogue=epilogues())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_float_tables_equal_the_float_epilogue(self, epilogue):
        bits, out_scale, activation, batch_normalize, channels = epilogue
        # First only the table: the probe points depend on it.
        layer = _probe_layer(*epilogue, width=1)
        kernel = layer._float_band_kernel()
        signs = kernel.weights[:, 0]
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        table = signs[:, None] * kernel.thresholds  # unfolded, NaN = never
        # Sign-folded and ascending per channel, NaN ("never") last.
        never_last = np.where(np.isnan(kernel.thresholds), np.inf, kernel.thresholds)
        assert (never_last[:, 1:] >= never_last[:, :-1]).all()
        points = _float32_neighbours(table[np.isfinite(table)])
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38, 1e-45]
        x = np.concatenate([points, np.array(specials, np.float32)])
        layer = _probe_layer(*epilogue, width=x.size)
        fmb = FeatureMapBatch(x.reshape(1, 1, 1, -1))

        o2 = layer.forward_batch(fmb).data[0, :, 0, :]
        with np.errstate(over="ignore", invalid="ignore"):
            o0 = layer.forward_batch_to_levels(layer.forward_batch_pre(fmb))
        o0 = o0.data[0, :, 0, :]
        assert o2.dtype == o0.dtype == np.uint8

        nan, pos_inf = np.isnan(x), x == np.inf
        assert (o2[:, nan] == 0).all() and (o0[:, nan] == 0).all()
        # A zero-gain channel is constant on finite accumulators, but its
        # float BN computes inf * 0 = NaN (level 0) at +inf; the table
        # counts +inf like a finite accumulator instead (bisect_thresholds).
        zero_gain = np.zeros(len(channels), dtype=bool)
        if batch_normalize:
            gain, _, _, var = (np.array(c, np.float32) for c in zip(*channels))
            zero_gain = gain / np.sqrt(var + np.float32(1e-6)) == 0
        exact = ~zero_gain[:, None] | ~pos_inf[None, :]
        np.testing.assert_array_equal(o2[exact], o0[exact])
        finite = np.isfinite(x)
        for c in np.flatnonzero(zero_gain):
            assert (o2[c, pos_inf] == o2[c, finite][0]).all()

    @given(
        epilogue=epilogues(),
        in_scale=st.sampled_from([1.0, 1 / 7, 0.05, 1e-3]),
        fan_in=FAN_INS,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_integer_tables_equal_the_float_epilogue(self, epilogue, in_scale, fan_in):
        bits, out_scale, _, batch_normalize, channels = epilogue
        gain, beta, mean, var = (np.array(c, np.float64) for c in zip(*channels))
        eps = 1e-6
        if not batch_normalize:  # bias only: the identity-BN the layer derives
            gain, mean, var = np.ones_like(gain), np.zeros_like(mean), np.ones_like(var)
            eps = 0.0
        activation = derive_thresholds(
            gain, beta, mean, var, in_scale=in_scale, out_scale=out_scale,
            bits=bits, eps=eps, fan_in=fan_in,
        )
        bound = accumulator_bound(np.uint8, fan_in)
        _assert_derived(activation, bound)
        grid = _edge_grid(activation.thresholds, bound, len(channels))
        want = float_reference_activation(
            grid, gain, beta, mean, var, in_scale, out_scale, bits, eps,
        )
        np.testing.assert_array_equal(activation.apply(grid), want)
        # The band kernel's copy: sign-folded, clamped to +-2**24, float32.
        kernel = BandKernel.fold(
            np.ones((len(channels), 1), np.float32), activation, 1, 1, 1, 0
        )
        folded = grid.astype(np.float32) * kernel.weights
        hits = np.empty(grid.shape, np.uint8)
        count_hits(folded, kernel.thresholds, hits, np.empty_like(hits))
        np.testing.assert_array_equal(hits, want)

    @given(
        epilogue=epilogues(),
        in_scale=st.sampled_from([1.0, 0.5, 1e-3]),
        fan_in=FAN_INS,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sign_tables_equal_the_float_epilogue(self, epilogue, in_scale, fan_in):
        channels = epilogue[-1]
        gain, beta, mean, var = (np.array(c, np.float64) for c in zip(*channels))
        activation = derive_sign_thresholds(
            gain, beta, mean, var, in_scale=in_scale, fan_in=fan_in
        )
        bound = accumulator_bound(np.int8, fan_in)
        _assert_derived(activation, bound)
        grid = _edge_grid(activation.thresholds, bound, len(channels))
        col = (slice(None), np.newaxis)
        y = (
            gain[col] * (grid * in_scale - mean[col]) / np.sqrt(var[col] + 1e-6)
            + beta[col]
        )
        np.testing.assert_array_equal(activation.apply(grid), y >= 0)

    def test_axiom_registry_names_this_class(self):
        from repro.isa.passes.witness import AX_REQUANT_FOLD, AXIOM_KERNEL_TESTS

        path, cls, name = AXIOM_KERNEL_TESTS[AX_REQUANT_FOLD].split("::")
        assert __file__.replace("\\", "/").endswith(path)
        assert cls == type(self).__name__ and hasattr(self, name)


def _tiny_gain_layer():
    """A binary W1A3 3x3 conv over 4 maps whose BN gains include +-1e-30:
    with a bias that is a constant level, without one a real crossing."""
    cfg = (
        "[net]\nwidth=6\nheight=6\nchannels=4\n\n"
        "[convolutional]\nbatch_normalize=1\nfilters=6\nsize=3\nstride=1\n"
        "pad=1\nactivation=relu\nbinary=1\nactivation_bits=3\n"
    )
    network = Network.from_cfg(cfg)
    network.initialize(np.random.default_rng(0))
    layer = network.layers[0]
    layer.scales = np.array([1e-30, -1e-30, 1e-30, -1e-30, 1.0, -1.0], np.float32)
    layer.biases = np.array([0.3, 0.3, 0.0, 0.0, 0.1, 0.1], np.float32)
    layer.rolling_mean = np.array([0.0, 0.0, -2.5, -2.5, 1.0, 1.0], np.float32)
    layer.rolling_var = np.ones(6, np.float32)
    return layer


class TestTinyGainsBind:
    """A +-1e-30 BN gain binds, and every table is its reference."""

    IN_SCALE = 1 / 7

    def _assert_reference(self, layer, activation):
        fan_in = layer.in_shape[0] * layer.size**2
        bound = accumulator_bound(np.uint8, fan_in)
        _assert_derived(activation, bound)
        acc = np.arange(-bound, bound + 1)
        acc = np.broadcast_to(acc, (layer.filters, acc.size))
        want = float_reference_activation(
            acc, layer.scales, layer.biases, layer.rolling_mean,
            layer.rolling_var, self.IN_SCALE, layer.out_quant.scale,
            layer.out_quant.bits, BN_EPS,
        )
        np.testing.assert_array_equal(activation.apply(acc), want)

    def test_w1a3_layer(self):
        layer = _tiny_gain_layer()
        self._assert_reference(layer, layer._thresholds_for(self.IN_SCALE))

    def test_exported_mvtu_stage(self, tmp_path):
        layer = _tiny_gain_layer()
        export_offload(
            [layer], self.IN_SCALE, layer.in_shape, directory=str(tmp_path)
        )
        arrays, _ = load_binparam(str(tmp_path))
        stage = ThresholdActivation(
            arrays["stage00-thresholds"], arrays["stage00-signs"],
            layer.out_quant.bits,
        )
        self._assert_reference(layer, stage)


class TestNaNAndInfinity:
    """The pinned corners of the float32 tables, on a plain ReLU layer."""

    def test_nan_is_level_zero_and_infinities_saturate(self):
        layer = _probe_layer(
            3, 1 / 7, "relu", True,
            [(1.0, 0.1, 0.0, 1.0), (-1.0, 0.1, 0.0, 1.0)], width=3,
        )
        x = np.array([np.nan, np.inf, -np.inf], np.float32).reshape(1, 1, 1, 3)
        out = layer.forward_batch(FeatureMapBatch(x)).data[0, :, 0, :]
        np.testing.assert_array_equal(out, [[0, 7, 0], [0, 0, 7]])

    def test_to_levels_maps_nan_to_zero(self):
        from repro.core.quantize import UnsignedUniformQuantizer

        codes = UnsignedUniformQuantizer(bits=3).to_levels(
            np.array([np.nan, -np.inf, np.inf, 0.5], np.float32)
        )
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, [0, 0, 7, 4])

    @pytest.mark.parametrize("bits", [2, 3])
    def test_table_is_ascending_per_channel(self, bits):
        layer = _probe_layer(
            bits, 0.25, "leaky", True,
            [(2.0, -0.3, 0.5, 0.25), (-0.5, 0.7, -1.0, 4.0)], width=1,
        )
        table = layer._float_band_kernel().thresholds
        assert np.isfinite(table).all()
        assert (np.diff(table, axis=1) >= 0).all()
