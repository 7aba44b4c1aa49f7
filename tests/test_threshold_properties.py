"""Threshold counting equals the float epilogue — the ``requant-split-compose``
axiom against the real kernels.

``fold-requant`` replaces a split requantization (``CONV.pre`` then
``THRESHOLD.pre``, or ``.acc`` then ``.acc``) by the layer's whole forward,
and the whole forward counts thresholds.  So the axiom holds exactly when
the threshold tables are the float epilogue they replace.  Two kinds of
table are drawn here, with hostile batch-norm constants (negative gains,
zero gains, tiny variances) and 1- to 4-bit outputs, and probed at every
threshold and at its neighbours:

* the integer tables of :func:`derive_thresholds` (the W1A3 hidden
  layers), against :func:`float_reference_activation`, through both
  ``ThresholdActivation.apply`` and the band kernel's clamped float32
  copy (:func:`count_hits`);
* the float32 tables of :func:`bisect_thresholds` (a first layer), through
  a real layer: its ``-O2`` forward (the float band kernel) against its
  ``-O0`` pair (``forward_batch_pre`` + ``forward_batch_to_levels``).

Registered in ``repro.isa.passes.witness.AXIOM_KERNEL_TESTS``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fused import BandKernel
from repro.core.tensor import FeatureMapBatch
from repro.core.thresholds import (
    count_hits,
    derive_thresholds,
    float_reference_activation,
)
from repro.nn.network import Network

#: A BN gain: either sign, exactly zero, or tiny.
GAINS = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 1e-6]),
)
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

    @given(epilogue=epilogues(), in_scale=st.sampled_from([1.0, 1 / 7, 0.05, 1e-3]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_integer_tables_equal_the_float_epilogue(self, epilogue, in_scale):
        bits, out_scale, _, batch_normalize, channels = epilogue
        gain, beta, mean, var = (np.array(c, np.float64) for c in zip(*channels))
        eps = 1e-6
        if not batch_normalize:  # bias only: the identity-BN the layer derives
            gain, mean, var = np.ones_like(gain), np.zeros_like(mean), np.ones_like(var)
            eps = 0.0
        try:
            activation = derive_thresholds(
                gain, beta, mean, var, in_scale=in_scale, out_scale=out_scale,
                bits=bits, eps=eps,
            )
        except OverflowError:  # a near-zero gain puts a threshold past int64
            assume(False)
        edges = activation.thresholds[np.abs(activation.thresholds) < 1 << 24]
        acc = np.unique(
            np.concatenate([edges + d for d in range(-3, 4)] + [[0, 1, -1]])
        )
        acc = acc[np.abs(acc) < (1 << 24) - 4]
        grid = np.broadcast_to(acc, (len(channels), acc.size)).astype(np.int64)
        want = float_reference_activation(
            grid.astype(np.float64), gain, beta, mean, var, in_scale,
            out_scale, bits, eps,
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

    def test_axiom_registry_names_this_class(self):
        from repro.isa.passes.witness import AX_REQUANT_FOLD, AXIOM_KERNEL_TESTS

        path, cls, name = AXIOM_KERNEL_TESTS[AX_REQUANT_FOLD].split("::")
        assert __file__.replace("\\", "/").endswith(path)
        assert cls == type(self).__name__ and hasattr(self, name)


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
