"""Dtype-preserving kernels + arena allocator: the hot-spot bugfix pins.

The old ``maxpool2d`` padded every map into a float64 ``-inf`` canvas and
the hidden-layer GEMMs promoted integer level codes to float64; both were
pure waste — max is a *selection* (dtype-invariant) and the LUT/float32
paths are proven exact.  These tests pin the rewritten kernels bit-identical
to the old semantics across dtypes and batch sizes, and pin the
liveness-driven :class:`~repro.engine.arena.Arena` semantics the VM
relies on (recycling, guard veto, escape on ``begin_run``).
"""

import threading

import numpy as np
import pytest

from repro.core import workspace
from repro.core.im2col import im2col, im2col_batch
from repro.core.ops import conv2d, conv2d_batch, maxpool2d, maxpool2d_batch
from repro.core.quantize import UnsignedUniformQuantizer
from repro.core.tensor import FeatureMap, FeatureMapBatch, pool_output_size
from repro.engine import Arena, legacy_forward_batch_all
from repro.nn import zoo
from repro.nn.network import Network


def _maxpool_oracle(x, ksize, stride, padding=None):
    """The pre-fix kernel: pad into a float64 ``-inf`` canvas, pool, cast back."""
    if padding is None:
        padding = ksize - 1
    c, h, w = x.shape
    pad_before = padding // 2
    out_h = pool_output_size(h, ksize, stride, padding)
    out_w = pool_output_size(w, ksize, stride, padding)
    padded = np.full((c, h + padding, w + padding), -np.inf, dtype=np.float64)
    padded[:, pad_before:pad_before + h, pad_before:pad_before + w] = x
    out = np.empty((c, out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            window = padded[
                :, oy * stride:oy * stride + ksize, ox * stride:ox * stride + ksize
            ]
            out[:, oy, ox] = window.max(axis=(1, 2))
    return out.astype(x.dtype)


def _random_maps(rng, shape, dtype, count=1):
    if np.issubdtype(np.dtype(dtype), np.integer):
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -1000), min(info.max, 1000)
        data = rng.integers(lo, hi + 1, size=(count,) + shape)
    else:
        data = rng.normal(size=(count,) + shape) * 10
    return data.astype(dtype)


POOL_CONFIGS = [
    # (shape, ksize, stride, padding) — padding None = Darknet default k-1
    ((3, 13, 13), 2, 1, None),   # the stride-1 pool before Tincy's 13x13 layers
    ((4, 8, 8), 2, 2, None),
    ((2, 7, 9), 3, 2, None),
    ((5, 6, 6), 2, 2, 0),        # no padding: every window fully covered
    ((1, 5, 5), 3, 3, 2),
]


class TestMaxpoolDtypeParity:
    """The new tap-iteration pool == the old float64-padded pool, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.float32])
    @pytest.mark.parametrize("shape,ksize,stride,padding", POOL_CONFIGS)
    def test_single_frame_matches_float64_oracle(
        self, rng, dtype, shape, ksize, stride, padding
    ):
        x = _random_maps(rng, shape, dtype)[0]
        got = maxpool2d(x, ksize, stride, padding)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, _maxpool_oracle(x, ksize, stride, padding))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_batch_matches_per_frame(self, rng, dtype, batch):
        x = _random_maps(rng, (3, 13, 13), dtype, count=batch)
        got = maxpool2d_batch(x, 2, 1)
        assert got.dtype == np.dtype(dtype)
        assert got.shape[0] == batch
        for i in range(batch):
            np.testing.assert_array_equal(got[i], maxpool2d(x[i], 2, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.int8, np.uint8, np.int32])
    @pytest.mark.parametrize("shape", [(3, 9, 7), (2, 8, 11), (1, 2, 3), (2, 6, 6)])
    def test_separable_2x2_stride2_pool(self, rng, monkeypatch, dtype, shape):
        """size == stride == 2 without leading padding: row-pair then
        column-pair maxima, bit-identical to the float64 oracle."""
        from repro.core import ops

        x = _random_maps(rng, shape, dtype)[0]
        taps = ops._pool_taps

        def only_ragged(h, w, out_h, out_w, *args):
            assert 2 * out_h > h or 2 * out_w > w, "separable pool took taps"
            return taps(h, w, out_h, out_w, *args)

        monkeypatch.setattr(ops, "_pool_taps", only_ragged)
        for padding in (0, 1):  # 1 = Darknet's default for size 2
            want = _maxpool_oracle(x, 2, 2, padding)
            got = maxpool2d(x, 2, 2, padding)
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(got, want)
            out = np.empty_like(want)
            scratch = np.full(x.size, 99, dtype=dtype)
            ops._maxpool2d_into(x, out, 2, 2, padding, scratch=scratch)
            np.testing.assert_array_equal(out, want)

    def test_all_negative_map_never_sees_padding(self, rng):
        # Padding positions must never win the max even when every real
        # value is far below zero (the old kernel guaranteed this via -inf).
        x = np.full((2, 6, 6), -120, dtype=np.int8)
        got = maxpool2d(x, 2, 2)
        assert got.dtype == np.int8
        assert (got == -120).all()


class TestConvLutParity:
    """LUT-gathered code GEMM == dense dequantized-values GEMM, bit for bit."""

    def _codes_and_lut(self, rng, shape, scale=1.0 / 7.0):
        codes = rng.integers(0, 8, size=shape).astype(np.uint8)
        lut = (np.arange(256, dtype=np.float64) * scale).astype(np.float32)
        return codes, lut

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_single_frame(self, rng, stride, pad):
        codes, lut = self._codes_and_lut(rng, (4, 9, 9))
        weights = rng.normal(size=(6, 4, 3, 3)).astype(np.float32)
        bias = rng.normal(size=6).astype(np.float32)
        via_lut = conv2d(codes, weights, bias, stride=stride, pad=pad, lut=lut)
        dense = conv2d(lut[codes], weights, bias, stride=stride, pad=pad)
        assert via_lut.dtype == dense.dtype == np.float32
        np.testing.assert_array_equal(via_lut, dense)

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_batch_matches_single_frame(self, rng, batch):
        codes, lut = self._codes_and_lut(rng, (batch, 3, 7, 7))
        weights = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=5).astype(np.float32)
        out = conv2d_batch(codes, weights, bias, stride=1, pad=1, lut=lut)
        assert out.shape[0] == batch
        for i in range(batch):
            np.testing.assert_array_equal(
                out[i], conv2d(codes[i], weights, bias, stride=1, pad=1, lut=lut)
            )

    def test_pad_dequantizes_to_exact_zero(self, rng):
        # lut[0] must equal the dense path's zero padding exactly: level 0
        # dequantizes to +0.0 for any scale.
        codes, lut = self._codes_and_lut(rng, (2, 4, 4), scale=0.37)
        weights = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            conv2d(codes, weights, stride=1, pad=2, lut=lut),
            conv2d(lut[codes], weights, stride=1, pad=2),
        )


class TestIm2colDtypePreservation:
    """The lowering must carry the input dtype — codes stay narrow."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32, np.float32])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_single_frame_dtype(self, rng, dtype, pad):
        x = _random_maps(rng, (3, 6, 6), dtype)[0]
        cols = im2col(x, 3, 1, pad)
        assert cols.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32])
    def test_batch_dtype_and_frame_identity(self, rng, dtype):
        x = _random_maps(rng, (2, 5, 5), dtype, count=3)
        cols = im2col_batch(x, 3, 2, 1)
        assert cols.dtype == np.dtype(dtype)
        for i in range(3):
            np.testing.assert_array_equal(cols[i], im2col(x[i], 3, 2, 1))

    def test_padding_fill_is_zero_in_input_dtype(self):
        x = np.full((1, 2, 2), 7, dtype=np.uint8)
        cols = im2col(x, 3, 1, 2)
        assert cols.dtype == np.uint8
        assert cols.min() == 0  # padding positions, not wrapped values


class TestToLevelsInPlacePipeline:
    """The buffered to_levels == the old four-temporary expression."""

    @pytest.mark.parametrize("bits,scale", [(3, 1.0 / 7.0), (3, 0.11), (2, 0.5)])
    def test_matches_expression_oracle(self, rng, bits, scale):
        quant = UnsignedUniformQuantizer(bits=bits, scale=scale)
        # Cover negatives (clip at 0), overflow (clip at top), exact ties.
        x = np.concatenate([
            rng.normal(size=500) * quant.max_value,
            np.arange(0, quant.levels + 1) * scale,          # exact levels
            (np.arange(0, quant.levels) + 0.5) * scale,      # halfway ties
        ]).astype(np.float32)
        oracle = np.clip(
            np.floor(x.astype(np.float64) / scale + 0.5), 0, quant.levels
        ).astype(np.int32)
        got = quant.to_levels(x)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, oracle)

    def test_input_not_mutated(self, rng):
        quant = UnsignedUniformQuantizer()
        x = rng.normal(size=(4, 5)).astype(np.float32)
        before = x.copy()
        quant.to_levels(x)
        np.testing.assert_array_equal(x, before)


class TestMVTUFloat32ExactPath:
    """1-byte codes take the float32 GEMM; it matches the float64 path exactly."""

    def _mvtu(self, rng, rows=6, cols=20):
        from repro.core.thresholds import ThresholdActivation
        from repro.finn.mvtu import MVTU
        from repro.finn.schedule import Folding

        thresholds = ThresholdActivation(
            np.sort(rng.integers(-30, 31, size=(rows, 7)), axis=1).astype(np.int64),
            rng.choice([-1, 1], size=rows).astype(np.int8),
            bits=3,
        )
        weights = rng.choice([-1, 1], size=(rows, cols))
        return MVTU(weights, thresholds, Folding(1, 1))

    def test_uint8_and_int64_columns_agree(self, rng):
        mvtu = self._mvtu(rng)
        codes = rng.integers(0, 8, size=(20, 57)).astype(np.uint8)
        # uint8 columns satisfy the float32-exactness gate; int64 columns
        # fall back to the float64 GEMM.  Same levels out, bit for bit.
        np.testing.assert_array_equal(
            mvtu.matmat(codes), mvtu.matmat(codes.astype(np.int64))
        )

    def test_matches_integer_oracle(self, rng):
        mvtu = self._mvtu(rng)
        codes = rng.integers(0, 8, size=(20, 31)).astype(np.uint8)
        acc = mvtu.weights_pm1 @ codes.astype(np.int64)
        np.testing.assert_array_equal(
            mvtu.matmat(codes), mvtu.thresholds.apply(acc)
        )


def _w1a3_pair(rng, c_in, c_out, ksize, h, w, pool):
    """A real binary conv (+ optional maxpool) layer pair with hostile BN
    constants: negative gains (sign -1 channels) and zero gains (constant
    channels whose thresholds are the +-(B + 1) sentinels, one pinned at
    level 0 and one at level 2**bits - 1)."""
    cfg = (
        f"[net]\nwidth={w}\nheight={h}\nchannels={c_in}\n\n"
        f"[convolutional]\nbatch_normalize=1\nfilters={c_out}\nsize={ksize}\n"
        f"stride=1\npad=1\nactivation=relu\nbinary=1\nactivation_bits=3\n"
    )
    if pool is not None:
        cfg += f"\n[maxpool]\nsize={pool[0]}\nstride={pool[1]}\n"
        if len(pool) == 3:
            cfg += f"padding={pool[2]}\n"
    net = Network.from_cfg(cfg)
    net.initialize(rng)
    conv = net.layers[0]
    gains = rng.uniform(0.5, 2.0, size=c_out) * rng.choice([-1.0, 1.0], size=c_out)
    conv.biases = rng.normal(size=c_out).astype(np.float32)
    if c_out >= 3:
        gains[:2] = 0.0
        conv.biases[:2] = (-5.0, 5.0)
    conv.scales = gains.astype(np.float32)
    conv.rolling_mean = (rng.normal(size=c_out) * 0.5).astype(np.float32)
    conv.rolling_var = rng.uniform(0.5, 2.0, size=c_out).astype(np.float32)
    return conv, (net.layers[1] if pool is not None else None)


def _level_batch(rng, batch, shape):
    """Random 3-bit codes; frame 0 all zeros, frame 1 all at 2**bits - 1."""
    levels = rng.integers(0, 8, size=(batch,) + tuple(shape)).astype(np.int32)
    if batch > 0:
        levels[0] = 0
    if batch > 1:
        levels[1] = 7
    return levels


#: (c_in, c_out, ksize, h, w, pool) — pool is (size, stride[, padding]) or
#: None; padding defaults to Darknet's size - 1.
BAND_CASES = [
    (16, 5, 3, 13, 13, (2, 1)),    # the padded stride-1 pool before 13x13
    (3, 4, 3, 13, 13, (2, 2)),
    (1, 3, 3, 5, 7, None),         # smaller than one band
    (7, 6, 1, 9, 11, (2, 2)),      # 1x1 conv, no padding
    (5, 4, 3, 9, 11, (2, 2, 0)),   # unpadded pool drops the odd row/column
    (64, 3, 3, 47, 47, (2, 2)),    # 3 bands at the shipped constants
    (64, 3, 3, 47, 45, None),
    (64, 4, 1, 1, 1, (2, 2)),      # a single padded pool window
]


class TestBandKernel:
    """The band-tiled conv -> pool -> threshold kernel against the two
    independent references it does not share code with: the -O0 batch
    chain that -O2's ``FUSED`` step replaces (``forward_batch_acc`` ->
    ``forward_batch_thresholds`` -> ``MaxpoolLayer.forward_batch``) and
    ``MVTU(bitserial=True)`` on the matmat datapath.

    Registered in ``repro.isa.passes.witness.AXIOM_KERNEL_TESTS`` as the
    kernel-level test of the ``fused-chain-compose`` axiom.
    """

    def _check(self, rng, c_in, c_out, ksize, h, w, pool, batch):
        from repro.core.fused import fused_conv_maxpool_batch
        from repro.finn.accelerator import compile_stages

        conv, pool_layer = _w1a3_pair(rng, c_in, c_out, ksize, h, w, pool)
        layers = [conv] if pool_layer is None else [conv, pool_layer]
        in_scale = 0.25 / np.sqrt(c_in * ksize * ksize)
        levels = _level_batch(rng, batch, conv.in_shape)
        fmb = FeatureMapBatch(levels, scale=in_scale)
        (serial,) = compile_stages(layers, in_scale, conv.in_shape, bitserial=True)
        (stage,) = compile_stages(layers, in_scale, conv.in_shape)

        def o0_chain(x):
            out = conv.forward_batch_thresholds(conv.forward_batch_acc(x))
            return out if pool_layer is None else pool_layer.forward_batch(out)

        expected = list(o0_chain(fmb).data) if batch else []
        bitserial = serial.forward_batch(fmb)
        for i, want in enumerate(expected):
            np.testing.assert_array_equal(bitserial.data[i], want)

        got = {
            "cpu": conv.forward_batch_pooled(fmb, pool_layer),
            "finn": stage.forward_batch(fmb),
        }
        if pool_layer is None:
            got["layer"] = conv.forward_batch(fmb)
        else:
            got["fused"] = fused_conv_maxpool_batch(conv, pool_layer, fmb)
        out_shape = layers[-1].out_shape
        for name, result in got.items():
            assert result is not None, name
            assert result.data.dtype == np.uint8, name
            assert result.data.shape == (batch,) + tuple(out_shape), name
            assert result.scale == conv.out_quant.scale, name
            for i, want in enumerate(expected):
                np.testing.assert_array_equal(result.data[i], want, err_msg=name)
        return np.stack(expected) if expected else None

    @pytest.mark.parametrize("batch", [0, 1, 5])
    @pytest.mark.parametrize("case", BAND_CASES)
    def test_equals_single_frame_chain_and_bitserial(self, rng, case, batch):
        self._check(rng, *case, batch)

    def test_shipped_constants_give_three_ragged_bands(self):
        from repro.core import fused

        rows = fused._band_rows(64 * 9, 47, 47, 2)
        assert rows % 2 == 0 and 2 * rows < 47 <= 3 * rows and 47 % rows

    @pytest.mark.parametrize("seed", range(12))
    def test_random_geometry_many_bands(self, seed, monkeypatch):
        """Random odd maps with the band shrunk to a few rows, so small
        maps span many bands with a ragged last one."""
        from repro.core import fused

        rng = np.random.default_rng(1000 + seed)
        c_in = int(rng.integers(1, 65))
        ksize = int(rng.choice([1, 3]))
        h, w = (int(2 * rng.integers(2, 9) + 1) for _ in range(2))
        pool = [None, (2, 2), (2, 1), (2, 2, 0)][seed % 4]
        monkeypatch.setattr(fused, "_BAND_COL_BYTES", 4 * c_in * ksize**2 * w * 2)
        monkeypatch.setattr(fused, "_BAND_MIN_POSITIONS", 1)
        assert -(-h // fused._band_rows(c_in * ksize**2, h, w, 2)) >= 3
        out = self._check(rng, c_in, 6, ksize, h, w, pool, batch=2)
        # constant channels sit at the two ends of the level range
        assert (out[:, 0] == 0).all() and (out[:, 1] == 7).all()

    def test_geometry_beyond_float32_exactness_falls_back(self, rng, monkeypatch):
        """c_in * k**2 * 255 >= 2**24: the kernel must decline, not run."""
        from repro.core.fused import BandKernel
        from repro.finn.accelerator import compile_stages

        c_in = (1 << 24) // 255 + 1
        conv, _ = _w1a3_pair(rng, c_in, 3, 1, 3, 3, None)
        in_scale = 0.25 / np.sqrt(c_in)
        (stage,) = compile_stages([conv], in_scale, conv.in_shape)
        assert conv._band_kernel(in_scale) is None
        assert stage.conv._band_kernel is None

        def never(*args, **kwargs):
            raise AssertionError("band kernel ran on an inexact geometry")

        monkeypatch.setattr(BandKernel, "run", never)
        fmb = FeatureMapBatch(_level_batch(rng, 3, conv.in_shape), scale=in_scale)
        assert conv.forward_batch_pooled(fmb) is None
        batched = conv.forward_batch(fmb)
        offloaded = stage.forward_batch(fmb)
        want = conv.forward_batch_to_levels(conv.forward_batch_pre(fmb)).data
        np.testing.assert_array_equal(batched.data, want)
        np.testing.assert_array_equal(offloaded.data, want)

    def test_non_level_input_declines(self, rng):
        conv, pool_layer = _w1a3_pair(rng, 4, 5, 3, 8, 8, (2, 2))
        for bad in (
            rng.integers(0, 8, size=(2, 4, 8, 8)).astype(np.int32) - 1,
            rng.integers(0, 8, size=(2, 4, 8, 8)).astype(np.int32) + 250,
            rng.random(size=(2, 4, 8, 8)).astype(np.float32),
        ):
            assert conv.forward_batch_pooled(FeatureMapBatch(bad, 0.1), pool_layer) is None

    def test_axiom_registry_names_this_test(self):
        from repro.isa.passes.witness import AX_FUSED_CHAIN, AXIOM_KERNEL_TESTS

        path, cls, name = AXIOM_KERNEL_TESTS[AX_FUSED_CHAIN].split("::")
        assert __file__.replace("\\", "/").endswith(path)
        assert cls == type(self).__name__ and hasattr(self, name)

    def test_scratch_is_returned_to_the_workspace(self, rng):
        conv, pool_layer = _w1a3_pair(rng, 8, 16, 3, 30, 30, (2, 2))
        fmb = FeatureMapBatch(_level_batch(rng, 2, conv.in_shape), scale=0.05)
        arena = Arena(min_bytes=1)
        with workspace.install(arena):
            out = conv.forward_batch_pooled(fmb, pool_layer)
        # only the result is still checked out
        assert [b.nbytes for b in arena._in_use.values()] == [out.data.nbytes]


class _LaneProbe:
    """Records which thread ran which rows of each band-kernel segment.

    With ``expect_split`` set, each thread's segments hold until the other
    side's first segment has started (at most :attr:`HOLD_S`): the caller
    waits for a helper, and a helper that joined first waits for the
    caller instead of taking every item while the caller is descheduled.
    So a working split is seen on two threads every time, whatever the
    scheduler does; a helper that never starts shows as every segment on
    the caller.
    """

    HOLD_S = 10.0

    def __init__(self):
        self.caller = threading.get_ident()
        self.expect_split = False
        self.reset()

    def reset(self):
        self.calls = []  # (thread ident, first_row, last_row)
        self.helper_started = threading.Event()
        self.caller_started = threading.Event()

    def enter(self, first_row, last_row):
        ident = threading.get_ident()
        self.calls.append((ident, first_row, last_row))
        mine, other = self.helper_started, self.caller_started
        if ident == self.caller:
            mine, other = other, mine
        mine.set()
        if self.expect_split:
            other.wait(self.HOLD_S)

    def threads(self):
        return {ident for ident, _, _ in self.calls}

    def rows(self, helper):
        return [
            (first, last)
            for ident, first, last in self.calls
            if (ident != self.caller) == helper
        ]


@pytest.fixture
def two_lanes(monkeypatch):
    """Two lanes on any host (one-core CI runners included), with every
    band segment recorded by a :class:`_LaneProbe`."""
    from repro.core import fused, lanes

    monkeypatch.setattr(lanes, "_LANES", 2)
    probe = _LaneProbe()
    segment = fused.BandKernel._segment

    def recorded(kernel, frame, target, first_row, last_row, band, scratch):
        probe.enter(first_row, last_row)
        segment(kernel, frame, target, first_row, last_row, band, scratch)

    monkeypatch.setattr(fused.BandKernel, "_segment", recorded)
    return probe


def _lane_setup(rng, c_in, c_out, ksize, h, w, pool, batch):
    """A folded kernel, its level input and pool tuple, and its conv rows."""
    conv, pool_layer = _w1a3_pair(rng, c_in, c_out, ksize, h, w, pool)
    kernel = conv._band_kernel(0.25 / np.sqrt(c_in * ksize * ksize))
    levels = _level_batch(rng, batch, conv.in_shape)
    pool = pool_layer and (pool_layer.size, pool_layer.stride, pool_layer.padding)
    return kernel, levels, pool, conv.out_shape[1]


#: (c_in, c_out, ksize, h, w, pool) geometries the two-lane split must
#: reproduce bit for bit, each at a batch that splits, with its item count.
LANE_CASES = [
    ((8, 6, 3, 13, 11, (2, 2)), 1, 2),    # odd rows: the last pool window ragged
    ((5, 4, 3, 9, 11, (2, 2, 0)), 1, 2),  # unpadded: the odd last row dropped
    ((16, 5, 3, 13, 13, (2, 1)), 1, 2),   # stride-1 pool: threshold, then pool
    ((32, 6, 3, 13, 13, None), 1, 2),     # the 13x13 layers, no pool
    ((64, 3, 3, 47, 47, (2, 2)), 1, 2),   # 3 bands: two in one lane's rows
    ((8, 6, 3, 13, 11, (2, 2)), 2, 2),    # batches split by frames
    ((8, 6, 3, 13, 11, (2, 2)), 3, 3),
]


class TestBandLanes:
    """The two-lane split of :meth:`BandKernel.run` (:mod:`repro.core.lanes`):
    bit-identical to the one-lane result and to :class:`TestBandKernel`'s
    references, cut where pool windows cannot straddle, and safe when the
    helper is busy or the process forks."""

    @pytest.mark.parametrize(
        "geometry,batch,items",
        LANE_CASES,
        ids=[f"{g}-n{b}" for g, b, _ in LANE_CASES],
    )
    def test_forced_two_lanes_are_bit_identical(
        self, two_lanes, rng, monkeypatch, geometry, batch, items
    ):
        from repro.core import lanes

        kernel, levels, pool, out_h = _lane_setup(rng, *geometry, batch)
        two_lanes.expect_split = True
        two = kernel.run(levels, pool)
        assert len(two_lanes.threads()) == 2
        spans = sorted(two_lanes.rows(False) + two_lanes.rows(True))
        assert len(spans) == items
        if batch == 1:  # contiguous rows, cut between pool windows
            stride = pool[1] if pool and pool[0] == pool[1] else 1
            assert spans[0][0] == 0 and spans[-1][1] == out_h
            for (_, cut), (cut_too, _) in zip(spans, spans[1:]):
                assert cut == cut_too and cut % stride == 0
        else:  # whole frames, taken by whichever lane is free
            assert set(spans) == {(0, out_h)}
        monkeypatch.setattr(lanes, "_LANES", 1)
        assert kernel.run(levels, pool).tobytes() == two.tobytes()
        monkeypatch.setattr(lanes, "_LANES", 2)
        TestBandKernel()._check(rng, *geometry, batch)

    @pytest.mark.parametrize(
        "geometry", [(4, 5, 3, 3, 5, (2, 2)), (64, 4, 1, 1, 1, (2, 2))]
    )
    def test_fewer_rows_than_two_pool_windows_do_not_split(
        self, two_lanes, rng, geometry
    ):
        kernel, levels, pool, out_h = _lane_setup(rng, *geometry, 1)
        assert out_h < 2 * pool[1]
        kernel.run(levels, pool)
        assert two_lanes.calls == [(two_lanes.caller, 0, out_h)]
        TestBandKernel()._check(rng, *geometry, 1)

    def test_busy_helper_share_is_reclaimed_without_waiting(
        self, two_lanes, rng, monkeypatch
    ):
        from repro.core import lanes

        kernel, levels, pool, out_h = _lane_setup(rng, 8, 6, 3, 13, 11, (2, 2), 1)
        monkeypatch.setattr(lanes, "_LANES", 1)
        one = kernel.run(levels, pool)
        monkeypatch.setattr(lanes, "_LANES", 2)
        helpers = lanes._Helpers(1)
        monkeypatch.setattr(lanes, "_helpers", helpers)
        gate, started = threading.Event(), threading.Event()

        def hold(lane, item):
            started.set()
            gate.wait(60)

        helpers.offer(lanes._Call(hold, 1, 2))  # another caller's share
        assert started.wait(10)
        close = lanes._Call.close

        def close_without_waiting(call):
            assert call._helping == 0, "the caller waited on a helper"
            close(call)

        monkeypatch.setattr(lanes._Call, "close", close_without_waiting)
        two_lanes.reset()
        try:
            two = kernel.run(levels, pool)
        finally:
            gate.set()
        # The caller ran its own rows, then the helper's, itself.
        (first, cut), (cut_too, last) = two_lanes.rows(False)
        assert (first, cut, last) == (0, cut_too, out_h) and 0 < cut < out_h
        assert two_lanes.threads() == {two_lanes.caller}
        assert two.tobytes() == one.tobytes()

    def test_item_exceptions_reach_the_caller(self, two_lanes):
        from repro.core import lanes

        def work(lane, item):
            if item == 1:
                raise RuntimeError("item 1 failed")

        with pytest.raises(RuntimeError, match="item 1 failed"):
            lanes.run(work, 2, 2)

    def test_concurrent_callers_run_every_item_once(self, monkeypatch):
        """Six callers share three lanes' helpers with the GIL handed over
        often: every item runs once, and no lane of a call runs two items
        at the same time (each lane owns one scratch set)."""
        import sys
        import time

        from repro.core import lanes

        monkeypatch.setattr(lanes, "_LANES", 3)
        monkeypatch.setattr(lanes, "_helpers", lanes._Helpers(2))
        lock, errors = threading.Lock(), []

        def caller(index):
            ran, busy = [], set()

            def work(lane, item):
                with lock:
                    assert lane not in busy, "two items on one lane at once"
                    busy.add(lane)
                time.sleep(0.0002)  # long enough for the other lanes to overlap
                with lock:
                    busy.discard(lane)
                    ran.append(item)

            try:
                for _ in range(40):
                    ran.clear()
                    lanes.run(work, 7, 3)
                    assert sorted(ran) == list(range(7))
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append((index, exc))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    @pytest.mark.integration
    def test_forked_child_runs_its_own_helper(self, two_lanes, rng):
        import multiprocessing

        kernel, levels, pool, out_h = _lane_setup(rng, 8, 6, 3, 13, 11, (2, 2), 1)
        two_lanes.expect_split = True
        want = kernel.run(levels, pool).tobytes()
        assert len(two_lanes.threads()) == 2  # the parent's helper is running
        helper_rows = two_lanes.rows(True)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def child():
            try:
                two_lanes.reset()
                same = kernel.run(levels, pool).tobytes() == want
                writer.send((same, two_lanes.rows(True)))
            except BaseException as exc:  # noqa: BLE001 — reported to the parent
                writer.send((repr(exc), None))

        process = context.Process(target=child)
        process.start()
        try:
            assert reader.poll(60), "the forked child never answered"
            same, child_helper_rows = reader.recv()
        finally:
            process.join(30)
        assert process.exitcode == 0
        assert same is True, same
        # In the child too, the helper's rows ran on a thread of its own.
        assert child_helper_rows == helper_rows


class TestArena:
    """Allocator semantics the VM's liveness release depends on."""

    def test_release_then_reuse_is_a_hit(self):
        arena = Arena()
        a = arena.empty((8192,), np.uint8)
        assert arena.misses == 1 and arena.hits == 0
        assert arena.release(a)
        b = arena.empty((2048,), np.float32)  # 8192 bytes: exact refit
        assert arena.hits == 1 and arena.misses == 1
        assert b.dtype == np.float32 and b.shape == (2048,)

    def test_small_allocations_bypass_the_pool(self):
        arena = Arena()
        a = arena.empty((16,), np.uint8)
        assert not arena.release(a)
        assert arena.stats()["misses"] == 0

    def test_guard_vetoes_recycling_shared_memory(self):
        arena = Arena()
        a = arena.empty((8192,), np.uint8)
        view = a[100:200]
        assert not arena.release(a, guard=[view])
        assert arena.release(a, guard=[np.zeros(4)])  # unrelated guard: fine

    def test_foreign_arrays_are_a_noop(self):
        arena = Arena()
        assert not arena.release(np.zeros(8192, dtype=np.uint8))
        assert not arena.release(None)

    def test_begin_run_lets_outstanding_buffers_escape(self):
        arena = Arena()
        a = arena.empty((8192,), np.uint8)
        a[:] = 7
        arena.begin_run()
        assert not arena.release(a)          # no longer arena-owned
        b = arena.empty((8192,), np.uint8)   # must NOT recycle a's memory
        b[:] = 9
        assert not np.shares_memory(a, b)
        assert (a == 7).all()

    def test_high_water_tracks_simultaneous_live_bytes(self):
        arena = Arena()
        a = arena.empty((8192,), np.uint8)
        b = arena.empty((4096,), np.uint8)
        assert arena.high_water_bytes == 8192 + 4096
        arena.release(a)
        arena.release(b)
        arena.empty((4096,), np.uint8)
        assert arena.high_water_bytes == 8192 + 4096  # monotone

    def test_stats_snapshot_keys(self):
        stats = Arena().stats()
        for key in (
            "hits", "misses", "recycled", "evicted", "allocated_bytes",
            "high_water_bytes", "free_buffers", "free_bytes",
        ):
            assert key in stats

    def test_growth_miss_evicts_smallest_free_buffers_down_to_high_water(self):
        arena = Arena()
        arena.empty((20480,), np.uint8)
        arena.begin_run()  # escaped: high-water 20480, nothing owned
        small = arena.empty((4096,), np.uint8)
        large = arena.empty((8192,), np.uint8)
        assert arena.release(small) and arena.release(large)
        arena.empty((12288,), np.uint8)  # fits neither free buffer
        # 12288 free + 12288 requested is 4096 over the high-water mark:
        # the smallest free buffer goes, the larger one stays.
        stats = arena.stats()
        assert stats["evicted"] == 1
        assert stats["free_buffers"] == 1 and stats["free_bytes"] == 8192
        assert stats["free_bytes"] + 12288 <= stats["high_water_bytes"]

    def test_hits_never_evict(self):
        arena = Arena()
        held = [arena.empty((8192 * k,), np.uint8) for k in (1, 2, 3)]
        for array in held:
            assert arena.release(array)
        for k in (1, 2, 3):
            arena.release(arena.empty((8192 * k,), np.uint8))
        stats = arena.stats()
        assert stats["hits"] == 3 and stats["evicted"] == 0
        assert stats["free_bytes"] == 6 * 8192


class TestWorkspaceHook:
    """core kernels draw from whatever allocator the engine installs."""

    def test_plain_numpy_without_installed_allocator(self):
        assert workspace.current() is None
        a = workspace.empty((4, 4), np.int8)
        assert a.shape == (4, 4) and a.dtype == np.int8
        assert not workspace.release(a)

    def test_install_routes_to_arena_and_restores(self):
        arena = Arena()
        with workspace.install(arena):
            assert workspace.current() is arena
            a = workspace.empty((8192,), np.uint8)
            assert arena.stats()["misses"] == 1
            assert workspace.release(a)
            assert arena.stats()["recycled"] == 1
        assert workspace.current() is None

    def test_install_restores_on_exception(self):
        arena = Arena()
        with pytest.raises(RuntimeError):
            with workspace.install(arena):
                raise RuntimeError("step blew up")
        assert workspace.current() is None


class TestExecutorArena:
    """End-to-end: batched runs recycle buffers and stay bit-identical."""

    def _network(self, rng):
        network = Network(zoo.cnv6_config())
        network.initialize(rng)
        return network

    def _fmb(self, rng, network, count):
        return FeatureMapBatch.from_maps([
            FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
            for _ in range(count)
        ])

    def test_run_reports_arena_and_matches_legacy(self, rng):
        network = self._network(rng)
        fmb = self._fmb(rng, network, 3)
        vm = network.vm(1)
        out = vm.run(fmb)
        report = vm.last_report
        assert report.arena is not None
        assert report.arena["recycled"] > 0      # liveness releases landed
        legacy = legacy_forward_batch_all(network, fmb)[-1]
        np.testing.assert_array_equal(out.data, legacy.data)

    def test_warm_rerun_hits_the_pool_without_corrupting_results(self, rng):
        network = self._network(rng)
        fmb = self._fmb(rng, network, 2)
        vm = network.vm(1)
        first = vm.run(fmb)
        first_copy = first.data.copy()
        second = vm.run(fmb)
        # Warm arena: the second run recycles the first run's buffers.
        assert vm.last_report.arena["hits"] > 0
        np.testing.assert_array_equal(second.data, first_copy)
        # The first run's escaped output still owns its memory.
        np.testing.assert_array_equal(first.data, first_copy)

    def test_batch_size_sweep_retains_about_the_high_water(self, rng):
        # Two ascending 1..8 sweeps: without the bound the free list kept
        # one buffer set per batch size (3x the high-water on CNV-6).
        network = self._network(rng)
        vm = network.vm()
        for _sweep in range(2):
            for batch in range(1, 9):
                vm.run(self._fmb(rng, network, batch))
        arena = vm.last_report.arena
        assert arena["evicted"] > 0
        assert arena["free_bytes"] <= 1.1 * arena["high_water_bytes"]

    def test_same_size_runs_take_no_misses_after_the_first(self, rng):
        network = self._network(rng)
        vm = network.vm()
        fmb = self._fmb(rng, network, 8)
        vm.run(fmb)
        first = vm.last_report.arena
        for _ in range(50):
            vm.run(fmb)
        arena = vm.last_report.arena
        assert arena["misses"] == first["misses"]
        assert arena["evicted"] == first["evicted"]

    def test_tincy_batch1_runs_keep_zero_misses_per_run(self, rng):
        network = Network(zoo.tincy_yolo_config())
        network.initialize(rng)
        vm = network.vm()
        fmb = self._fmb(rng, network, 1)
        vm.run(fmb)
        misses = vm.last_report.arena["misses"]
        for _ in range(4):
            vm.run(fmb)
            assert vm.last_report.arena["misses"] == misses

    def test_arena_budget_scales_with_batch(self, rng):
        network = self._network(rng)
        plan = network.plan()
        per_frame = plan.peak_live_bytes()
        assert plan.arena_budget(1) == per_frame
        assert plan.arena_budget(16) == 16 * per_frame
        assert plan.arena_budget(0) == 0
        with pytest.raises(ValueError):
            plan.arena_budget(-1)

    def test_perf_reconciliation(self, rng):
        from repro.perf.memory import arena_reconciliation

        network = self._network(rng)
        vm = network.vm(1)  # the plan's schedule: one instruction per layer
        vm.run(self._fmb(rng, network, 4))
        ledger = arena_reconciliation(network, vm.last_report)
        assert ledger["batch"] == 4
        assert ledger["plan_bytes"] == network.plan().arena_budget(4)
        # Every slot priced at its producer's dtype (int8 sign codes here):
        # the plan's figure is the run's measured live-map high water.
        assert ledger["plan_bytes"] == vm.last_report.peak_live_bytes
        assert ledger["arena_high_water_bytes"] == (
            vm.last_report.arena["high_water_bytes"]
        )
        assert ledger["scratch_bytes"] >= 0
        assert ledger["ratio"] > 0

    def test_reconciliation_requires_arena_snapshot(self, rng):
        from repro.isa import ExecutionReport
        from repro.perf.memory import arena_reconciliation

        with pytest.raises(ValueError, match="arena"):
            arena_reconciliation(self._network(rng), ExecutionReport(batch=0))
