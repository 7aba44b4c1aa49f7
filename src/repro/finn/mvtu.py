"""The Matrix-Vector-Threshold Unit (MVTU) — FINN's compute core.

An MVTU multiplies a quantized weight matrix against a stream of input
vectors and applies threshold activations to the integer accumulators.
Parallelism is *folded*: ``PE`` processing elements each consume ``SIMD``
synapses per cycle, so one matrix-vector product takes

    fold = ceil(rows / PE) * ceil(cols / SIMD)      cycles.

A convolution is lowered onto the MVTU by the sliding window unit: the
matrix is ``(C_out, K*K*C_in)`` and one vector per output pixel streams
through, so a layer costs ``OH * OW * fold`` cycles (§III-A: "only a single
generalized convolutional layer together with its subsequent pooling layer
would fit into the available fabric" — the folding is what lets one engine
serve every hidden layer).

The functional model is bit-faithful: binary weights are kept as packed
words, dot products evaluate bit-serially over the activation planes, and
the thresholds come from :func:`repro.core.thresholds.derive_thresholds`
(W1A3) or :func:`repro.finn.dense.derive_sign_thresholds` (W1A1), both a
bisection of the float pipeline over the stage's accumulator range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core import workspace
from repro.core.bitpack import bitserial_dot, pack_bits, pack_levels
from repro.core.fused import BandKernel
from repro.core.im2col import im2col_batch
from repro.core.ops import accumulates_exactly, maxpool2d_batch
from repro.core.quantize import narrow_codes
from repro.core.tensor import FeatureMapBatch, conv_output_size
from repro.core.thresholds import ThresholdActivation


@dataclass(frozen=True)
class Folding:
    """PE/SIMD parallelization of one MVTU."""

    pe: int
    simd: int

    def __post_init__(self) -> None:
        if self.pe < 1 or self.simd < 1:
            raise ValueError("PE and SIMD must be positive")

    def fold(self, rows: int, cols: int) -> int:
        """Cycles per matrix-vector product."""
        return math.ceil(rows / self.pe) * math.ceil(cols / self.simd)

    @property
    def macs_per_cycle(self) -> int:
        return self.pe * self.simd


@dataclass(frozen=True)
class MVTUGeometry:
    """Static shape of the matrix an MVTU multiplies."""

    rows: int           # output channels
    cols: int           # K*K*C_in
    weight_bits: int = 1
    activation_bits: int = 3

    @property
    def weight_storage_bits(self) -> int:
        return self.rows * self.cols * self.weight_bits


class MVTU:
    """Functional + cycle model of one matrix-vector-threshold unit."""

    def __init__(
        self,
        weights_pm1: np.ndarray,
        thresholds: ThresholdActivation,
        folding: Folding,
        bitserial: bool = False,
    ) -> None:
        weights_pm1 = np.asarray(weights_pm1)
        if weights_pm1.ndim != 2:
            raise ValueError("MVTU weights must be a 2-D matrix")
        if not np.all((weights_pm1 == 1) | (weights_pm1 == -1)):
            raise ValueError("MVTU weights must be binary (-1/+1)")
        if thresholds.channels != weights_pm1.shape[0]:
            raise ValueError(
                f"{thresholds.channels} threshold channels for "
                f"{weights_pm1.shape[0]} matrix rows"
            )
        self.geometry = MVTUGeometry(
            rows=weights_pm1.shape[0],
            cols=weights_pm1.shape[1],
            weight_bits=1,
            activation_bits=thresholds.bits,
        )
        self.folding = folding
        self.thresholds = thresholds
        #: When True, accumulators are evaluated through the packed
        #: XNOR-popcount bit-serial path (the literal hardware datapath);
        #: the default integer matmul is proven equivalent by the tests and
        #: is what large runs use.
        self.bitserial = bitserial
        # Stored at 1 byte per weight; the float32 copy is the GEMM
        # operand of matmat and the band kernel (+-1 is exact in any float
        # width).  The int64 matrix and the packed words are only built
        # for callers that ask (compilers, matvec, the bit-serial path).
        self._weights_i8 = weights_pm1.astype(np.int8)
        self._weights_f32 = weights_pm1.astype(np.float32)

    @cached_property
    def weights_pm1(self) -> np.ndarray:
        """The ``{-1,+1}`` weight matrix as int64 (built on first use)."""
        return self._weights_i8.astype(np.int64)

    @cached_property
    def _packed_weights(self) -> np.ndarray:
        return pack_bits((self._weights_i8 > 0).astype(np.uint8))[0]

    # -- functional --------------------------------------------------------------

    def matvec(self, levels: np.ndarray) -> np.ndarray:
        """One matrix-vector product + thresholding on level codes."""
        levels = np.asarray(levels)
        if levels.shape != (self.geometry.cols,):
            raise ValueError(
                f"input vector must have {self.geometry.cols} elements, "
                f"got {levels.shape}"
            )
        planes, _ = pack_levels(levels, bits=self.thresholds.bits)
        acc = bitserial_dot(self._packed_weights, planes, self.geometry.cols)
        return self.thresholds.apply(acc[:, None])[:, 0]

    def matmat(self, level_columns: np.ndarray) -> np.ndarray:
        """Threshold-activated product against many columns at once.

        ``level_columns`` is ``(cols, n_vectors)``; returns output levels of
        shape ``(rows, n_vectors)``.  Functionally identical to calling
        :meth:`matvec` per column (a test pins this), but vectorized.
        """
        level_columns = np.asarray(level_columns)
        if self.bitserial:
            acc = self.matmat_accumulate_bitserial(level_columns)
        elif (
            level_columns.dtype.itemsize == 1
            and np.issubdtype(level_columns.dtype, np.integer)
            and accumulates_exactly(np.uint8, 1.0, self.geometry.cols)
        ):
            # Single-precision BLAS GEMM, still exact: with +-1 weights and
            # 1-byte level codes every partial sum is an integer bounded by
            # cols * 255 < 2**24 (``int8`` codes bound it tighter), so each
            # float32 add is exact regardless of accumulation order —
            # bit-identical to the float64 path, at half the memory traffic.
            cols_f = workspace.empty(level_columns.shape, np.float32)
            np.copyto(cols_f, level_columns)
            acc = (self._weights_f32 @ cols_f).astype(np.int64)
            workspace.release(cols_f)
        else:
            # BLAS-backed float64 matmul: exact for these magnitudes
            # (|acc| <= cols * max_level << 2**53) and orders of magnitude
            # faster than numpy's non-BLAS integer matmul on big layers.
            acc_f = self._weights_i8.astype(np.float64) @ level_columns.astype(
                np.float64
            )
            acc = np.rint(acc_f).astype(np.int64)
        return self.thresholds.apply(acc)

    def matmat_accumulate_bitserial(self, level_columns: np.ndarray) -> np.ndarray:
        """Raw accumulators via the packed XNOR-popcount bit-serial path."""
        planes, _ = pack_levels(
            np.asarray(level_columns).T, bits=self.thresholds.bits
        )
        # planes: (n_vectors, bits, n_words); broadcast weights over vectors.
        return bitserial_dot(
            self._packed_weights[:, None, :], planes[None, :, :, :], self.geometry.cols
        )

    # -- cycle model ----------------------------------------------------------------

    def cycles_per_vector(self) -> int:
        return self.folding.fold(self.geometry.rows, self.geometry.cols)

    def cycles_for(self, n_vectors: int) -> int:
        return n_vectors * self.cycles_per_vector()


#: Byte budget for the float32 multiplicand of one
#: :meth:`MVTUConvLayer.forward_batch_matmat` call: a batch whose columns
#: exceed it runs in frame chunks (one frame at least), so the reference
#: path's peak memory does not grow with the batch.
_MATMAT_COL_BYTES = 1 << 24


class MVTUConvLayer:
    """A convolution + BN + activation executed on an MVTU (with its SWU).

    Consumes and produces *level-coded* feature maps.  The sliding window
    unit is the im2col lowering; the pooling that Darknet expresses as a
    separate layer is handled by :class:`repro.finn.accelerator` stages.
    """

    def __init__(
        self,
        mvtu: MVTU,
        in_channels: int,
        ksize: int,
        stride: int,
        pad: int,
        out_scale: float,
    ) -> None:
        self.mvtu = mvtu
        self.in_channels = in_channels
        self.ksize = ksize
        self.stride = stride
        self.pad = pad
        self.out_scale = out_scale
        expected_cols = in_channels * ksize * ksize
        if mvtu.geometry.cols != expected_cols:
            raise ValueError(
                f"MVTU matrix has {mvtu.geometry.cols} columns; conv geometry "
                f"needs {expected_cols}"
            )

    def out_shape(self, in_shape) -> tuple:
        c, h, w = in_shape
        return (
            self.mvtu.geometry.rows,
            conv_output_size(h, self.ksize, self.stride, self.pad),
            conv_output_size(w, self.ksize, self.stride, self.pad),
        )

    def forward_batch_matmat(self, fmb: FeatureMapBatch, pool=None) -> FeatureMapBatch:
        """The SWU + :meth:`MVTU.matmat` datapath, then *pool* (if any).

        The frames' im2col columns sit side by side in one multiplicand,
        so a batch is one :meth:`MVTU.matmat` (or one per frame chunk of
        ``_MATMAT_COL_BYTES``).  Every matmat route
        (float32, float64, bit-serial) is exact integer arithmetic and
        each output column reads only its own input column, so frames
        cannot influence one another.  This datapath shares no code with
        the :class:`~repro.core.fused.BandKernel` that
        :meth:`forward_batch` runs: it is the fallback for whatever the
        kernel declines and the CPU reference the kernel is checked
        against.
        """
        levels = self._input_levels(fmb)
        n = levels.shape[0]
        out_c, out_h, out_w = self.out_shape(levels.shape[1:])
        frame_bytes = 4 * self.mvtu.geometry.cols * out_h * out_w
        chunk = max(1, _MATMAT_COL_BYTES // frame_bytes)
        if n > chunk:
            parts = [
                self.forward_batch_matmat(
                    FeatureMapBatch(levels[i : i + chunk], fmb.scale), pool
                ).data
                for i in range(0, n, chunk)
            ]
            return FeatureMapBatch(np.concatenate(parts), scale=self.out_scale)
        codes = narrow_codes(levels)
        if codes is None:
            codes = levels.astype(np.int64)
        cols = im2col_batch(
            codes, self.ksize, self.stride, self.pad, side_by_side=True
        )
        if codes is not levels:
            workspace.release(codes)
        out = self.mvtu.matmat(cols).reshape(out_c, n, out_h, out_w)
        workspace.release(cols)
        out = out.transpose(1, 0, 2, 3)
        if pool is None:
            out = np.ascontiguousarray(out)
        else:
            out = maxpool2d_batch(out, pool.size, pool.stride, pool.padding)
        return FeatureMapBatch(out, scale=self.out_scale)

    def forward_batch(self, fmb: FeatureMapBatch, pool=None) -> FeatureMapBatch:
        """Batched forward, with the stage's *pool* (if any) fused in.

        One :class:`~repro.core.fused.BandKernel` call runs conv, pool and
        thresholds band by band; its float32 GEMM is exact, so every frame
        equals :meth:`forward_batch_matmat` bit for bit.  Whatever the
        kernel declines — the bit-serial datapath, a matrix too deep for
        exact float32, levels that are not 1-byte codes — takes that
        datapath instead.
        """
        levels = self._input_levels(fmb)
        kernel = None if self.mvtu.bitserial else self._band_kernel
        if kernel is not None:
            out = kernel.run(
                levels, pool and (pool.size, pool.stride, pool.padding)
            )
            if out is not None:
                return FeatureMapBatch(out, scale=self.out_scale)
        return self.forward_batch_matmat(fmb, pool)

    def _input_levels(self, fmb: FeatureMapBatch) -> np.ndarray:
        levels = np.asarray(fmb.data)
        if levels.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {levels.shape[1]}"
            )
        return levels

    @cached_property
    def _band_kernel(self):
        return BandKernel.fold(
            self.mvtu._weights_f32,
            self.mvtu.thresholds,
            self.in_channels,
            self.ksize,
            self.stride,
            self.pad,
        )

    def cycles(self, in_shape) -> int:
        _, out_h, out_w = self.out_shape(in_shape)
        return self.mvtu.cycles_for(out_h * out_w)

    def ops(self, in_shape) -> int:
        """Table-I-convention operation count (2 per MAC)."""
        _, out_h, out_w = self.out_shape(in_shape)
        return 2 * self.mvtu.geometry.rows * self.mvtu.geometry.cols * out_h * out_w


__all__ = ["Folding", "MVTUGeometry", "MVTU", "MVTUConvLayer"]
