"""Fused conv -> pool -> threshold kernels.

The W1A3 hidden layers are ``+-1`` weights against small unsigned level
codes followed by a pool and a threshold activation.  :class:`BandKernel`
runs that whole chain as one exact-integer kernel, the way the paper's two
CPU-side wins describe it: §III-D's *fused, sliced im2col + GEMM* (the
``K**2``-inflated multiplicand never materializes; one slice-sized buffer
is reused) and §III-A's engine running "a convolutional layer together
with its subsequent pooling layer".  The same kernel runs the first layer
(§III-D gives it a custom kernel of its own): float32 values against float
weights, its BN + activation + quantizer folded into float32 thresholds
(:meth:`BandKernel.fold_float`).

The output is walked in **row bands**.  Per band the kernel

1. lowers the taps of the once-padded map (``uint8`` codes, or float32
   values for a first layer) straight into one reused ``float32`` column
   buffer (gather and widening are one copy),
2. multiplies by the weights with each channel's threshold *sign*
   folded into its weight row, so every accumulator is ``s * acc``,
3. max-pools the accumulators, then
4. counts threshold hits on the pooled band and writes the levels into
   the ``uint8`` output.

Step 3 before step 4 is exact, not approximate: the sign-folded hit count
``#{k : s*acc >= s*T_k}`` is a sum of step functions of ``s*acc`` and
therefore non-decreasing in it, so ``max`` commutes with it and the
compares touch ``stride**2`` fewer elements.  That needs the pool windows
of a band to lie inside the band, which holds for non-overlapping windows
(``size == stride``, padding at the bottom/right only); any other pool —
the stride-1 pool in front of the 13x13 layers — thresholds first and
pools the level map.

One call runs on every lane of the host (:mod:`repro.core.lanes`): a
batch of two or more frames splits by frames, a single frame splits its
output rows at multiples of the in-band pool stride, so no pool window
straddles a cut.  A single frame whose whole map is one band behind a
large weight matrix (the 13x13 layers) instead has its columns gathered
once, split by rows, and splits its *output channels*, so each lane
streams only its share of the weights.  The caller starts on the items at
once and an idle helper thread joins it; whatever no helper has started,
the caller runs itself.  Every lane runs the same band loop
(:meth:`BandKernel._segment`, or :meth:`BandKernel._finish` on a channel
range) on scratch the caller drew from its workspace.  Frames, rows and
channels are independent, so the split never changes a bit of the result.

The GEMM runs in float32.  On codes it is exact: every partial sum is an
integer bounded by ``C_in * K**2 * 255``, which :meth:`BandKernel.fold`
requires to be below ``2**24``.  On a first layer's float values each
accumulator is the one the layer's whole-map GEMM computes (the same
per-element dot product, whatever band or channel range it sits in), and
the thresholds are the float epilogue by construction
(:func:`repro.core.thresholds.bisect_thresholds`).  The consumers — the
FINN offload (:class:`repro.finn.mvtu.MVTUConvLayer`) and the CPU conv
layer (:class:`repro.nn.layers.convolutional.ConvolutionalLayer`) — fall
back to their own paths when the kernel declines (returns ``None``).

:func:`fused_conv_maxpool_batch` is the entry the ``FUSED`` conv->maxpool
instruction binds to: the band kernel when the conv offers it, else the
layers' own batched forwards on frame chunks with the intermediate map
recycled per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import lanes, workspace
from repro.core.ops import (
    _maxpool2d_into,
    accumulates_exactly,
    separable_pool,
)
from repro.core.quantize import fits_uint8
from repro.core.tensor import FeatureMapBatch, conv_output_size, pool_output_size
from repro.core.thresholds import ThresholdActivation, count_hits

#: Byte budget for one band's float32 column block.  A band's columns are
#: written once and read once by the GEMM; a quarter of the 4 MiB L2 keeps
#: them, the band's accumulators and the weight panel resident together.
_BAND_COL_BYTES = 1 << 20

#: Floor on a band's GEMM width in output positions: below it BLAS spends
#: its time in panel set-up, so narrow maps (13x13, 26x26) stay one GEMM
#: even when their deep column block exceeds the byte budget.
_BAND_MIN_POSITIONS = 1024

#: Weight-matrix size from which a single one-band frame splits its output
#: channels across lanes instead of its rows, so each lane streams only its
#: share of the weights.  Tincy's 13x13 layers (4.7 and 9.4 MB) gain from
#: it; the 26x26 layer (1.2 MB) ran ~0.5 ms slower split by channel.
_CHANNEL_SPLIT_BYTES = 1 << 22

#: Byte budget for one frame-chunk's conv output on the generic (float)
#: conv->maxpool route; equals the conv layer's own batching budget so the
#: inner ``forward_batch`` never re-chunks.
_FUSED_CHUNK_BUDGET = 1 << 23

#: ``(size, stride, total padding)`` of a max pool, Darknet convention.
Pool = Tuple[int, int, int]


def _band_rows(ckk: int, out_h: int, out_w: int, multiple: int) -> int:
    """Output rows per band: the byte budget, floored by GEMM width."""
    rows = max(
        _BAND_COL_BYTES // (4 * ckk * out_w),
        -(-_BAND_MIN_POSITIONS // out_w),
    )
    rows = -(-rows // multiple) * multiple
    return min(rows, out_h)


class _Band(NamedTuple):
    """One :meth:`BandKernel.run` call's band geometry."""

    rows: int  # output rows per band, a multiple of the in-band pool stride
    out_h: int
    out_w: int
    final_h: int
    final_w: int
    pool: Optional[Pool]  # the pool run inside each band, if any


class _Scratch(NamedTuple):
    """Flat band buffers; :meth:`BandKernel._finish` slices them by channel."""

    cols: np.ndarray
    acc: np.ndarray
    hits: np.ndarray
    cmp: np.ndarray
    pooled: Optional[np.ndarray]
    rows: Optional[np.ndarray]  # the separable pool's row maxima


def _scratch_sets(
    sets: int, cols: int, acc: int, pooled: int, rows: int, hits: int
) -> Tuple[np.ndarray, List[_Scratch]]:
    """One workspace buffer carved into *sets* :class:`_Scratch` sets.

    The arguments are element counts per set: float32 *cols*, *acc*,
    *pooled* and *rows* (``0``: no such buffer), and ``uint8`` *hits*
    (and as many ``cmp``).  Each set starts on a 64-byte boundary so its
    float32 views stay aligned.
    """
    floats = cols + acc + pooled + rows
    stride = -(-(4 * floats + 2 * hits) // 64) * 64
    buf = workspace.empty((sets, stride), np.uint8)
    out = []
    for row in buf:
        f32 = row[: 4 * floats].view(np.float32)
        u8 = row[4 * floats : 4 * floats + 2 * hits]
        ends = np.cumsum([cols, acc, pooled, rows])
        out.append(
            _Scratch(
                f32[: ends[0]],
                f32[ends[0] : ends[1]],
                u8[:hits],
                u8[hits:],
                f32[ends[1] : ends[2]] if pooled else None,
                f32[ends[2] : ends[3]] if rows else None,
            )
        )
    return buf, out


def _items(
    n: int, out_h: int, multiple: int, lanes: int
) -> List[Tuple[int, int, int]]:
    """``(frame, first_row, last_row)`` work items of one call.

    One lane, or two or more frames: one item per frame.  A single frame
    on several lanes: one item per lane, its output rows cut at
    multiples of *multiple* (the in-band pool stride) so no pool window
    straddles a cut — and not cut at all below ``2 * multiple`` rows.
    No finer: every extra item of a narrow map re-streams its (large)
    weight matrix.
    """
    windows = out_h // multiple
    count = min(lanes, windows)
    if n >= 2 or count < 2:
        return [(i, 0, out_h) for i in range(n)]
    cuts = [-(-j * windows // count) * multiple for j in range(count)] + [out_h]
    return [(0, a, b) for a, b in zip(cuts, cuts[1:])]


def _channel_cuts(c_out: int, lanes: int) -> List[Tuple[int, int]]:
    """``(first, last)`` output-channel ranges, one per lane, cut at
    multiples of 8 channels (whole SIMD rows of the weight panel)."""
    cuts = [min(c_out, -(-j * c_out // lanes // 8) * 8) for j in range(lanes)]
    cuts.append(c_out)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _padded(maps: np.ndarray, pad: int, dtype) -> np.ndarray:
    """*maps* zero-padded by *pad* in *dtype*: *maps* itself when nothing
    has to change, else a workspace buffer the caller releases.  Only the
    border is zeroed; the interior is one copy (a cast for wider codes)."""
    if pad == 0 and maps.dtype == dtype:
        return maps
    n, c, h, w = maps.shape
    padded = workspace.empty((n, c, h + 2 * pad, w + 2 * pad), dtype)
    if pad:
        padded[:, :, :pad] = 0
        padded[:, :, pad + h :] = 0
        padded[:, :, pad : pad + h, :pad] = 0
        padded[:, :, pad : pad + h, pad + w :] = 0
    np.copyto(
        padded[:, :, pad : pad + h, pad : pad + w], maps, casting="unsafe"
    )
    return padded


@dataclass(frozen=True)
class BandKernel:
    """One layer's conv -> pool -> threshold chain with folded constants.

    ``weights`` is the ``(C_out, C_in*K*K)`` float32 matrix with row ``c``
    multiplied by ``signs[c]``; ``thresholds`` the ``(C_out, 2**bits - 1)``
    float32 table compared against those sign-folded accumulators.
    ``codes`` says what the input is: ``uint8`` level codes against
    ``+-1`` weights (the W1A3 layers; build with :meth:`fold`), or float32
    values against float weights (a first layer; build with
    :meth:`fold_float`).  Run with :meth:`run`.
    """

    weights: np.ndarray
    thresholds: np.ndarray
    in_channels: int
    ksize: int
    stride: int
    pad: int
    codes: bool = True

    @classmethod
    def fold(
        cls,
        weights_pm1: np.ndarray,
        activation: ThresholdActivation,
        in_channels: int,
        ksize: int,
        stride: int,
        pad: int,
        out: Optional[np.ndarray] = None,
    ) -> Optional["BandKernel"]:
        """Fold *activation*'s signs into ``+-1`` float32 *weights_pm1*.

        Returns ``None`` when float32 accumulation would not be exact
        (``C_in * K**2 * 255 >= 2**24``) or the hit count would not fit
        the kernel's ``uint8`` counter.  When every sign is ``+1`` the
        weight matrix is shared, not copied; otherwise the folded matrix
        is written into *out* when given (float32, of the matrix's shape).
        """
        _, ckk = weights_pm1.shape
        _check_geometry(ckk, in_channels, ksize)
        if (
            not accumulates_exactly(np.uint8, 1.0, ckk)
            or activation.thresholds.shape[1] > 255
        ):
            return None
        # |acc| < 2**24, so the +-2**24-clamped float32 table compares
        # exactly (ThresholdActivation.float32_table).
        return cls(
            _sign_folded(weights_pm1, activation.signs, out),
            activation.float32_table(),
            in_channels,
            ksize,
            stride,
            pad,
        )

    @classmethod
    def fold_float(
        cls,
        weights: np.ndarray,
        signs: np.ndarray,
        table: np.ndarray,
        in_channels: int,
        ksize: int,
        stride: int,
        pad: int,
        out: Optional[np.ndarray] = None,
    ) -> "BandKernel":
        """A float-input kernel: *signs* folded into float32 *weights*
        (into *out* when given and a sign is ``-1``), *table* from
        :func:`repro.core.thresholds.bisect_thresholds`.

        Negating a weight row negates every product and so every partial
        sum exactly, so the GEMM yields ``s * acc`` bit for bit; the
        levels equal the float epilogue's as long as each accumulator is
        the one the layer's whole-map GEMM computes.
        """
        _, ckk = weights.shape
        _check_geometry(ckk, in_channels, ksize)
        if table.shape[1] > 255:
            raise ValueError("a uint8 hit counter holds at most 255 levels")
        return cls(
            _sign_folded(weights, signs, out),
            np.ascontiguousarray(table, dtype=np.float32),
            in_channels,
            ksize,
            stride,
            pad,
            codes=False,
        )

    def run(
        self, maps: np.ndarray, pool: Optional[Pool] = None
    ) -> Optional[np.ndarray]:
        """Maps ``(N, C_in, H, W)`` -> ``uint8`` levels ``(N, C_out, ., .)``.

        Bit-identical per frame to threshold-after-conv followed by the
        pool.  A code kernel returns ``None`` (nothing computed) when
        *maps* are not integer codes in ``0..255`` — proved by the dtype
        for ``uint8``, by a range scan for wider integers; a float kernel
        takes float32 values only.  All scratch and the result come from
        :mod:`repro.core.workspace` on the calling thread, before the
        work is split across :func:`repro.core.lanes.count` lanes.
        """
        n, c, h, w = maps.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        if not self.codes and maps.dtype != np.float32:
            raise ValueError(f"a float kernel takes float32 maps, got {maps.dtype}")
        out_h = final_h = conv_output_size(h, self.ksize, self.stride, self.pad)
        out_w = final_w = conv_output_size(w, self.ksize, self.stride, self.pad)
        if pool is not None:
            final_h = pool_output_size(out_h, *pool)
            final_w = pool_output_size(out_w, *pool)
        c_out, ckk = self.weights.shape
        out = workspace.empty((n, c_out, final_h, final_w), np.uint8)
        if n == 0:
            return out
        if self.codes and maps.dtype != np.uint8 and not fits_uint8(maps):
            workspace.release(out)
            return None
        padded = _padded(maps, self.pad, np.uint8 if self.codes else np.float32)

        # Pool inside the band when its windows cannot straddle bands.
        in_band = pool is not None and pool[0] == pool[1] and pool[2] < 2
        multiple = pool[1] if in_band else 1
        band = _Band(
            _band_rows(ckk, out_h, out_w, multiple),
            out_h,
            out_w,
            final_h,
            final_w,
            pool if in_band else None,
        )
        mid = None
        if pool is not None and not in_band:
            mid = workspace.empty((n, c_out, out_h, out_w), np.uint8)
        target = out if mid is None else mid
        # A single frame whose map is one band, behind a large weight
        # matrix: split its output channels, not its rows, so each lane
        # streams only its share of the weights.
        by_channel = (
            n == 1
            and lanes.count() > 1
            and band.rows >= out_h
            and self.weights.nbytes >= _CHANNEL_SPLIT_BYTES
        )
        if by_channel:
            parts = _channel_cuts(c_out, lanes.count())
            tasks = count = len(parts)
            width = out_h * out_w
        else:
            items = _items(n, out_h, multiple, lanes.count())
            tasks, count = len(items), min(lanes.count(), len(items))
            width = out_w * max(
                min(band.rows, last - first) for _, first, last in items
            )
        # Every lane's scratch is carved from one buffer of this thread's
        # workspace (a set per lane when lanes split rows, channel slices
        # of one set when they split channels): helpers never allocate.
        lane_rows = width // out_w
        span = width  # positions a band thresholds, after any in-band pool
        if in_band:
            span = -(-lane_rows // pool[1]) * final_w
        buf, scratch = _scratch_sets(
            1 if by_channel else count,
            cols=ckk * width,
            acc=c_out * width,
            pooled=c_out * span if in_band else 0,
            rows=(
                c_out * (lane_rows // 2) * out_w
                if in_band and separable_pool(*pool)
                else 0
            ),
            hits=c_out * span,
        )

        if by_channel:
            cols = scratch[0].cols[: ckk * out_h * out_w]
            taps = cols.reshape(c, self.ksize, self.ksize, out_h, out_w)
            cols = cols.reshape(ckk, -1)
            halves = _items(1, out_h, 1, count)

            def gather(lane: int, item: int) -> None:
                _, first, last = halves[item]
                self._gather(padded[0], first, last, taps[:, :, :, first:last])

            lanes.run(gather, len(halves), count)

            def work(lane: int, item: int) -> None:
                first, last = parts[item]
                self._finish(cols, first, last, 0, out_h, band, scratch[0], target[0])

        else:

            def work(lane: int, item: int) -> None:
                i, first, last = items[item]
                self._segment(padded[i], target[i], first, last, band, scratch[lane])

        lanes.run(work, tasks, count)
        if mid is not None:
            _maxpool2d_into(
                mid.reshape(n * c_out, out_h, out_w),
                out.reshape(n * c_out, final_h, final_w),
                *pool,
            )

        workspace.release(mid)
        workspace.release(buf)
        if padded is not maps:
            workspace.release(padded)
        return out

    def _gather(
        self, frame: np.ndarray, first_row: int, last_row: int, dest: np.ndarray
    ) -> None:
        """Lower output rows ``[first_row, last_row)`` of one padded frame
        into *dest*, a ``(C_in, K, K, rows, OW)`` view of a column block."""
        c, k, stride = self.in_channels, self.ksize, self.stride
        s0, s1, s2 = frame.strides
        np.copyto(
            dest,
            np.lib.stride_tricks.as_strided(
                frame[:, first_row * stride :, :],
                shape=(c, k, k, last_row - first_row, dest.shape[-1]),
                strides=(s0, s1, s2, s1 * stride, s2 * stride),
                writeable=False,
            ),
        )

    def _segment(
        self,
        frame: np.ndarray,
        target: np.ndarray,
        first_row: int,
        last_row: int,
        band: _Band,
        scratch: _Scratch,
    ) -> None:
        """The band loop over output rows ``[first_row, last_row)`` of one
        padded frame, writing levels (or, before a stride-1 pool, the
        unpooled level map) into *target*.  Allocates nothing."""
        c_out, ckk = self.weights.shape
        k = self.ksize
        for r0 in range(first_row, last_row, band.rows):
            r1 = min(r0 + band.rows, last_row)
            cols = scratch.cols[: ckk * (r1 - r0) * band.out_w]
            self._gather(
                frame, r0, r1, cols.reshape(-1, k, k, r1 - r0, band.out_w)
            )
            cols = cols.reshape(ckk, -1)
            self._finish(cols, 0, c_out, r0, r1, band, scratch, target)

    def _finish(
        self,
        cols: np.ndarray,
        first: int,
        last: int,
        r0: int,
        r1: int,
        band: _Band,
        scratch: _Scratch,
        target: np.ndarray,
    ) -> None:
        """Output channels ``[first, last)`` of the gathered rows
        ``[r0, r1)``: GEMM, in-band pool, hit count, levels into *target*.
        Uses only those channels' slices of *scratch*."""
        m, out_w, pool = last - first, band.out_w, band.pool
        positions = (r1 - r0) * out_w
        acc = scratch.acc[first * positions : last * positions].reshape(m, positions)
        np.matmul(self.weights[first:last], cols, out=acc)
        t0, t1 = r0, r1
        if pool is not None:
            t0 = r0 // pool[1]
            t1 = band.final_h if r1 == band.out_h else r1 // pool[1]
            if t1 == t0:  # ragged rows below the last pool window
                return
            size = (t1 - t0) * band.final_w
            pooled = scratch.pooled[first * size : last * size]
            rows = None
            if scratch.rows is not None:
                rows = scratch.rows[first * (t1 - t0) * out_w :]
            _maxpool2d_into(
                acc.reshape(m, r1 - r0, out_w),
                pooled.reshape(m, t1 - t0, band.final_w),
                *pool,
                scratch=rows,
            )
            acc = pooled.reshape(m, size)
        span = acc.shape[1]
        hits = scratch.hits[first * span : last * span].reshape(m, span)
        count_hits(
            acc,
            self.thresholds[first:last],
            hits,
            scratch.cmp[first * span : last * span].reshape(m, span),
        )
        np.copyto(target[first:last, t0:t1, :], hits.reshape(m, t1 - t0, -1))


def _check_geometry(ckk: int, in_channels: int, ksize: int) -> None:
    if ckk != in_channels * ksize * ksize:
        raise ValueError(
            f"weight matrix has {ckk} columns; conv geometry needs "
            f"{in_channels * ksize * ksize}"
        )


def _sign_folded(
    weights: np.ndarray, signs: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Contiguous float32 *weights* with row ``c`` times ``signs[c]``
    (shared, not copied, when every sign is ``+1``; written into *out*
    when given otherwise)."""
    if not np.all(signs > 0):
        weights = np.multiply(
            weights, signs[:, None].astype(np.float32), out=out
        )
    return np.ascontiguousarray(weights, dtype=np.float32)


def fused_conv_maxpool_batch(conv, pool, fmb: FeatureMapBatch) -> FeatureMapBatch:
    """conv -> maxpool as one step.

    *conv* and *pool* are duck-typed layer objects.  A conv exposing
    ``forward_batch_pooled`` (the exact-integer route) gets the whole
    chain in one :class:`BandKernel` call; when it declines, or has no
    such route, each stage is the layer's own ``forward_batch`` on frame
    chunks — per-frame results do not depend on the chunking — and the
    pooled batch is written into one preallocated output so large batches
    never hold more than one chunk's conv output live.
    """
    pooled_route = getattr(conv, "forward_batch_pooled", None)
    if pooled_route is not None:
        fused = pooled_route(fmb, pool)
        if fused is not None:
            return fused
    mid_c, mid_h, mid_w = conv.out_shape
    frame_bytes = mid_c * mid_h * mid_w * 4
    chunk = max(1, _FUSED_CHUNK_BUDGET // max(1, frame_bytes))
    if chunk >= fmb.batch:
        mid = conv.forward_batch(fmb)
        pooled = pool.forward_batch(mid)
        workspace.release(mid.data)
        return pooled
    first_mid = conv.forward_batch(FeatureMapBatch(fmb.data[:chunk], fmb.scale))
    first = pool.forward_batch(first_mid)
    workspace.release(first_mid.data)
    out = workspace.empty(
        (fmb.batch,) + first.data.shape[1:], first.data.dtype
    )
    out[:chunk] = first.data
    workspace.release(first.data)
    for start in range(chunk, fmb.batch, chunk):
        stop = min(start + chunk, fmb.batch)
        mid = conv.forward_batch(
            FeatureMapBatch(fmb.data[start:stop], fmb.scale)
        )
        part = pool.forward_batch(mid)
        workspace.release(mid.data)
        out[start:stop] = part.data
        workspace.release(part.data)
    return FeatureMapBatch(out, scale=first.scale)


__all__ = ["BandKernel", "Pool", "fused_conv_maxpool_batch"]
