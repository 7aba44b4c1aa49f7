"""Fused conv -> pool -> threshold kernels.

The W1A3 hidden layers are ``+-1`` weights against small unsigned level
codes followed by a pool and a threshold activation.  :class:`BandKernel`
runs that whole chain as one exact-integer kernel, the way the paper's two
CPU-side wins describe it: §III-D's *fused, sliced im2col + GEMM* (the
``K**2``-inflated multiplicand never materializes; one slice-sized buffer
is reused) and §III-A's engine running "a convolutional layer together
with its subsequent pooling layer".

The output is walked in **row bands**.  Per band the kernel

1. lowers the taps of the once-padded ``uint8`` map straight into one
   reused ``float32`` column buffer (gather and widening are one copy),
2. multiplies by the ``+-1`` weights with each channel's threshold *sign*
   folded into its weight row, so every accumulator is ``s * acc``,
3. max-pools the accumulators, then
4. counts threshold hits on the pooled band and writes the levels into
   the output.

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
straddles a cut.  The caller starts on the items at once and an idle
helper thread joins it; whatever no helper has started, the caller runs
itself.  Every lane runs the same band loop (:meth:`BandKernel._segment`)
on scratch the caller drew from its workspace.  Frames and rows are
independent, so the split never changes a bit of the result.

The GEMM runs in float32 and is still exact: every partial sum is an
integer bounded by ``C_in * K**2 * 255``, which :meth:`BandKernel.fold`
requires to be below ``2**24``.  Both consumers — the FINN offload
(:class:`repro.finn.mvtu.MVTUConvLayer`) and the CPU conv layer
(:class:`repro.nn.layers.convolutional.ConvolutionalLayer`) — fall back
to their own paths when the kernel declines (returns ``None``).

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
from repro.core.ops import _F32_EXACT, _maxpool2d_into, accumulates_exactly
from repro.core.quantize import fits_uint8
from repro.core.tensor import FeatureMapBatch, conv_output_size, pool_output_size
from repro.core.thresholds import ThresholdActivation

#: Byte budget for one band's float32 column block.  A band's columns are
#: written once and read once by the GEMM; a quarter of the 4 MiB L2 keeps
#: them, the band's accumulators and the weight panel resident together.
_BAND_COL_BYTES = 1 << 20

#: Floor on a band's GEMM width in output positions: below it BLAS spends
#: its time in panel set-up, so narrow maps (13x13, 26x26) stay one GEMM
#: even when their deep column block exceeds the byte budget.
_BAND_MIN_POSITIONS = 1024

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
    """One lane's flat band buffers; :meth:`BandKernel._segment` slices them."""

    cols: np.ndarray
    acc: np.ndarray
    hits: np.ndarray
    cmp: np.ndarray
    pooled: Optional[np.ndarray]


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


def _padded_codes(levels: np.ndarray, pad: int) -> Optional[np.ndarray]:
    """``levels`` as a zero-padded ``uint8`` batch, or ``None`` if they
    are not 1-byte codes.  The result is ``levels`` itself when nothing
    has to change; otherwise a workspace buffer the caller releases."""
    if not fits_uint8(levels):
        return None
    if pad == 0 and levels.dtype == np.uint8:
        return levels
    n, c, h, w = levels.shape
    padded = workspace.empty((n, c, h + 2 * pad, w + 2 * pad), np.uint8)
    if pad:
        padded.fill(0)
    np.copyto(
        padded[:, :, pad : pad + h, pad : pad + w], levels, casting="unsafe"
    )
    return padded


@dataclass(frozen=True)
class BandKernel:
    """One layer's conv -> pool -> threshold chain with folded constants.

    ``weights`` is the ``(C_out, C_in*K*K)`` float32 ``+-1`` matrix with
    row ``c`` multiplied by ``signs[c]``; ``thresholds`` the
    ``(C_out, 2**bits - 1)`` float32 table ``signs[c] * T[c, k]``.  Build
    with :meth:`fold`; run with :meth:`run`.
    """

    weights: np.ndarray
    thresholds: np.ndarray
    in_channels: int
    ksize: int
    stride: int
    pad: int

    @classmethod
    def fold(
        cls,
        weights_pm1: np.ndarray,
        activation: ThresholdActivation,
        in_channels: int,
        ksize: int,
        stride: int,
        pad: int,
    ) -> Optional["BandKernel"]:
        """Fold *activation*'s signs into ``+-1`` float32 *weights_pm1*.

        Returns ``None`` when float32 accumulation would not be exact
        (``C_in * K**2 * 255 >= 2**24``) or the hit count would not fit
        the kernel's ``uint8`` counter.  When every sign is ``+1`` the
        weight matrix is shared, not copied.
        """
        c_out, ckk = weights_pm1.shape
        if ckk != in_channels * ksize * ksize:
            raise ValueError(
                f"weight matrix has {ckk} columns; conv geometry needs "
                f"{in_channels * ksize * ksize}"
            )
        if (
            not accumulates_exactly(np.uint8, 1.0, ckk)
            or activation.thresholds.shape[1] > 255
        ):
            return None
        signs = activation.signs
        if np.all(signs > 0):
            weights = weights_pm1
        else:
            weights = weights_pm1 * signs[:, None].astype(np.float32)
        # |acc| < 2**24, so a threshold beyond +-2**24 (the +-2**62
        # constant-channel sentinels) compares the same once clamped
        # there — and everything inside the clamp is exact in float32.
        folded = np.clip(
            activation.thresholds * signs[:, None].astype(np.int64),
            -_F32_EXACT,
            _F32_EXACT,
        )
        return cls(
            np.ascontiguousarray(weights, dtype=np.float32),
            folded.astype(np.float32),
            in_channels,
            ksize,
            stride,
            pad,
        )

    def run(
        self, levels: np.ndarray, pool: Optional[Pool] = None
    ) -> Optional[np.ndarray]:
        """Levels ``(N, C_in, H, W)`` -> ``int32`` levels ``(N, C_out, ., .)``.

        Bit-identical per frame to threshold-after-conv followed by the
        pool.  Returns ``None`` (nothing computed) when *levels* are not
        integer codes in ``0..255``.  All scratch and the result come from
        :mod:`repro.core.workspace` on the calling thread, before the
        work is split across :func:`repro.core.lanes.count` lanes.
        """
        n, c, h, w = levels.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        out_h = final_h = conv_output_size(h, self.ksize, self.stride, self.pad)
        out_w = final_w = conv_output_size(w, self.ksize, self.stride, self.pad)
        if pool is not None:
            final_h = pool_output_size(out_h, *pool)
            final_w = pool_output_size(out_w, *pool)
        c_out, ckk = self.weights.shape
        out = workspace.empty((n, c_out, final_h, final_w), np.int32)
        if n == 0:
            return out
        padded = _padded_codes(levels, self.pad)
        if padded is None:
            workspace.release(out)
            return None

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
        items = _items(n, out_h, multiple, lanes.count())
        # Every lane's scratch comes from this thread's workspace, one
        # buffer per kind carved into per-lane rows: helpers never allocate.
        count = min(lanes.count(), len(items))
        lane_rows = max(min(band.rows, last - first) for _, first, last in items)
        width = lane_rows * out_w
        cols_buf = workspace.empty((count, ckk * width), np.float32)
        acc_buf = workspace.empty((count, c_out * width), np.float32)
        hits_buf = workspace.empty((count, c_out * width), np.uint8)
        cmp_buf = workspace.empty((count, c_out * width), np.uint8)
        pooled_buf = mid = None
        if in_band:
            pooled_buf = workspace.empty((count, c_out * width), np.float32)
        elif pool is not None:
            mid = workspace.empty((n, c_out, out_h, out_w), np.uint8)
        target = out if mid is None else mid
        scratch = [
            _Scratch(
                cols_buf[lane],
                acc_buf[lane],
                hits_buf[lane],
                cmp_buf[lane],
                None if pooled_buf is None else pooled_buf[lane],
            )
            for lane in range(count)
        ]

        def work(lane: int, item: int) -> None:
            i, first, last = items[item]
            self._segment(padded[i], target[i], first, last, band, scratch[lane])

        lanes.run(work, len(items), count)
        if mid is not None:
            _maxpool2d_into(
                mid.reshape(n * c_out, out_h, out_w),
                out.reshape(n * c_out, final_h, final_w),
                *pool,
            )

        for scratch in (mid, pooled_buf, cmp_buf, hits_buf, acc_buf, cols_buf):
            workspace.release(scratch)
        if padded is not levels:
            workspace.release(padded)
        return out

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
        c, k, stride = self.in_channels, self.ksize, self.stride
        out_w, pool = band.out_w, band.pool
        s0, s1, s2 = frame.strides
        for r0 in range(first_row, last_row, band.rows):
            r1 = min(r0 + band.rows, last_row)
            positions = (r1 - r0) * out_w
            cols = scratch.cols[: ckk * positions]
            np.copyto(
                cols.reshape(c, k, k, r1 - r0, out_w),
                np.lib.stride_tricks.as_strided(
                    frame[:, r0 * stride :, :],
                    shape=(c, k, k, r1 - r0, out_w),
                    strides=(s0, s1, s2, s1 * stride, s2 * stride),
                    writeable=False,
                ),
            )
            acc = scratch.acc[: c_out * positions].reshape(c_out, positions)
            np.matmul(self.weights, cols.reshape(ckk, positions), out=acc)
            t0, t1 = r0, r1
            if pool is not None:
                t0 = r0 // pool[1]
                t1 = band.final_h if r1 == band.out_h else r1 // pool[1]
                if t1 == t0:  # ragged rows below the last pool window
                    continue
                pooled = scratch.pooled[: c_out * (t1 - t0) * band.final_w]
                _maxpool2d_into(
                    acc.reshape(c_out, r1 - r0, out_w),
                    pooled.reshape(c_out, t1 - t0, band.final_w),
                    *pool,
                )
                acc = pooled.reshape(c_out, -1)
            hits = scratch.hits[: acc.size].reshape(acc.shape)
            self._count_hits(acc, hits, scratch.cmp[: acc.size].reshape(acc.shape))
            np.copyto(target[:, t0:t1, :], hits.reshape(c_out, t1 - t0, -1))

    def _count_hits(self, acc: np.ndarray, hits: np.ndarray, cmp: np.ndarray):
        """``hits[c, p] = #{k : acc[c, p] >= thresholds[c, k]}`` (uint8)."""
        thr = self.thresholds
        np.greater_equal(acc, thr[:, 0:1], out=hits.view(np.bool_))
        flags = cmp.view(np.bool_)
        for index in range(1, thr.shape[1]):
            np.greater_equal(acc, thr[:, index : index + 1], out=flags)
            np.add(hits, cmp, out=hits)


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
