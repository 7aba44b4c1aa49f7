"""``im2col`` and friends — the convolution lowering used by Darknet.

The paper (§I, Fig. 1) describes the classical reduction of convolution to a
matrix multiplication: rows of the multiplier are linearized kernels, columns
of the multiplicand are linearized kernel application footprints.  For small
kernels at stride one the transformation inflates the feature map by roughly
``K**2`` — a fact exercised by the Fig. 1 benchmark — and for a kernel the
size of its input it degenerates into a fully connected layer.

Besides the plain transformation this module provides the *sliced* variant of
§III-D: the multiplicand is produced in vertical slices whose width matches
the SIMD lane count, so a fused GEMM can reuse the same small buffer slice
after slice — the data-locality optimization behind the 2.1x NEON speedup.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core import workspace
from repro.core.tensor import conv_output_size


def _padded_map(x: np.ndarray, pad: int, fill: float, dtype) -> np.ndarray:
    """*x* with *pad* cells of *fill* around its last two axes, as *dtype*.

    One copy of the map does both; ``x`` itself comes back when neither is
    asked for, otherwise a workspace buffer the caller releases.
    """
    dtype = x.dtype if dtype is None else np.dtype(dtype)
    if pad == 0 and dtype == x.dtype:
        return x
    h, w = x.shape[-2:]
    padded = workspace.empty(x.shape[:-2] + (h + 2 * pad, w + 2 * pad), dtype)
    if pad > 0:
        padded.fill(fill)
    padded[..., pad : pad + h, pad : pad + w] = x
    return padded


def im2col(
    x: np.ndarray,
    ksize: int,
    stride: int,
    pad: int,
    fill: float = 0.0,
    dtype=None,
) -> np.ndarray:
    """Lower ``x`` of shape ``(C, H, W)`` to a ``(C*K*K, OH*OW)`` matrix.

    Row order is channel-major, then kernel row, then kernel column — the
    order Darknet's ``im2col_cpu`` produces, so weight matrices linearized
    the Darknet way multiply directly.

    The lowering preserves ``x.dtype`` end to end — integer level codes come
    out as integer columns (padding included), never promoted to float — and
    gathers with a single strided copy into a workspace-managed buffer.
    With *dtype* given the columns come out in that dtype instead (level
    codes widened to the GEMM dtype); the cast rides on the padding copy
    of the map, before the ``K**2``-inflating gather.
    """
    c, h, w = x.shape
    out_h = conv_output_size(h, ksize, stride, pad)
    out_w = conv_output_size(w, ksize, stride, pad)
    padded = _padded_map(x, pad, fill, dtype)
    # Gather with stride tricks: windows (C, K, K, OH, OW) -> (C*K*K, OH*OW).
    s0, s1, s2 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, ksize, ksize, out_h, out_w),
        strides=(s0, s1, s2, s1 * stride, s2 * stride),
        writeable=False,
    )
    cols = workspace.empty((c * ksize * ksize, out_h * out_w), padded.dtype)
    np.copyto(cols.reshape(c, ksize, ksize, out_h, out_w), windows)
    if padded is not x:
        workspace.release(padded)
    return cols


def im2col_batch(
    x: np.ndarray,
    ksize: int,
    stride: int,
    pad: int,
    fill: float = 0.0,
    dtype=None,
    side_by_side: bool = False,
) -> np.ndarray:
    """Batched :func:`im2col`: ``(N, C, H, W)`` to ``(N, C*K*K, OH*OW)``.

    Frame ``i`` of the result equals ``im2col(x[i], ...)`` exactly (same
    gather, same dtype); the batch is lowered in one strided pass so batched
    GEMM consumers get their multiplicand without a per-frame Python loop.
    *dtype* has the same meaning as in :func:`im2col`.  With
    *side_by_side* the result is one ``(C*K*K, N*OH*OW)`` multiplicand,
    frame ``i`` in columns ``i*OH*OW : (i+1)*OH*OW``.
    """
    if x.ndim != 4:
        raise ValueError(f"batched im2col expects (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, ksize, stride, pad)
    out_w = conv_output_size(w, ksize, stride, pad)
    padded = _padded_map(x, pad, fill, dtype)
    s0, s1, s2, s3 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, ksize, ksize, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    ckk, positions = c * ksize * ksize, out_h * out_w
    if side_by_side:
        cols = workspace.empty((ckk, n * positions), padded.dtype)
        np.copyto(
            cols.reshape(c, ksize, ksize, n, out_h, out_w),
            windows.transpose(1, 2, 3, 0, 4, 5),
        )
    else:
        cols = workspace.empty((n, ckk, positions), padded.dtype)
        np.copyto(cols.reshape(n, c, ksize, ksize, out_h, out_w), windows)
    if padded is not x:
        workspace.release(padded)
    return cols


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int], ksize: int, stride: int, pad: int
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by backprop)."""
    c, h, w = x_shape
    out_h = conv_output_size(h, ksize, stride, pad)
    out_w = conv_output_size(w, ksize, stride, pad)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    cols = cols.reshape(c, ksize, ksize, out_h, out_w)
    for ky in range(ksize):
        for kx in range(ksize):
            patch = cols[:, ky, kx, :, :]
            padded[
                :,
                ky : ky + stride * out_h : stride,
                kx : kx + stride * out_w : stride,
            ] += patch
    if pad > 0:
        return padded[:, pad : pad + h, pad : pad + w]
    return padded


def im2col_inflation(
    h: int, w: int, channels: int, ksize: int, stride: int, pad: int
) -> float:
    """Data-volume inflation factor of :func:`im2col` (Fig. 1 discussion).

    Approaches ``K**2`` for small kernels at stride one and ``1.0`` for the
    degenerate fully-connected case where the kernel covers the whole map.
    """
    out_h = conv_output_size(h, ksize, stride, pad)
    out_w = conv_output_size(w, ksize, stride, pad)
    inflated = channels * ksize * ksize * out_h * out_w
    return inflated / float(channels * h * w)


def sliced_im2col(
    x: np.ndarray,
    ksize: int,
    stride: int,
    pad: int,
    slice_width: int,
    fill: float = 0.0,
) -> Iterator[Tuple[np.ndarray, int, int]]:
    """Yield the im2col multiplicand in vertical slices of *slice_width*.

    Yields ``(slice, start, stop)`` where ``slice`` has shape
    ``(C*K*K, stop - start)`` and covers output positions ``start:stop``.
    Concatenating all slices reproduces :func:`im2col` exactly (a property
    test asserts this); the point is that a fused GEMM consumer only ever
    needs one slice-sized buffer alive (§III-D).
    """
    if slice_width <= 0:
        raise ValueError("slice_width must be positive")
    full = im2col(x, ksize, stride, pad, fill=fill)
    total = full.shape[1]
    for start in range(0, total, slice_width):
        stop = min(start + slice_width, total)
        yield full[:, start:stop], start, stop


__all__ = ["im2col", "im2col_batch", "col2im", "im2col_inflation", "sliced_im2col"]
