"""Reference (generic) layer operations.

These are the numpy counterparts of Darknet's straightforward C kernels —
"clearly a valuable reference implementation" (§III-D) against which the
quantized, bit-packed and SIMD-emulated paths are verified in the tests.
All functions operate on channel-major ``(C, H, W)`` arrays.

The forward kernels are *dtype-preserving*: max pooling is a selection
operation, so it pools integer level codes as integers (no ``-inf``-filled
float64 padded copy), and convolution can dequantize level codes through a
caller-supplied lookup table straight into the GEMM compute dtype.  Both
draw their large scratch/output buffers from :mod:`repro.core.workspace`,
so an installed arena (see :class:`repro.engine.arena.Arena`) recycles them
across steps.  The backprop helpers (`maxpool2d_argmax`/`_backward`,
`col2im`) keep their float64 reference form — they are off the hot path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import workspace
from repro.core.im2col import im2col, im2col_batch
from repro.core.tensor import conv_output_size, pool_output_size

#: Column-buffer budget (in *bytes*, at the GEMM compute dtype) for batched
#: convolution: frames are lowered and multiplied in chunks so a big batch
#: never materializes the full ``N * K**2``-inflated multiplicand at once.
_CONV_BATCH_COL_BUDGET = 1 << 26

#: Byte budget for one maxpool chunk's *input slice* (the kernel pools the
#: input dtype in place — there is no padded float64 copy any more);
#: bounding it keeps batched pooling as cache-friendly as the single-frame
#: pass.
_POOL_BATCH_BUDGET = 1 << 25

#: float32 represents every integer up to here exactly.
_F32_EXACT = 1 << 24

#: GEMM-width floor of the exact-integer batch route, in output positions
#: per frame: a narrower map lays the columns of all frames side by side
#: and multiplies once.  Measured at batch 8 on one BLAS thread (whole
#: ``conv2d_batch``, per-frame -> batch-wide, ms; docs/ENGINE.md, "W1A1:
#: one byte per activation"): 1x1 of 2304 taps 0.48 -> 0.25, 3x3 of 1152
#: 1.39 -> 0.57, 8x8 3.15 -> 2.61, 10x10 (CNV-6 conv 4) 2.65 -> 2.46,
#: 12x12 (conv 3) 1.75 -> 1.86.  From ~128 columns a frame fills the BLAS
#: panels on its own and the transposing copy-out of the wide product is
#: pure cost.
_EXACT_GEMM_MIN_POSITIONS = 128


def _dequantized_cols(cols_raw: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Gather ``lut[cols_raw]`` into a fresh workspace buffer.

    ``lut`` must already be in the GEMM compute dtype and cover every code in
    ``cols_raw`` (callers validate the code range; ``mode="clip"`` makes the
    gather branch-free).  ``cols_raw`` is released back to the workspace.
    """
    cols = workspace.empty(cols_raw.shape, lut.dtype)
    np.take(lut, cols_raw, out=cols, mode="clip")
    workspace.release(cols_raw)
    return cols


def _lut_lowered_cols(x: np.ndarray, lut: np.ndarray, ksize, stride, pad):
    """im2col of ``lut[x]`` — dequantize the *map*, then lower.

    A K×K lowering replicates every map element up to K² times, so gathering
    after im2col touches K² more elements than the map holds.  When
    ``lut[0] == 0`` (the level-code contract: padding and code 0 are the same
    value) the gather can run map-first and the zero-filled im2col padding is
    bit-identical to gathering ``lut[0]`` per padded column entry.  Non-zero
    ``lut[0]`` falls back to the cols-side gather.
    """
    if lut[0] != 0:
        lower = im2col_batch if x.ndim == 4 else im2col
        return _dequantized_cols(lower(x, ksize, stride, pad), lut)
    values = workspace.empty(x.shape, lut.dtype)
    np.take(lut, x, out=values, mode="clip")
    lower = im2col_batch if x.ndim == 4 else im2col
    cols = lower(values, ksize, stride, pad)
    workspace.release(values)
    return cols


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray = None,
    stride: int = 1,
    pad: int = 0,
    lut: np.ndarray = None,
) -> np.ndarray:
    """Convolution via explicit im2col + GEMM (Darknet's generic path).

    ``weights`` is ``(C_out, C_in, K, K)``; returns ``(C_out, OH, OW)``.

    With ``lut`` given, ``x`` holds small non-negative integer codes and the
    GEMM consumes ``lut[x]``: the lowering gathers narrow codes (cheap) and
    dequantizes directly into the multiplicand buffer.  ``lut[0]`` must be
    the pad value (``0.0`` for level codes, since level 0 dequantizes to
    exactly ``+0.0``), so padding is bit-identical to the dense float path.
    """
    c_out, c_in, ksize, ksize2 = weights.shape
    if ksize != ksize2:
        raise ValueError("only square kernels are supported")
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, weights expect {c_in}")
    out_h = conv_output_size(x.shape[1], ksize, stride, pad)
    out_w = conv_output_size(x.shape[2], ksize, stride, pad)
    flat_weights = weights.reshape(c_out, c_in * ksize * ksize)
    dt = (
        np.result_type(flat_weights, lut)
        if lut is not None
        else np.result_type(flat_weights, x)
    )
    gemm_weights = flat_weights.astype(dt, copy=False)
    if lut is not None:
        cols = _lut_lowered_cols(x, lut.astype(dt, copy=False), ksize, stride, pad)
    else:
        cols = im2col(x, ksize, stride, pad, dtype=dt)
    out = workspace.empty((c_out, out_h * out_w), dt)
    np.matmul(gemm_weights, cols, out=out)
    workspace.release(cols)
    if bias is not None:
        b = np.asarray(bias).reshape(c_out, 1)
        if np.result_type(out.dtype, b.dtype) == out.dtype:
            out += b
        else:
            out = out + b
    return out.reshape(c_out, out_h, out_w)


def conv2d_batch(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray = None,
    stride: int = 1,
    pad: int = 0,
    lut: np.ndarray = None,
    exact: bool = False,
) -> np.ndarray:
    """Batched :func:`conv2d`: ``(N, C, H, W)`` in, ``(N, C_out, OH, OW)`` out.

    Frames are lowered with :func:`im2col_batch` and multiplied through a
    broadcast ``matmul`` — one BLAS GEMM per frame with the exact operand
    shapes of the single-frame path, so frame ``i`` of the result is
    bit-identical to ``conv2d(x[i], ...)`` (stacking columns *across* frames
    into one wider GEMM would not carry that guarantee for float32).

    ``lut`` has the same meaning as in :func:`conv2d`: lower narrow integer
    codes, dequantize into the GEMM dtype with a single gather.

    ``exact`` is the caller's proof (:func:`accumulates_exactly`) that no
    summation order can round an accumulator.  For integer ``x`` — never
    for a float one — a map narrower than the GEMM-width floor then has
    the columns of all its frames laid side by side and multiplied once.
    """
    if x.ndim != 4:
        raise ValueError(f"batched conv expects (N, C, H, W), got {x.shape}")
    c_out, c_in, ksize, ksize2 = weights.shape
    if ksize != ksize2:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, weights expect {c_in}")
    n = x.shape[0]
    out_h = conv_output_size(x.shape[2], ksize, stride, pad)
    out_w = conv_output_size(x.shape[3], ksize, stride, pad)
    flat_weights = weights.reshape(c_out, c_in * ksize * ksize)
    positions = out_h * out_w
    # Operands must share the promoted dtype *before* matmul: a mixed-dtype
    # matmul (float32 weights against int32 level codes is the common hidden-
    # layer case) falls off the BLAS path into a buffered elementwise loop.
    dt = (
        np.result_type(flat_weights, lut)
        if lut is not None
        else np.result_type(flat_weights, x)
    )
    gemm_weights = flat_weights.astype(dt, copy=False)
    gemm_lut = lut.astype(dt, copy=False) if lut is not None else None
    cols_bytes = c_in * ksize * ksize * positions * np.dtype(dt).itemsize
    chunk = max(1, _CONV_BATCH_COL_BUDGET // max(1, cols_bytes))
    wide = (
        exact
        and n > 1
        and lut is None
        and x.dtype.kind in "iu"
        and positions < _EXACT_GEMM_MIN_POSITIONS
    )
    out = workspace.empty((n, c_out, positions), dt)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        if gemm_lut is not None:
            cols = _lut_lowered_cols(
                x[start:stop], gemm_lut, ksize, stride, pad
            )
        else:
            cols = im2col_batch(
                x[start:stop], ksize, stride, pad, dtype=dt, side_by_side=wide
            )
        if wide:
            acc = workspace.empty((c_out, cols.shape[1]), dt)
            np.matmul(gemm_weights, cols, out=acc)
            np.copyto(
                out[start:stop],
                acc.reshape(c_out, stop - start, positions).transpose(1, 0, 2),
            )
            workspace.release(acc)
        else:
            np.matmul(gemm_weights, cols, out=out[start:stop])
        workspace.release(cols)
    if bias is not None:
        b = np.asarray(bias).reshape(1, c_out, 1)
        if np.result_type(out.dtype, b.dtype) == out.dtype:
            out += b  # in place: no second full-size output materialized
        else:
            out = out + b
    return out.reshape(n, c_out, out_h, out_w)


def _pool_taps(h, w, out_h, out_w, ksize, stride, pad_before):
    """Per-tap valid output ranges for Darknet pooling geometry.

    For kernel tap ``(ky, kx)``, output position ``oy`` reads input row
    ``oy*stride + ky - pad_before``; the returned inclusive ranges restrict
    each tap to the outputs whose read lands inside the real input.  Reads
    that would fall into the (bottom/right-biased) padding simply contribute
    nothing — exactly what a ``-inf`` fill contributed in the old kernel.
    """
    taps = []
    for ky in range(ksize):
        oy_min = max(0, -((ky - pad_before) // stride))
        oy_max = min(out_h - 1, (h - 1 + pad_before - ky) // stride)
        if oy_min > oy_max:
            continue
        for kx in range(ksize):
            ox_min = max(0, -((kx - pad_before) // stride))
            ox_max = min(out_w - 1, (w - 1 + pad_before - kx) // stride)
            if ox_min > ox_max:
                continue
            taps.append((ky, kx, oy_min, oy_max, ox_min, ox_max))
    return taps


def _tap_view(x, ky, kx, oy_min, oy_max, ox_min, ox_max, stride, pad_before):
    """The strided input view a tap contributes over its valid output range."""
    iy0 = oy_min * stride + ky - pad_before
    ix0 = ox_min * stride + kx - pad_before
    return x[
        :,
        iy0 : iy0 + (oy_max - oy_min) * stride + 1 : stride,
        ix0 : ix0 + (ox_max - ox_min) * stride + 1 : stride,
    ]


def _dtype_min(dtype: np.dtype):
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min


def separable_pool(ksize: int, stride: int, padding: int) -> bool:
    """True for the 2x2 / stride-2 pool with no leading padding: when its
    windows also stay inside the map it runs as two pair maxima."""
    return ksize == stride == 2 and padding // 2 == 0


def _maxpool2d_into(
    x: np.ndarray,
    out: np.ndarray,
    ksize: int,
    stride: int,
    padding: int,
    scratch: np.ndarray = None,
) -> None:
    """Pool ``(M, H, W)`` into preallocated ``(M, OH, OW)``, input dtype.

    Iterated ``np.maximum`` over shifted strided slices — one pass per
    kernel tap, no padded copy, no dtype promotion.  Max is a selection
    operation, so the result is bit-identical to the old float64-padded
    kernel cast back to the input dtype.

    A :func:`separable_pool` whose windows all lie inside the map takes
    the max of row pairs over whole contiguous rows, then of column pairs
    — the same selection in two passes instead of four strided ones.
    Its row maxima go to *scratch* (flat, *x*'s dtype, at least
    ``M * OH * W`` elements) when given, else to a workspace buffer.
    """
    m, h, w = x.shape
    out_h, out_w = out.shape[1:]
    if separable_pool(ksize, stride, padding) and (
        2 * out_h <= h and 2 * out_w <= w
    ):
        if scratch is None:
            rows = workspace.empty((m, out_h, w), x.dtype)
        else:
            rows = scratch[: m * out_h * w].reshape(m, out_h, w)
        np.maximum(x[:, 0 : 2 * out_h : 2], x[:, 1 : 2 * out_h : 2], out=rows)
        np.maximum(
            rows[:, :, 0 : 2 * out_w : 2], rows[:, :, 1 : 2 * out_w : 2], out=out
        )
        if scratch is None:
            workspace.release(rows)
        return
    pad_before = padding // 2
    taps = _pool_taps(h, w, out_h, out_w, ksize, stride, pad_before)
    seed = None
    for tap in taps:
        _, _, oy_min, oy_max, ox_min, ox_max = tap
        if (oy_min, ox_min) == (0, 0) and (oy_max, ox_max) == (
            out_h - 1,
            out_w - 1,
        ):
            seed = tap
            break
    if seed is not None:
        # A full-coverage tap (always present for Darknet's bottom/right
        # padding <= ksize-1) seeds every output — no fill pass needed.
        np.copyto(out, _tap_view(x, *seed[:2], *seed[2:], stride, pad_before))
    else:
        out.fill(_dtype_min(out.dtype))
    for tap in taps:
        if tap is seed:
            continue
        ky, kx, oy_min, oy_max, ox_min, ox_max = tap
        target = out[:, oy_min : oy_max + 1, ox_min : ox_max + 1]
        np.maximum(
            target,
            _tap_view(x, ky, kx, oy_min, oy_max, ox_min, ox_max, stride, pad_before),
            out=target,
        )


def maxpool2d(
    x: np.ndarray, ksize: int, stride: int, padding: int = None
) -> np.ndarray:
    """Darknet-style max pooling, computed in the input dtype.

    ``padding`` is the total padding (default ``ksize - 1``), applied at the
    bottom/right — this reproduces Darknet's behaviour of
    ``out = ceil(size/stride)`` including the stride-1 pool before the 13x13
    layers of Tiny YOLO.  Padding positions never win the max (the old
    kernel filled them with ``-inf``; this one simply never reads them), and
    integer level codes pool as integers — no float64 round trip.
    """
    if padding is None:
        padding = ksize - 1
    c, h, w = x.shape
    out_h = pool_output_size(h, ksize, stride, padding)
    out_w = pool_output_size(w, ksize, stride, padding)
    out = workspace.empty((c, out_h, out_w), x.dtype)
    _maxpool2d_into(x, out, ksize, stride, padding)
    return out


def maxpool2d_batch(
    x: np.ndarray, ksize: int, stride: int, padding: int = None
) -> np.ndarray:
    """Batched :func:`maxpool2d` over ``(N, C, H, W)``.

    Pooling is per-channel and per-frame independent, so the batch is
    flattened into the channel axis and pooled chunk-by-chunk straight into
    one preallocated output (no parts list, no concatenate); frame ``i``
    equals ``maxpool2d(x[i], ...)`` bit for bit.
    """
    if x.ndim != 4:
        raise ValueError(f"batched maxpool expects (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    pad_total = (ksize - 1) if padding is None else padding
    out_h = pool_output_size(h, ksize, stride, pad_total)
    out_w = pool_output_size(w, ksize, stride, pad_total)
    frame_bytes = c * h * w * x.itemsize
    chunk = max(1, _POOL_BATCH_BUDGET // max(1, frame_bytes))
    out = workspace.empty((n, c, out_h, out_w), x.dtype)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        _maxpool2d_into(
            np.ascontiguousarray(x[start:stop]).reshape((stop - start) * c, h, w),
            out[start:stop].reshape((stop - start) * c, out_h, out_w),
            ksize,
            stride,
            pad_total,
        )
    return out


def maxpool2d_argmax(
    x: np.ndarray, ksize: int, stride: int, padding: int = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling returning both values and flat argmax indices (for backprop).

    Indices address the *padded* input as ``(c, y, x)`` raveled; use
    :func:`maxpool2d_backward` to scatter gradients.
    """
    if padding is None:
        padding = ksize - 1
    c, h, w = x.shape
    out_h = pool_output_size(h, ksize, stride, padding)
    out_w = pool_output_size(w, ksize, stride, padding)
    pad_before = padding // 2
    padded = np.full((c, h + padding, w + padding), -np.inf, dtype=np.float64)
    padded[:, pad_before : pad_before + h, pad_before : pad_before + w] = x
    s0, s1, s2 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, out_h, out_w, ksize, ksize),
        strides=(s0, s1 * stride, s2 * stride, s1, s2),
        writeable=False,
    )
    flat = windows.reshape(c, out_h, out_w, ksize * ksize)
    arg = flat.argmax(axis=3)
    values = np.take_along_axis(flat, arg[..., None], axis=3)[..., 0]
    return values.astype(x.dtype), arg


def maxpool2d_backward(
    grad_out: np.ndarray,
    arg: np.ndarray,
    x_shape: Tuple[int, int, int],
    ksize: int,
    stride: int,
    padding: int = None,
) -> np.ndarray:
    """Scatter *grad_out* back through the argmax of :func:`maxpool2d_argmax`."""
    if padding is None:
        padding = ksize - 1
    c, h, w = x_shape
    out_h, out_w = grad_out.shape[1:]
    pad_before = padding // 2
    grad_padded = np.zeros((c, h + padding, w + padding), dtype=np.float64)
    ky = arg // ksize
    kx = arg % ksize
    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    for ch in range(c):
        ys = oy * stride + ky[ch]
        xs = ox * stride + kx[ch]
        np.add.at(grad_padded[ch], (ys.ravel(), xs.ravel()), grad_out[ch].ravel())
    return grad_padded[:, pad_before : pad_before + h, pad_before : pad_before + w]


def accumulator_bound(dtype, fan_in: int) -> int:
    """``fan_in * max|code|``: the largest ``|acc|`` of a *fan_in*-term
    dot product of ``+-1`` weights against integer *dtype* codes.

    The one statement of a binary layer's accumulator range:
    :func:`accumulates_exactly` compares it with ``2**24``, and the
    threshold derivations (:mod:`repro.core.thresholds`) bisect
    ``[-B, B]``.
    """
    info = np.iinfo(dtype)
    return fan_in * max(-int(info.min), int(info.max))


def accumulates_exactly(dtype, scale: float, fan_in: int) -> bool:
    """True when ``+-1`` weights against such a map sum exactly in float32.

    The map must hold unit-scale integer codes whose *dtype* bounds every
    partial sum of a *fan_in*-term dot product below ``2**24``
    (:func:`accumulator_bound`) — then each accumulator is an exact
    integer in float32 and no summation order can round.  The proof reads
    only the dtype (``int8`` sign codes, ``uint8`` levels), never the
    data, and a float map never passes it.
    """
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu" or scale != 1.0:
        return False
    return accumulator_bound(dtype, fan_in) < _F32_EXACT


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit (modification (a) replaces leaky with this)."""
    return np.maximum(x, 0)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    """Darknet's leaky activation (fixed 0.1 slope)."""
    return np.where(x > 0, x, slope * x)


def sign_codes(x: np.ndarray) -> np.ndarray:
    """BinaryNet's sign activation as ``int8`` ``+-1`` codes (scale 1).

    ``x >= 0`` gives ``+1`` and everything else ``-1`` — so ``-0.0`` is
    ``+1`` and NaN is ``-1`` — decided by one compare written straight into
    the 1-byte result (from :mod:`repro.core.workspace`): a W1A1 activation
    is stored as the small integer it is, and its dtype is what lets the
    next binary layer prove its accumulators exact.
    """
    codes = workspace.empty(x.shape, np.int8)
    np.greater_equal(x, 0, out=codes.view(np.bool_))  # 1 / 0
    codes += codes
    codes -= 1
    return codes


#: The cfg ``activation=`` names of the conv and connected layers.  ``sign``
#: is BinaryNet's binary activation (the W1A1 regime of MLP-4 / CNV-6).
ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": relu,
    "leaky": leaky_relu,
    "sign": sign_codes,
}


def as_map_dtype(z: np.ndarray) -> np.ndarray:
    """*z* in the dtype a feature map stores it in: float results travel
    as float32, integer codes (:func:`sign_codes`) as they are."""
    if z.dtype.kind == "f" and z.dtype != np.float32:
        return z.astype(np.float32)
    return z


def batchnorm_inference(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-6,
    channel_axis: int = 0,
    out: np.ndarray = None,
) -> np.ndarray:
    """Per-channel batch normalization with frozen statistics.

    ``channel_axis`` selects which axis of ``x`` carries the channels
    (0 for single ``(C, H, W)`` maps, 1 for ``(N, C, H, W)`` batches); the
    arithmetic is elementwise, so batched application is bit-identical to
    per-frame application.

    With ``out`` given (it may alias ``x``), the epilogue runs in place in
    ``out.dtype``; callers must ensure ``out.dtype`` equals the dtype the
    out-of-place expression would produce (all-float32 in the conv layers),
    which keeps the in-place form bit-identical — same elementwise ops, same
    order, same dtype.
    """
    shape = [1] * x.ndim
    shape[channel_axis] = -1
    shape = tuple(shape)
    inv = gamma.reshape(shape) / np.sqrt(var.reshape(shape) + eps)
    if out is None:
        return inv * (x - mean.reshape(shape)) + beta.reshape(shape)
    if out is not x:
        np.copyto(out, x)
    out -= mean.reshape(shape)
    out *= inv
    out += beta.reshape(shape)
    return out


def fully_connected(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray = None
) -> np.ndarray:
    """Dense layer: ``weights`` is ``(out, in)``, ``x`` flattens to ``(in,)``."""
    flat = np.asarray(x).reshape(-1)
    if flat.shape[0] != weights.shape[1]:
        raise ValueError(
            f"input size {flat.shape[0]} does not match weights {weights.shape}"
        )
    out = weights @ flat
    if bias is not None:
        out = out + bias
    return out


def fully_connected_batch(
    x: np.ndarray, weights: np.ndarray, exact: bool = False
) -> np.ndarray:
    """Dense layer over stacked frames: ``(N, in)`` -> ``(N, out)``.

    BLAS gemv (one frame) and gemm (stacked frames) round float32
    accumulations differently, so the product stays one
    :func:`fully_connected` per frame — unless the caller proves the
    accumulators *exact* (:func:`accumulates_exactly`): integer sums have
    no rounding to differ in, and the whole batch is one GEMM (weights
    on the left: BLAS runs ``W @ x.T`` about twice as fast as ``x @ W.T``
    for a handful of frames).
    """
    if exact:
        return np.ascontiguousarray((weights @ x.T).T)
    return np.stack([fully_connected(row, weights) for row in x], axis=0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along *axis*."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function (the region layer's squashing nonlinearity)."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


__all__ = [
    "conv2d",
    "conv2d_batch",
    "maxpool2d",
    "maxpool2d_batch",
    "maxpool2d_argmax",
    "maxpool2d_backward",
    "separable_pool",
    "accumulates_exactly",
    "accumulator_bound",
    "relu",
    "leaky_relu",
    "sign_codes",
    "ACTIVATIONS",
    "as_map_dtype",
    "batchnorm_inference",
    "fully_connected",
    "fully_connected_batch",
    "softmax",
    "sigmoid",
]
