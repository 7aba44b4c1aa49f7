"""GEMM kernels: float reference and gemmlowp-style low-precision paths.

§III-D of the paper replaces the input layer's float GEMM with a quantized
multiplication through Google's gemmlowp [19].  gemmlowp computes

    acc[i,j] = sum_k (A[i,k] + a_off) * (B[k,j] + b_off)      (int32)

and *requantizes* the int32 accumulator back to 8 bits with a fixed-point
multiplier and a rounding right shift.  The paper additionally explores a
16-bit accumulator, which requires a rounding right shift by 4 *before*
accumulation to avoid overflow across the 27 products of the first layer —
at a small accuracy cost.  Both datapaths are reproduced here bit-exactly
(saturation included) so that the accuracy claims can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def gemm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference single-precision GEMM (the generic Darknet path)."""
    return (np.asarray(a, np.float32) @ np.asarray(b, np.float32)).astype(np.float32)


def rounding_rshift(x: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-up — NEON's ``vrshr`` semantics.

    ``vrshr`` adds ``1 << (shift-1)`` before shifting, i.e. rounds half away
    from zero for positive and half toward zero for negative values; that is
    exactly ``(x + (1 << (shift-1))) >> shift`` in two's complement.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    x = np.asarray(x).astype(np.int64)
    if shift == 0:
        # Still widen to int64: returning the input dtype here made
        # ``acc * multiplier`` silently overflow in narrow dtypes downstream.
        return x
    return (x + (1 << (shift - 1))) >> shift


def saturate(x: np.ndarray, bits: int, signed: bool = True) -> np.ndarray:
    """Clamp to the representable range of a *bits*-wide integer."""
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return np.clip(np.asarray(x), lo, hi)


@dataclass
class RequantizeParams:
    """Fixed-point output pipeline of a gemmlowp GEMM.

    ``real_scale ~= multiplier / 2**shift`` with ``multiplier`` a positive
    int32; the requantized output is
    ``clip(rounding_rshift(acc * multiplier, shift) + zero_point)``.
    """

    multiplier: int
    shift: int
    zero_point: int = 0
    out_bits: int = 8
    out_signed: bool = False

    @classmethod
    def from_real_scale(
        cls,
        real_scale: float,
        zero_point: int = 0,
        out_bits: int = 8,
        out_signed: bool = False,
    ) -> "RequantizeParams":
        """Decompose a real multiplier into ``multiplier * 2**-shift``.

        The mantissa is normalized into ``[2**30, 2**31)`` like gemmlowp's
        ``QuantizeMultiplier`` so that 31 bits of precision are kept.
        """
        if real_scale <= 0:
            raise ValueError("real_scale must be positive")
        shift = 0
        scaled = real_scale
        while scaled < (1 << 30):
            scaled *= 2.0
            shift += 1
        while scaled >= (1 << 31):
            scaled /= 2.0
            shift -= 1
        multiplier = int(round(scaled))
        if multiplier == (1 << 31):
            # The normalized mantissa rounded up out of [2**30, 2**31) —
            # e.g. real_scale = (2**31 - 0.2) / 2**32.  Mirror gemmlowp's
            # QuantizeMultiplier fixup: halve the mantissa, decrement the
            # shift, keeping multiplier a positive int32.
            multiplier = 1 << 30
            shift -= 1
        if shift < 0:
            raise ValueError(f"real_scale {real_scale} too large to requantize")
        return cls(
            multiplier=multiplier,
            shift=shift,
            zero_point=zero_point,
            out_bits=out_bits,
            out_signed=out_signed,
        )

    def apply(self, acc: np.ndarray) -> np.ndarray:
        scaled = np.asarray(acc, dtype=np.int64) * self.multiplier
        shifted = rounding_rshift(scaled, self.shift) + self.zero_point
        return saturate(shifted, self.out_bits, self.out_signed)


def gemm_i8_acc32(
    a: np.ndarray,
    b: np.ndarray,
    a_offset: int = 0,
    b_offset: int = 0,
) -> np.ndarray:
    """gemmlowp-style uint8 GEMM with a full 32-bit accumulator.

    ``a`` is ``(M, K)`` and ``b`` is ``(K, N)``; offsets are *added* to the
    stored codes before multiplying (gemmlowp convention: the offset is the
    negated zero point).  Returns the raw int32 accumulator.
    """
    a32 = np.asarray(a, dtype=np.int64) + int(a_offset)
    b32 = np.asarray(b, dtype=np.int64) + int(b_offset)
    acc = a32 @ b32
    if np.any(acc > np.iinfo(np.int32).max) or np.any(acc < np.iinfo(np.int32).min):
        raise OverflowError("int32 accumulator overflow")
    return acc.astype(np.int32)


def gemm_i8_acc16_reference(
    a: np.ndarray,
    b: np.ndarray,
    a_offset: int = 0,
    b_offset: int = 0,
    pre_shift: int = 4,
) -> Tuple[np.ndarray, int]:
    """The per-K-step loop formulation of the acc16 GEMM (oracle kernel).

    This is the original, literal transcription of the hardware inner loop:
    one rounding-shifted product is folded into the saturating int16
    accumulator per K step.  It is kept as the semantic oracle for the
    vectorized :func:`gemm_i8_acc16` (property tests pin bit-exact
    equivalence).
    """
    a16 = np.asarray(a, dtype=np.int32) + int(a_offset)
    b16 = np.asarray(b, dtype=np.int32) + int(b_offset)
    m, k = a16.shape
    k2, n = b16.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    lo, hi = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    acc = np.zeros((m, n), dtype=np.int32)
    overflow = 0
    for idx in range(k):
        products = np.outer(a16[:, idx], b16[idx, :])
        shifted = rounding_rshift(products, pre_shift).astype(np.int32)
        acc = acc + shifted
        clipped = np.clip(acc, lo, hi)
        overflow += int(np.count_nonzero(clipped != acc))
        acc = clipped
    return acc.astype(np.int16), overflow


def acc16_worst_case_bound(
    b_codes: np.ndarray, a_max: int = 255, pre_shift: int = 4
) -> int:
    """Worst-case |accumulator| of :func:`gemm_i8_acc16` over any uint8 input.

    For weight codes ``b_codes`` (``(K,)`` one output column or ``(K, N)``
    the whole operand) and activations bounded by ``a_max``, every shifted
    product satisfies ``|rounding_rshift(a*b, s)| <= (|b|*a_max + r) >> s``
    with ``r = 1 << (s-1)``, so the per-output accumulator magnitude is
    bounded by the column sum of those per-tap bounds.  The static overflow
    prover compares the worst column against the int16 ceiling: a bound
    within the ceiling *proves* the saturating accumulator never clips.
    """
    if pre_shift < 0:
        raise ValueError("pre_shift must be non-negative")
    codes = np.atleast_2d(np.asarray(b_codes, dtype=np.int64))
    if codes.shape[0] == 1 and np.asarray(b_codes).ndim == 1:
        codes = codes.T  # one column: (K,) -> (K, 1)
    rounding = (1 << (pre_shift - 1)) if pre_shift > 0 else 0
    taps = (np.abs(codes) * int(a_max) + rounding) >> pre_shift
    return int(taps.sum(axis=0).max())


def acc32_worst_case_bound(k: int, a_max: int, b_max: int) -> int:
    """Worst-case |accumulator| of :func:`gemm_i8_acc32`: ``K * a_max * b_max``.

    The acc32 path has no saturation — it *raises* on an int32 breach — so
    the prover flags a bound past ``2**31 - 1`` as an error, not a warning.
    """
    return int(k) * abs(int(a_max)) * abs(int(b_max))


#: Column-block width of the low-bits correction pass; sized so the
#: transient ``(M, K, block)`` byte tensor stays cache-resident.
ACC16_COL_BLOCK = 4096


def _acc16_replay(
    a16: np.ndarray,
    b16: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    pre_shift: int,
) -> Tuple[np.ndarray, int]:
    """Exact saturating accumulation of the flagged ``(row, col)`` entries.

    The int16 accumulator of one output element evolves independently of
    every other element, so the flagged subset can be replayed with the
    literal per-K recurrence (vectorized across entries) without touching
    the rest of the matrix.  Returns ``(values, overflow_events)``.
    """
    lo, hi = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    taps = a16[rows] * b16[:, cols].T  # (n_flagged, K)
    taps = rounding_rshift(taps, pre_shift)
    seq = np.zeros(len(rows), dtype=np.int64)
    overflow = 0
    for idx in range(taps.shape[1]):
        seq = seq + taps[:, idx]
        clipped = np.clip(seq, lo, hi)
        overflow += int(np.count_nonzero(clipped != seq))
        seq = clipped
    return seq, overflow


def gemm_i8_acc16(
    a: np.ndarray,
    b: np.ndarray,
    a_offset: int = 0,
    b_offset: int = 0,
    pre_shift: int = 4,
) -> Tuple[np.ndarray, int]:
    """uint8 GEMM with a 16-bit accumulator and pre-accumulation shift.

    Each int16 product is rounding-right-shifted by *pre_shift* before being
    added to a saturating int16 accumulator — the §III-D "careful management
    of the accumulator scale so as to avoid destructive numeric overflow in
    adding up the 27 products".  Returns ``(acc16, overflow_count)`` where
    the count tallies saturation events (0 when the scale is managed well).
    Callers must fold ``2**pre_shift`` back into the requantization scale.

    Implementation: a blocked, fully-numpy kernel, bit-identical to
    :func:`gemm_i8_acc16_reference` (overflow count included) but without
    the per-K Python iteration.  It rests on the exact decomposition

        sum_k (p_k + r) >> s  ==  (P + K*r - T) / 2**s,

    where ``P = sum_k p_k`` is a plain GEMM and ``T`` sums the low ``s``
    bits of each biased product — a byte-sized elementwise pass, since
    ``(p + r) mod 2**s`` depends only on the operands' low bits.  The GEMM
    runs in float32/float64 BLAS chosen so every partial sum stays exactly
    representable.  Saturation is handled by flagging entries whose
    absolute-product bound could leave the int16 range (a second GEMM on
    ``|a|, |b|``) and replaying only those with the literal recurrence;
    unflagged entries provably never clip.
    """
    a_arr = np.asarray(a)
    b_arr = np.asarray(b)
    if a_arr.ndim != 2 or b_arr.ndim != 2:
        raise ValueError("gemm_i8_acc16 expects 2-D operands")
    m, k = a_arr.shape
    k2, n = b_arr.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    if pre_shift < 0:
        raise ValueError("pre_shift must be non-negative")
    if k == 0 or m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int16), 0
    a16 = a_arr.astype(np.int64) + int(a_offset)
    boff = int(b_offset)
    lo, hi = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    s = pre_shift
    rounding = (1 << (s - 1)) if s > 0 else 0
    amax = int(np.abs(a16).max())
    # Reductions, not np.abs(...).max(): no N-sized temporary.
    bmax = max(abs(int(b_arr.min()) + boff), abs(int(b_arr.max()) + boff))
    prod_max = amax * bmax
    sum_max = k * prod_max
    if s > 8 or sum_max >= (1 << 53):
        return _gemm_i8_acc16_generic(a16, b_arr.astype(np.int64) + boff, s)
    mask = (1 << s) - 1
    # Exact plain-sum GEMM: float32 BLAS whenever every partial sum (and the
    # K*r - T correction) fits the 24-bit significand, float64 otherwise
    # (always exact below 2**53).
    fdt = (
        np.float32
        if max(sum_max, k * (mask + 1)) < (1 << 24)
        else np.float64
    )
    af = a16.astype(fdt)
    abs_af = np.abs(af)
    abs_a_rows = np.abs(a16).max(axis=1)  # (M,) coarse per-row bound
    wdt = np.uint8 if s <= 4 else np.uint16
    u = (a16 & mask).astype(wdt)  # (M, K) low bits, non-negative residues
    # T fits uint16 whenever K*mask does; a narrow sum dtype keeps the whole
    # correction pipeline in float32-promotable types (no int64 pass).
    sdt = np.uint16 if k * mask < (1 << 16) else np.int64
    # Saturation can only bite where even the absolute-value bound
    # sum_k |shifted_k| <= (|a| @ |b| + K*r) >> s leaves the int16 range.
    check_breach = ((prod_max + rounding) >> s) * k > hi
    # Everything below runs per column block so no transient ever exceeds a
    # few MB — full-width (M, N) int64/float intermediates were measurably
    # memory-bound at large N (the whole point of batching).
    block = max(1, ACC16_COL_BLOCK)
    buf = np.empty((m, k, min(block, n)), dtype=wdt)
    acc = np.empty((m, n), dtype=np.int16)
    overflow = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        width = stop - start
        b_blk = b_arr[:, start:stop].astype(np.int64)
        if boff:
            b_blk += boff
        bf = b_blk.astype(fdt)
        sums = af @ bf  # exact integers stored in float
        if s > 0:
            v = (b_blk & mask).astype(wdt)
            w = buf[:, :, :width]
            np.multiply(u[:, :, None], v[None, :, :], out=w)
            w += wdt(rounding)
            w &= wdt(mask)
            t = w.sum(axis=1, dtype=sdt)
            # sums + K*r - T is exactly divisible by 2**s; the division is
            # exact in the float dtype (all values integral, in exact range).
            corrected = sums + (np.asarray(k * rounding, dtype=fdt) - t)
            # Exact division, then int64: a float -> int16 cast would warn on
            # the (about-to-be-replayed) saturating entries.
            totals = (corrected * fdt(1.0 / (1 << s))).astype(np.int64)
        else:
            totals = sums.astype(np.int64)
        np.copyto(acc[:, start:stop], totals, casting="unsafe")
        if check_breach:
            overflow += _acc16_patch_breaches(
                acc[:, start:stop], a16, b_blk, abs_af, abs_a_rows,
                k, s, rounding, hi,
            )
    return acc, overflow


def _acc16_patch_breaches(
    acc_blk: np.ndarray,
    a16: np.ndarray,
    b_blk: np.ndarray,
    abs_af: np.ndarray,
    abs_a_rows: np.ndarray,
    k: int,
    s: int,
    rounding: int,
    hi: int,
) -> int:
    """Find entries of one column block whose accumulator might have
    saturated, replay them exactly, and patch ``acc_blk`` in place.

    Three tiers, cheapest first: a scalar bound over the whole block, a
    rank-1 ``max|a_row| * colsum|b|`` bound per entry, and only then the
    precise ``|a| @ |b|`` GEMM restricted to surviving columns.  Returns
    the overflow-event count.
    """
    abs_b = np.abs(b_blk)
    colsum = abs_b.sum(axis=0)
    amax = int(abs_a_rows.max())
    if ((amax * int(colsum.max()) + k * rounding) >> s) <= hi:
        return 0
    coarse = abs_a_rows[:, None] * colsum[None, :]
    suspect = ((coarse + k * rounding) >> s) > hi
    cols_any = np.nonzero(suspect.any(axis=0))[0]
    if cols_any.size == 0:
        return 0
    bound = (abs_af @ abs_b[:, cols_any].astype(abs_af.dtype)).astype(np.int64)
    flagged = ((bound + k * rounding) >> s) > hi
    if not np.any(flagged):
        return 0
    rows, sub_cols = np.nonzero(flagged)
    cols = cols_any[sub_cols]
    seq, events = _acc16_replay(a16, b_blk, rows, cols, s)
    acc_blk[rows, cols] = seq
    return events


def _gemm_i8_acc16_generic(
    a16: np.ndarray, b16: np.ndarray, pre_shift: int
) -> Tuple[np.ndarray, int]:
    """Blocked fallback for extreme shifts/magnitudes: materialize all K
    shifted products per column block, prefix-sum to locate saturation."""
    m, k = a16.shape
    n = b16.shape[1]
    lo, hi = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    acc = np.empty((m, n), dtype=np.int16)
    overflow = 0
    block = max(1, ACC16_COL_BLOCK // 8)
    for start in range(0, n, block):
        stop = min(start + block, n)
        shifted = rounding_rshift(
            a16[:, :, None] * b16[None, :, start:stop], pre_shift
        )
        prefix = np.cumsum(shifted, axis=1)
        block_acc = prefix[:, -1, :]
        breached = (prefix.max(axis=1) > hi) | (prefix.min(axis=1) < lo)
        np.copyto(acc[:, start:stop], block_acc, casting="unsafe")
        if np.any(breached):
            rows, cols = np.nonzero(breached)
            seq, events = _acc16_replay(
                a16, b16[:, start:stop], rows, cols, pre_shift
            )
            acc[rows, start + cols] = seq
            overflow += events
    return acc, overflow


__all__ = [
    "gemm_f32",
    "rounding_rshift",
    "saturate",
    "RequantizeParams",
    "gemm_i8_acc32",
    "gemm_i8_acc16",
    "gemm_i8_acc16_reference",
    "acc16_worst_case_bound",
    "acc32_worst_case_bound",
    "ACC16_COL_BLOCK",
]
