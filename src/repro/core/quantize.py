"""Quantizers for weights and activations.

The paper's Tincy YOLO uses three regimes (§III-A):

* **binary weights** ``{-1, +1}`` for all hidden convolutional layers,
* **3-bit unsigned activations** between those layers (``W1A3``),
* **8-bit fixed point** for the quantization-sensitive input and output
  layers (computed on the CPU via the gemmlowp-style path).

Each quantizer exposes both the *value* domain (what the float network sees)
and the *level* domain (the integer codes that hardware streams), plus the
straight-through-estimator pass-through mask used for retraining (§III-E
"after retraining this modified network, the detection accuracy was
practically maintained").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import workspace


class Quantizer:
    """Base interface: maps float values to quantized values and level codes."""

    #: number of bits of the level code
    bits: int

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Return quantized *values* (same domain as the input)."""
        raise NotImplementedError

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        """Return integer level codes for *x*."""
        raise NotImplementedError

    def from_levels(self, levels: np.ndarray) -> np.ndarray:
        """Return quantized values for integer *levels*."""
        raise NotImplementedError

    def ste_mask(self, x: np.ndarray) -> np.ndarray:
        """Straight-through-estimator gradient mask (1 where grad passes)."""
        raise NotImplementedError


def level_dtype(bits: int) -> np.dtype:
    """The dtype level codes of *bits* bits travel in: ``uint8`` up to 8
    bits (every W1A3 map), ``int32`` beyond."""
    return np.dtype(np.uint8 if bits <= 8 else np.int32)


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round half away from zero for non-negative inputs (hardware rounding).

    ``numpy.round`` rounds half to even, which does not match the
    ``floor(x + 0.5)`` rounding of fixed-point datapaths; all quantizers in
    this module round like the hardware.
    """
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


def fits_uint8(data: np.ndarray) -> bool:
    """True when *data* holds integer codes that all lie in ``0..255``.

    This reads the data (a ``min`` and a ``max``); a ``uint8`` array needs
    no such scan, so the level-code paths test the dtype first.
    """
    return bool(
        np.issubdtype(data.dtype, np.integer)
        and data.size
        and int(data.min()) >= 0
        and int(data.max()) <= 255
    )


def narrow_codes(data: np.ndarray):
    """``data`` as 1-byte level codes, or ``None`` if not narrowable.

    Activation levels are tiny non-negative codes (3-bit for W1A3), so the
    sliding-window lowering can move 1 byte per element; the accumulators
    downstream are exact either way, so the narrowing is bit-invisible.
    Returns ``data`` itself when it is already ``uint8`` — proved by the
    dtype, without reading the data; otherwise a workspace-managed
    ``uint8`` copy (caller releases it).
    """
    if data.dtype == np.uint8:
        return data
    if not fits_uint8(data):
        return None
    codes = workspace.empty(data.shape, np.uint8)
    np.copyto(codes, data, casting="unsafe")
    return codes


def _signed_scale(positive: np.ndarray, scale: float, out=None) -> np.ndarray:
    """float32 ``+scale`` where the mask *positive* holds, else ``-scale``.

    ``np.where(mask, scale, -scale)`` runs numpy's generic select loop
    (~6 ns/element, and through a float64 array when the branches are
    Python floats), which made binarizing Tincy's 6.3 M weights most of a
    plan bind.  Three SIMD float32 passes instead: ``mask - 0.5`` is
    ``+-0.5``, doubled is ``+-1``, times ``float32(scale)`` is exactly
    ``+-float32(scale)`` — the one rounding of *scale* a select between
    float32 scalars makes, so the result is bit-identical to it.  The
    mask is bool or ``1.0``/``0.0`` float32; *out* (new when ``None``)
    may be the mask itself.
    """
    if out is None:
        out = np.empty(np.shape(positive), dtype=np.float32)
    np.subtract(positive, np.float32(0.5), out=out)
    out *= np.float32(2.0)
    out *= np.float32(scale)
    return out


@dataclass
class BinaryQuantizer(Quantizer):
    """Sign binarization to ``{-scale, +scale}`` (Hubara et al. / FINN).

    Zero maps to ``+scale`` (the convention of both BinaryNet and FINN).
    Level code: 0 for ``-scale``, 1 for ``+scale`` — the XNOR-popcount
    encoding of :mod:`repro.core.bitpack`.
    """

    scale: float = 1.0
    bits: int = 1

    def quantize(self, x: np.ndarray, out=None) -> np.ndarray:
        """``+-scale`` float32 values of *x*, written into *out* when given
        (a float32 array of *x*'s shape; no other array is allocated)."""
        if out is None:
            out = np.empty(np.shape(x), dtype=np.float32)
        np.greater_equal(x, 0, out=out)  # the mask, as 1.0 / 0.0
        return _signed_scale(out, self.scale, out=out)

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) >= 0).astype(np.uint8)

    def from_levels(self, levels: np.ndarray) -> np.ndarray:
        return _signed_scale(np.asarray(levels) > 0, self.scale)

    def ste_mask(self, x: np.ndarray) -> np.ndarray:
        # Clipped STE: pass gradients only where |x| <= 1 (BinaryNet rule).
        return (np.abs(np.asarray(x)) <= 1.0).astype(np.float32)


@dataclass
class TernaryQuantizer(Quantizer):
    """Ternary quantization to ``{-scale, 0, +scale}`` (Li et al., TWN).

    ``threshold`` follows the TWN heuristic default of ``0.7 * mean(|x|)``
    when not given explicitly.
    """

    threshold: float = 0.05
    scale: float = 1.0
    bits: int = 2

    @classmethod
    def from_weights(cls, x: np.ndarray) -> "TernaryQuantizer":
        x = np.asarray(x, dtype=np.float64)
        threshold = 0.7 * float(np.mean(np.abs(x)))
        mask = np.abs(x) > threshold
        scale = float(np.mean(np.abs(x[mask]))) if mask.any() else 1.0
        return cls(threshold=threshold, scale=scale)

    def quantize(self, x: np.ndarray, out=None) -> np.ndarray:
        """``{-scale, 0, +scale}`` float32 values of *x*, written into
        *out* when given (a float32 array of *x*'s shape)."""
        x = np.asarray(x)
        ternary = np.sign(x) * (np.abs(x) > self.threshold)
        if out is None:
            return (ternary * self.scale).astype(np.float32)
        return np.multiply(ternary, self.scale, out=out, casting="unsafe")

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        # levels: 0 -> -scale, 1 -> 0, 2 -> +scale
        x = np.asarray(x)
        return (np.sign(x) * (np.abs(x) > self.threshold) + 1).astype(np.int8)

    def from_levels(self, levels: np.ndarray) -> np.ndarray:
        return ((np.asarray(levels).astype(np.float32) - 1.0) * self.scale).astype(
            np.float32
        )

    def ste_mask(self, x: np.ndarray) -> np.ndarray:
        return (np.abs(np.asarray(x)) <= 1.0).astype(np.float32)


@dataclass
class UnsignedUniformQuantizer(Quantizer):
    """Unsigned uniform quantizer for activations (FINN ``A<n>`` regime).

    Values are ``level * scale`` with ``level`` in ``[0, 2**bits - 1]``;
    inputs are clipped below at 0 (the ReLU already guarantees this in the
    network) and above at the top level.
    """

    bits: int = 3
    scale: float = 1.0 / 7.0

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    @property
    def max_value(self) -> float:
        return self.levels * self.scale

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        """``clip(floor(x / scale + 0.5), 0, levels)`` as level codes.

        The codes are ``uint8`` for ``bits <= 8`` (:func:`level_dtype`).
        NaN maps to level 0: the lower clip is ``fmax``, which drops a NaN
        where ``clip`` would pass it on to an undefined integer cast.
        """
        # The round_half_up pipeline, run in-place through one float64
        # workspace buffer (same ops, same order, same dtypes as the
        # out-of-place expression, so bit-identical) instead of four
        # full-size temporaries.
        x = np.asarray(x)
        buf = workspace.empty(x.shape, np.float64)
        np.copyto(buf, x)
        buf /= self.scale
        buf += 0.5
        np.floor(buf, out=buf)
        np.fmax(buf, 0, out=buf)
        np.minimum(buf, self.levels, out=buf)
        codes = workspace.empty(x.shape, level_dtype(self.bits))
        np.copyto(codes, buf, casting="unsafe")
        workspace.release(buf)
        return codes

    def from_levels(self, levels: np.ndarray) -> np.ndarray:
        return (np.asarray(levels).astype(np.float64) * self.scale).astype(np.float32)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.from_levels(self.to_levels(x))

    def ste_mask(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return ((x >= 0.0) & (x <= self.max_value)).astype(np.float32)


@dataclass
class AffineQuantizer(Quantizer):
    """Signed/unsigned affine (asymmetric) quantizer — the gemmlowp regime.

    ``value = (level - zero_point) * scale`` with ``level`` confined to the
    ``bits``-wide integer range.  This is how the paper's 8-bit input layer
    quantizes image data while arranging the multiplicand matrix (§III-D).
    """

    scale: float
    zero_point: int = 0
    bits: int = 8
    signed: bool = False

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @classmethod
    def symmetric(cls, max_abs: float, bits: int = 8) -> "AffineQuantizer":
        """Symmetric signed quantizer (zero point 0) covering ``[-m, m]``.

        This is the weight regime of the custom NEON kernels: with a zero
        point of 0 the integer GEMM needs no offset corrections at all.
        """
        max_abs = float(max_abs)
        if max_abs <= 0:
            max_abs = 1.0
        qmax = (1 << (bits - 1)) - 1
        return cls(scale=max_abs / qmax, zero_point=0, bits=bits, signed=True)

    @classmethod
    def from_range(
        cls, low: float, high: float, bits: int = 8, signed: bool = False
    ) -> "AffineQuantizer":
        """Calibrate scale/zero-point so that ``[low, high]`` is representable.

        The range is widened to include zero so that zero is exactly
        representable (a gemmlowp requirement).
        """
        low = min(0.0, float(low))
        high = max(0.0, float(high))
        if high == low:
            high = low + 1.0
        qmin = -(1 << (bits - 1)) if signed else 0
        qmax = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        scale = (high - low) / (qmax - qmin)
        zero_point = int(round(qmin - low / scale))
        zero_point = max(qmin, min(qmax, zero_point))
        return cls(scale=scale, zero_point=zero_point, bits=bits, signed=signed)

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        codes = np.sign(x / self.scale) * round_half_up(np.abs(x / self.scale))
        codes = codes + self.zero_point
        codes = np.clip(codes, self.qmin, self.qmax)
        dtype = np.int8 if self.signed else np.uint8
        if self.bits > 8:
            dtype = np.int16 if self.signed else np.uint16
        return codes.astype(dtype)

    def from_levels(self, levels: np.ndarray) -> np.ndarray:
        return (
            (np.asarray(levels).astype(np.float64) - self.zero_point) * self.scale
        ).astype(np.float32)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.from_levels(self.to_levels(x))

    def ste_mask(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        low = (self.qmin - self.zero_point) * self.scale
        high = (self.qmax - self.zero_point) * self.scale
        return ((x >= low) & (x <= high)).astype(np.float32)


__all__ = [
    "Quantizer",
    "BinaryQuantizer",
    "TernaryQuantizer",
    "UnsignedUniformQuantizer",
    "AffineQuantizer",
    "round_half_up",
    "level_dtype",
    "fits_uint8",
    "narrow_codes",
]
