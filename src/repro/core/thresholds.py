"""FINN-style threshold activations.

FINN [7] folds the whole post-convolution chain — batch normalization,
activation and activation *re*-quantization — into per-channel integer
thresholds applied to the raw integer accumulator of a quantized matrix
engine.  A 3-bit output needs 7 thresholds per channel: the output level is
simply the number of thresholds the accumulator reaches.  This is what makes
the paper's W1A3 hidden layers "ideal circumstances for a successful
acceleration by programmable hardware" (§III-A): no multipliers, no floats,
just popcounts and comparisons.

Every table is found one way, by :func:`bisect_thresholds`: for every
channel and level at once it bisects an ordered key domain for the least
accumulator at which the pipeline being folded reaches the level.  Each
float op of that pipeline is monotone, so the count of thresholds crossed
*is* the pipeline on the whole domain — no closed form is solved, so no
tie rounds the wrong way and no threshold overflows.  The callers:

* :func:`derive_thresholds` — W1A3 hidden layers: integer accumulators
  in ``[-B, B]`` (``B`` from :func:`repro.core.ops.accumulator_bound`)
  against :func:`float_reference_activation`, the float64 pipeline

      y = gamma * (s_in * acc - mu) / sqrt(var + eps) + beta
      out_level = clip(floor(relu(y) / s_out + 0.5), 0, 2**bits - 1)

  with a per-channel comparison direction flip when ``gamma < 0``;
* :func:`repro.finn.dense.derive_sign_thresholds` — W1A1 layers: the same
  integer domain against ``y >= 0``;
* a first layer's float epilogue
  (:meth:`repro.nn.layers.convolutional.ConvolutionalLayer._float_band_kernel`):
  every float32 accumulator, against the layer's own ``_epilogue``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import workspace
from repro.core.ops import _F32_EXACT, accumulator_bound
from repro.core.quantize import level_dtype, round_half_up


@dataclass
class ThresholdActivation:
    """Per-channel integer thresholds mapping accumulators to output levels.

    ``thresholds`` has shape ``(channels, 2**bits - 1)`` and is ascending
    along the last axis.  ``signs`` holds +1 for channels compared as
    ``acc >= T`` and -1 for channels compared as ``acc <= T`` (negative
    batch-norm gain).
    """

    thresholds: np.ndarray
    signs: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        expected = (1 << self.bits) - 1
        if self.thresholds.shape[-1] != expected:
            raise ValueError(
                f"{self.bits}-bit activation needs {expected} thresholds per "
                f"channel, got {self.thresholds.shape[-1]}"
            )

    @property
    def channels(self) -> int:
        return int(self.thresholds.shape[0])

    def apply(self, acc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map accumulators ``(C, ...)`` to output levels ``0..2**bits-1``.

        The levels are ``uint8`` codes for ``bits <= 8``
        (:func:`repro.core.quantize.level_dtype`).  ``out`` (optional)
        receives them in place; it must be an array of that dtype and of
        ``acc``'s shape.  This lets callers route the result into
        workspace-managed storage instead of a fresh heap allocation per
        call.

        One broadcast compare per threshold: hit counting is order-free,
        so a non-monotone (corrupt bundle) table still counts exactly, and
        folding the per-channel sign into both operands (``s*acc >= s*T``)
        makes every comparison a ``>=``.  Integer accumulators compare
        against the ``int64`` table, float ones against
        :meth:`float32_table`.
        """
        if acc.shape[0] != self.channels:
            raise ValueError(
                f"accumulator has {acc.shape[0]} channels, expected {self.channels}"
            )
        dtype = level_dtype(self.bits)
        if out is not None and (out.shape != acc.shape or out.dtype != dtype):
            raise ValueError(
                f"out must be a {dtype} array matching acc's shape"
            )
        folded, table32, all_positive = self._folded()
        thr = table32 if np.issubdtype(acc.dtype, np.floating) else folded
        col = (slice(None),) + (None,) * (acc.ndim - 1)
        signed = acc
        if not all_positive:
            signed = workspace.empty(
                acc.shape, np.result_type(acc.dtype, self.signs.dtype)
            )
            np.multiply(acc, self.signs[col], out=signed)
        if out is None:
            out = np.empty(acc.shape, dtype=dtype)
        out.fill(0)
        cmp = workspace.empty(acc.shape, np.bool_)
        for k in range(thr.shape[-1]):
            np.greater_equal(signed, thr[:, k][col], out=cmp)
            out += cmp
        workspace.release(cmp)
        if signed is not acc:
            workspace.release(signed)
        return out

    def float32_table(self) -> np.ndarray:
        """The sign-folded table ``s * T`` as ``float32``, clamped to ``+-2**24``.

        Exact for every accumulator float32 holds exactly (``|acc| <
        2**24``): a derived threshold lies within ``+-(B + 1) <= 2**24``
        already, and one beyond (a sentinel in an older bundle's table)
        compares the same once clamped.  The band kernel and float
        accumulators in :meth:`apply` both count against it.
        """
        return self._folded()[1]

    def _folded(self):
        """Cached ``(int64, float32)`` sign-folded tables and whether every
        sign is ``+1``, keyed on the identity of the threshold and sign
        arrays."""
        key = (id(self.thresholds), id(self.signs))
        cached = getattr(self, "_fold_cache", None)
        if cached is None or cached[0] != key:
            folded = self.thresholds * self.signs[:, None].astype(np.int64)
            table32 = np.clip(folded, -_F32_EXACT, _F32_EXACT).astype(np.float32)
            all_positive = bool((self.signs > 0).all())
            cached = self._fold_cache = (key, (folded, table32, all_positive))
        return cached[1]


def monotone_violations(
    thresholds: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """Channel indices whose thresholds are non-monotone for their direction.

    A ``+1`` channel needs ascending thresholds, a ``-1`` channel
    descending ones (ascending after reversal).  A violating channel
    still *executes* exactly — :meth:`ThresholdActivation.apply` counts
    hits in any order — but it cannot have come out of a faithful
    BN+ReLU+requantize folding (a bisection of a monotone predicate), so
    the static dataflow verifier treats a bundle carrying one as a
    corrupted threshold table.
    """
    thresholds = np.asarray(thresholds)
    signs = np.asarray(signs)
    bad = []
    for ch in range(thresholds.shape[0]):
        ascending = thresholds[ch] if int(signs[ch]) > 0 else thresholds[ch][::-1]
        if np.any(np.diff(ascending) < 0):
            bad.append(ch)
    return np.asarray(bad, dtype=np.int64)


#: Ordered keys of the float32 bit patterns: ``key(x) < key(y)`` iff
#: ``x < y`` for non-NaN ``x, y`` (``-0.0`` sits one key below ``+0.0``).
#: ``+-inf`` are the outermost non-NaN keys.
_KEY_POS_INF = int(np.float32(np.inf).view(np.int32))
_KEY_NEG_INF = -_KEY_POS_INF - 1


def _float32_of_keys(keys: np.ndarray) -> np.ndarray:
    """The float32 values of ordered keys (the key map is an involution);
    a key past ``+inf``'s is ``+inf``."""
    bits = np.minimum(keys, _KEY_POS_INF).astype(np.int32)
    bits = np.where(bits < 0, bits ^ np.int32(0x7FFFFFFF), bits)
    return bits.view(np.float32)


def bisect_thresholds(
    reaches, signs: np.ndarray, bits: int, bound=None
) -> np.ndarray:
    """The sign-folded threshold table of a monotone predicate, by bisection.

    *reaches* maps a ``(C, 2**bits - 1)`` array of accumulators (channel
    on axis 0) to whether ``acc[c, k-1]`` reaches output level ``k``; it
    must be non-decreasing in ``signs[c] * acc`` on every channel ``c`` —
    which holds for a BN with gain sign ``signs[c]``, a ReLU/leaky/linear
    or sign activation and an unsigned uniform quantizer, since each
    float op is monotone.  ``U[c, k-1]`` is the least key ``x`` at which
    ``reaches(signs[c] * x)`` holds for level ``k``, found for all
    channels and levels at once, so the table is *reaches* itself, not a
    derivation of it::

        level(acc)[c] == #{k : signs[c] * acc >= U[c, k]}

    The key domain is one of two:

    * *bound* ``B`` given: ``int64`` accumulators in ``[-B, B]``, in
      ``ceil(log2(2B + 3))`` evaluations.  ``-(B + 1)`` means every accumulator
      of the range reaches the level, ``B + 1`` that none does, so no
      threshold overflows and with ``B < 2**24`` every one is exact in
      float32;
    * *bound* ``None``: every float32 in bit-pattern order, ``+-inf``
      included (see :func:`count_hits`), in 32 evaluations; ``-inf``
      means every accumulator reaches the level, NaN that none does.  A
      zero-gain channel is constant on finite accumulators but its float
      BN computes ``inf * 0 = NaN`` at ``+-inf``: the table counts
      ``+inf`` like the finite accumulators (the channel's constant
      level) and ``-inf`` as level 0.
    """
    signs = np.asarray(signs)[:, np.newaxis]
    if bound is None:
        signs = signs.astype(np.float32)
        below, above, value_of = _KEY_NEG_INF - 1, _KEY_POS_INF + 1, _float32_of_keys
    else:
        signs = signs.astype(np.int64)
        below, above, value_of = -bound - 2, bound + 1, np.asarray
    # lo is the greatest key known to fail, starting one below the domain
    # (never probed); each step tries lo + 2**j.  A probe past the top
    # continues the predicate monotonically (an integer beyond B, or +inf
    # for a float key), so the answer lo + 1 is clamped to the top.
    # Levels are stored as rows: per-channel constants then broadcast
    # along the contiguous axis.
    lo = np.full(((1 << bits) - 1, signs.shape[0]), below, dtype=np.int64).T
    for j in reversed(range((above - below - 1).bit_length())):
        probe = lo + (1 << j)
        # The float probes span the whole float32 range: overflow to
        # +-inf and inf * 0 are part of the function being tabulated.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reached = reaches(signs * value_of(probe))
        lo = np.where(reached, lo, probe)
    keys = np.ascontiguousarray(np.minimum(lo + 1, above))
    if bound is not None:
        return keys
    table = _float32_of_keys(keys)
    table[keys == above] = np.nan
    return table


def derive_thresholds(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    in_scale: float,
    out_scale: float,
    bits: int,
    eps: float = 1e-6,
    *,
    fan_in: int,
) -> ThresholdActivation:
    """Fold BN + ReLU + uniform re-quantization into integer thresholds.

    ``in_scale`` is the value of one accumulator unit (input-level scale,
    with binary ±1 weights); ``out_scale`` the activation quantizer's
    step; *fan_in* the layer's dot-product length, so ``B =
    accumulator_bound(uint8, fan_in)`` bounds every accumulator of its
    1-byte level codes.  The table is the bisection of
    :func:`float_reference_activation` over ``[-B, B]``
    (:func:`bisect_thresholds`), so for every integer ``|acc| <= B``::

        apply(acc) == float_reference_activation(acc, gamma, beta, mean,
                                                 var, in_scale, out_scale,
                                                 bits, eps)
    """
    gamma, beta, mean, var = (
        np.asarray(a, dtype=np.float64)[:, np.newaxis]
        for a in (gamma, beta, mean, var)
    )
    sigma = np.sqrt(var + eps)
    levels = np.arange(1, 1 << bits)

    def reaches(acc: np.ndarray) -> np.ndarray:
        # float_reference_activation(acc) >= k, op for op, less what cannot
        # change the answer: floor(z) >= k iff z >= k for an integer k, and
        # max(y, 0) never lifts y to a level k >= 1.
        y = gamma * (acc * in_scale - mean) / sigma + beta
        return y / out_scale + 0.5 >= levels

    signs = np.where(gamma[:, 0] < 0, -1, 1).astype(np.int8)
    bound = accumulator_bound(np.uint8, fan_in)
    folded = bisect_thresholds(reaches, signs, bits, bound)
    return ThresholdActivation(folded * signs[:, np.newaxis], signs, bits)


def count_hits(
    acc: np.ndarray, table: np.ndarray, hits: np.ndarray, cmp: np.ndarray
) -> np.ndarray:
    """``hits[c, p] = #{k : acc[c, p] >= table[c, k]}`` as ``uint8``.

    *acc* ``(C, P)`` holds sign-folded accumulators ``s * acc`` and
    *table* ``(C, K)`` sign-folded thresholds, float32 both; *hits* and
    *cmp* are ``uint8`` scratch of *acc*'s shape.  A NaN accumulator or
    threshold compares false: NaN is level 0, and a NaN threshold is never
    reached.
    """
    np.greater_equal(acc, table[:, 0:1], out=hits.view(np.bool_))
    flags = cmp.view(np.bool_)
    for index in range(1, table.shape[1]):
        np.greater_equal(acc, table[:, index : index + 1], out=flags)
        np.add(hits, cmp, out=hits)
    return hits


def float_reference_activation(
    acc: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    in_scale: float,
    out_scale: float,
    bits: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """The float pipeline the thresholds must replicate (test oracle).

    Defined in float64: the accumulators and batch-norm arrays are
    widened (exactly) before the first op.
    """
    acc = np.asarray(acc, dtype=np.float64)
    shape = (-1,) + (1,) * (acc.ndim - 1)
    gamma, beta, mean, var = (
        np.asarray(a, dtype=np.float64).reshape(shape)
        for a in (gamma, beta, mean, var)
    )
    y = gamma * (acc * in_scale - mean) / np.sqrt(var + eps) + beta
    # The reference oracle is *defined* in float64. # analyze: allow(AST-F64-TEMP)
    levels = round_half_up(np.maximum(y, 0.0) / out_scale)
    return np.clip(levels, 0, (1 << bits) - 1).astype(np.int32)


__all__ = [
    "ThresholdActivation",
    "bisect_thresholds",
    "count_hits",
    "derive_thresholds",
    "float_reference_activation",
    "monotone_violations",
]
