"""FINN-style threshold activations.

FINN [7] folds the whole post-convolution chain — batch normalization,
activation and activation *re*-quantization — into per-channel integer
thresholds applied to the raw integer accumulator of a quantized matrix
engine.  A 3-bit output needs 7 thresholds per channel: the output level is
simply the number of thresholds the accumulator reaches.  This is what makes
the paper's W1A3 hidden layers "ideal circumstances for a successful
acceleration by programmable hardware" (§III-A): no multipliers, no floats,
just popcounts and comparisons.

The derivation here is exact: for an integer accumulator ``acc`` (in units
of ``weight * input-level``) the float pipeline

    y = gamma * (s_in * acc - mu) / sqrt(var + eps) + beta
    out_level = clip(floor(relu(y) / s_out + 0.5), 0, 2**bits - 1)

is equivalent to counting thresholds, with a per-channel comparison
direction flip when ``gamma < 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import workspace
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
        """Map integer accumulators ``(C, ...)`` to output levels ``0..2**bits-1``.

        The levels are ``uint8`` codes for ``bits <= 8``
        (:func:`repro.core.quantize.level_dtype`).  ``out`` (optional)
        receives them in place; it must be an array of that dtype and of
        ``acc``'s shape.  This lets callers route the result into
        workspace-managed storage instead of a fresh heap allocation per
        call.
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
        if self.thresholds.shape[-1] <= 16:
            fast = self._apply_compare(acc, out)
            if fast is not None:
                return fast
        plan = self._sorted_plan()
        if plan is None:
            generic = self._apply_generic(acc)
            if out is None:
                return generic
            np.copyto(out, generic)
            return out
        n_thresh = self.thresholds.shape[-1]
        if out is None:
            out = np.empty(acc.shape, dtype=dtype)
        for ch, (sign, ascending) in enumerate(plan):
            channel = np.asarray(acc[ch])
            flat = channel.reshape(-1)
            if sign > 0:
                # hits = |{T : acc >= T}| over an ascending threshold vector.
                counts = np.searchsorted(ascending, flat, side="right")
            else:
                # hits = |{T : acc <= T}| = n - |{T : T < acc}|.
                counts = n_thresh - np.searchsorted(ascending, flat, side="left")
            out[ch] = counts.reshape(channel.shape)
        return out

    def _apply_compare(self, acc: np.ndarray, out: np.ndarray | None):
        """Few-threshold fast path: one broadcast compare per threshold.

        Hit counting is order-free, so this needs no monotonicity (it also
        replaces the generic path) and folding the per-channel sign into
        both operands (``s*acc >= s*T``) makes every comparison a ``>=``.
        Comparisons run in a dtype representing both sides exactly — int64
        for integer accumulators; for float ones the folded thresholds must
        survive the cast losslessly or sit beyond the float's exact-integer
        range (``+-2**62`` sentinels do), else we decline (return ``None``)
        and the caller falls back to the searchsorted/generic path.
        """
        plan = self._compare_plan()
        if np.issubdtype(acc.dtype, np.floating):
            limit = 2.0 ** (np.finfo(acc.dtype).nmant + 1)
            thr = plan["thr64"].astype(acc.dtype)
            exact = np.abs(plan["thr64"]) <= limit
            exact |= thr.astype(np.float64) == plan["thr64"]
            if not exact.all():
                return None
        else:
            thr = plan["thr_int"]
        col = (slice(None),) + (None,) * (acc.ndim - 1)
        signed = acc
        if not plan["all_positive"]:
            signed = workspace.empty(
                acc.shape, np.result_type(acc.dtype, self.signs.dtype)
            )
            np.multiply(acc, self.signs[col], out=signed)
        # n_thresh <= 16, so hit counts fit the uint8 level codes directly.
        if out is None:
            out = np.empty(acc.shape, dtype=np.uint8)
        out.fill(0)
        cmp = workspace.empty(acc.shape, np.bool_)
        for k in range(thr.shape[-1]):
            np.greater_equal(signed, thr[:, k][col], out=cmp)
            out += cmp
        workspace.release(cmp)
        if signed is not acc:
            workspace.release(signed)
        return out

    def _compare_plan(self):
        """Cached sign-folded thresholds for :meth:`_apply_compare`."""
        key = (id(self.thresholds), id(self.signs))
        cached = getattr(self, "_cmp_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        folded = self.thresholds * self.signs[:, None].astype(np.int64)
        plan = {
            "thr_int": folded,
            "thr64": folded.astype(np.float64),
            "all_positive": bool(np.all(self.signs > 0)),
        }
        self._cmp_cache = (key, plan)
        return plan

    def _apply_generic(self, acc: np.ndarray) -> np.ndarray:
        """Literal hit-counting over all thresholds (any threshold order)."""
        extra = acc.ndim - 1
        thr = self.thresholds.reshape((self.channels,) + (1,) * extra + (-1,))
        sign = self.signs.reshape((self.channels,) + (1,) * extra)
        acc_exp = acc[..., None]
        hits = np.where(
            sign[..., None] > 0, acc_exp >= thr, acc_exp <= thr
        )
        return hits.sum(axis=-1).astype(level_dtype(self.bits))

    def _sorted_plan(self):
        """Cached per-channel ascending threshold vectors for searchsorted.

        Returns ``None`` when some channel's thresholds are not monotone in
        its comparison direction (then only the generic path is exact).
        The cache is keyed on the identity of the threshold/sign arrays so
        reassigning them invalidates it.
        """
        key = (id(self.thresholds), id(self.signs))
        cached = getattr(self, "_plan_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        plan = []
        for ch in range(self.channels):
            sign = int(self.signs[ch])
            thr = self.thresholds[ch]
            ascending = thr if sign > 0 else thr[::-1]
            if np.any(np.diff(ascending) < 0):
                plan = None
                break
            plan.append((sign, np.ascontiguousarray(ascending)))
        self._plan_cache = (key, plan)
        return plan


def monotone_violations(
    thresholds: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """Channel indices whose thresholds are non-monotone for their direction.

    This is the public form of the :meth:`ThresholdActivation._sorted_plan`
    admission test: a ``+1`` channel needs ascending thresholds, a ``-1``
    channel descending ones (ascending after reversal).  A violating
    channel still *executes* correctly — ``apply`` falls back to the
    generic hit-counting path — but it cannot have come out of a faithful
    BN+ReLU+requantize folding, so the static dataflow verifier treats it
    as a corrupted threshold table.
    """
    thresholds = np.asarray(thresholds)
    signs = np.asarray(signs)
    bad = []
    for ch in range(thresholds.shape[0]):
        ascending = thresholds[ch] if int(signs[ch]) > 0 else thresholds[ch][::-1]
        if np.any(np.diff(ascending) < 0):
            bad.append(ch)
    return np.asarray(bad, dtype=np.int64)


def is_monotone(activation: ThresholdActivation) -> bool:
    """True when every channel's threshold table is monotone (fast path ok)."""
    return monotone_violations(activation.thresholds, activation.signs).size == 0


def derive_thresholds(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    in_scale: float,
    out_scale: float,
    bits: int,
    eps: float = 1e-6,
) -> ThresholdActivation:
    """Fold BN + ReLU + uniform re-quantization into integer thresholds.

    ``in_scale`` is the value of one accumulator unit (input-level scale,
    with binary ±1 weights); ``out_scale`` the activation quantizer's step.
    The returned thresholds satisfy, for every integer accumulator ``acc``::

        apply(acc) == clip(floor(relu(bn(acc * in_scale)) / out_scale + .5),
                           0, 2**bits - 1)
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    n_thresh = (1 << bits) - 1
    levels = np.arange(1, n_thresh + 1)

    def reaches(acc: np.ndarray) -> np.ndarray:
        """Whether the reference puts accumulator ``acc[c, ..., k-1]`` at
        level ``k`` or above."""
        return float_reference_activation(
            acc, gamma, beta, mean, var, in_scale, out_scale, bits, eps
        ) >= levels

    inv_sigma = gamma / np.sqrt(var + eps)
    # Output level >= k  <=>  y >= out_scale * (k - 0.5); solve for acc, all
    # (channel, level) pairs at once.  The level values are scalar products
    # so a float32 ``out_scale`` rounds exactly as it would element by element.
    y = np.array(
        [out_scale * (k - 0.5) for k in levels], dtype=np.float64
    )
    constant = inv_sigma == 0.0
    slope = np.where(constant, 1.0, inv_sigma)[:, np.newaxis]
    acc_real = (mean[:, np.newaxis] + (y - beta[:, np.newaxis]) / slope) / in_scale
    # acc >= ceil(.) for rising channels, acc <= floor(.) for falling ones
    # (their thresholds descend in k; apply() counts hits, order is irrelevant).
    edge = np.where(
        slope > 0, np.ceil(acc_real - 1e-9), np.floor(acc_real + 1e-9)
    )
    # Constant channel: level is beta-determined, independent of acc.
    edge[constant] = 0.0
    if not np.all(np.abs(edge) < 2.0**63):
        raise OverflowError("a derived threshold does not fit int64")
    # The closed form misses by one where the reference's float64 rounding
    # meets a tie (an accumulator landing on ``y``): step each edge onto the
    # least (falling channel: greatest) accumulator the reference itself
    # puts at level k, so the table is the reference by construction.
    step = np.copysign(np.ones_like(edge), slope)
    fixable = ~constant[:, np.newaxis] & (np.abs(edge) < 2.0**53)
    for _ in range(4):
        probe = reaches(np.stack([edge, edge - step], axis=1))
        inward = fixable & ~probe[:, 0]
        outward = fixable & probe[:, 1]
        if not (inward.any() or outward.any()):
            break
        edge = edge + step * inward - step * outward
    huge = np.int64(2**62)
    always = np.zeros(edge.shape, dtype=bool)
    if constant.any():
        always = reaches(np.zeros_like(edge))
    thresholds = np.where(
        constant[:, np.newaxis], np.where(always, -huge, huge), edge.astype(np.int64)
    )
    signs = np.where(inv_sigma < 0, -1, 1)
    return ThresholdActivation(
        thresholds=thresholds, signs=signs.astype(np.int8), bits=bits
    )


#: Ordered keys of the float32 bit patterns: ``key(x) < key(y)`` iff
#: ``x < y`` for non-NaN ``x, y`` (``-0.0`` sits one key below ``+0.0``).
#: ``+-inf`` are the outermost non-NaN keys.
_KEY_POS_INF = int(np.float32(np.inf).view(np.int32))
_KEY_NEG_INF = -_KEY_POS_INF - 1


def _float32_of_keys(keys: np.ndarray) -> np.ndarray:
    """The float32 values of ordered keys (the key map is an involution)."""
    bits = keys.astype(np.int32)
    bits = np.where(bits < 0, bits ^ np.int32(0x7FFFFFFF), bits)
    return bits.view(np.float32)


def bisect_thresholds(levels_of, signs: np.ndarray, bits: int) -> np.ndarray:
    """Float32 thresholds for a float epilogue, by bisection over bit patterns.

    *levels_of* maps a float32 ``(C, 2**bits - 1)`` array of accumulators
    (channel on axis 0) to output levels; it must be non-decreasing in
    ``signs[c] * acc`` on every channel ``c`` — which holds for a BN with
    gain sign ``signs[c]``, a ReLU/leaky/linear activation and an
    unsigned uniform quantizer, since each float op is monotone.  Returns
    the sign-folded table ``U`` of shape ``(C, 2**bits - 1)``::

        levels_of(acc)[c] == #{k : signs[c] * acc >= U[c, k]}

    for every float32 ``acc`` including ``+-inf`` (see :func:`count_hits`).
    ``U[c, k-1]`` is the least float32 ``x`` (in bit-pattern order) at
    which ``levels_of(signs[c] * x) >= k``, found for all channels and
    levels at once in 32 evaluations of *levels_of*; ``-inf`` means every
    accumulator reaches level ``k``, NaN that none does.  So the table is
    *levels_of* itself, not a derivation of it.

    A zero-gain channel is constant on finite accumulators but its float
    BN computes ``inf * 0 = NaN`` at ``+-inf``.  Bisection never evaluates
    the ends there, so the table counts ``+inf`` like the finite
    accumulators (the channel's constant level) and ``-inf`` as level 0.
    """
    signs = np.asarray(signs).astype(np.float32)[:, np.newaxis]
    n_thresh = (1 << bits) - 1
    wanted = np.arange(1, n_thresh + 1)
    shape = (signs.shape[0], n_thresh)
    # Invariant: levels_of(lo) < k <= levels_of(hi), with virtual keys one
    # past either end standing for "every" and "no" accumulator.
    lo = np.full(shape, _KEY_NEG_INF - 1, dtype=np.int64)
    hi = np.full(shape, _KEY_POS_INF + 1, dtype=np.int64)
    while True:
        open_ = hi - lo > 1
        if not open_.any():
            break
        mid = (lo + hi) // 2
        acc = signs * _float32_of_keys(mid)
        # The probes span the whole float32 range: overflow to +-inf and
        # inf * 0 are part of the function being tabulated, not errors.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reached = np.asarray(levels_of(acc)) >= wanted
        hi = np.where(open_ & reached, mid, hi)
        lo = np.where(open_ & ~reached, mid, lo)
    table = _float32_of_keys(np.minimum(hi, _KEY_POS_INF))
    table[hi > _KEY_POS_INF] = np.nan
    return table


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
    """The float pipeline the thresholds must replicate (test oracle)."""
    shape = (-1,) + (1,) * (acc.ndim - 1)
    y = (
        gamma.reshape(shape)
        * (acc * in_scale - mean.reshape(shape))
        / np.sqrt(var.reshape(shape) + eps)
        + beta.reshape(shape)
    )
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
    "is_monotone",
]
