"""Convolutional layer with the paper's quantization regimes.

The cfg options mirror Darknet plus the paper's extensions:

* ``binary=1`` — binarize weights to ``{-1, +1}`` (Fig. 4 shows this flag on
  the hidden layers of Tincy YOLO).
* ``activation_bits=n`` — re-quantize the layer output to ``n``-bit unsigned
  levels (``n=3`` gives the W1A3 regime of §III-A).
* ``activation_scale=s`` — quantization step of the output levels.

The float "fake-quantized" forward path here is the training-time view; the
FINN backend (:mod:`repro.finn`) executes the same layers on integer
thresholds and the tests pin down exact agreement between the two.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core import workspace
from repro.core.fused import BandKernel
from repro.core.ops import (
    ACTIVATIONS,
    accumulates_exactly,
    as_map_dtype,
    batchnorm_inference,
    conv2d_batch,
)
from repro.core.quantize import (
    BinaryQuantizer,
    UnsignedUniformQuantizer,
    level_dtype,
    narrow_codes,
)
from repro.core.thresholds import bisect_thresholds, derive_thresholds
from repro.core.tensor import FeatureMapBatch, conv_output_size
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload, WeightSink, WeightSource

BN_EPS = 1e-6  # darknet's .000001f

#: Byte budget for one frame-chunk of the batched conv pipeline (the float32
#: pre-activation tensor).  The conv/BN/activation/quantization passes are
#: memory-bound, so the batch is processed in chunks whose working set stays
#: cache-friendly; chunk results are written straight into one preallocated
#: batch output (large maps simply get single-frame chunks through the same
#: batched kernels — bit-identical by the `conv2d_batch` per-frame GEMM
#: guarantee, with no separate per-frame code path).
_CONV_BATCH_FRAME_BUDGET = 1 << 23


def _lut_conv_inputs(data: np.ndarray, scale: float):
    """``(codes, lut)`` when integer level codes can feed the GEMM via a LUT.

    ``lut[c] = float32(float64(c) * scale)`` reproduces
    ``FeatureMap.values()`` element for element (so the downstream float32
    GEMM sees bit-identical operands), while the lowering gathers 1-byte
    codes instead of a promoted float map.  ``lut[0]`` is exactly ``+0.0``,
    matching the zero padding of the dense float path.  Returns ``None``
    when the data is not LUT-addressable (float input layer, wide codes).
    """
    codes = narrow_codes(data)
    if codes is None:
        return None
    lut = (np.arange(256, dtype=np.float64) * float(scale)).astype(np.float32)
    return codes, lut


class ConvolutionalLayer(Layer):
    """Darknet ``[convolutional]`` with the paper's quantization regimes."""

    ltype = "convolutional"

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.filters = section.get_int("filters")
        self.size = section.get_int("size", 3)
        self.stride = section.get_int("stride", 1)
        if "padding" in section.options:
            self.pad = section.get_int("padding")
        else:
            self.pad = self.size // 2 if section.get_int("pad", 0) else 0
        self.batch_normalize = bool(section.get_int("batch_normalize", 0))
        activation = section.get_str("activation", "linear")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'")
        self.activation = activation
        self.binary = bool(section.get_int("binary", 0))
        # Ternary weight networks (Li et al. [12]; FPGA: [13], [14]) — the
        # "smallest possible retreat" from full binarization (§II).
        self.ternary = bool(section.get_int("ternary", 0))
        if self.binary and self.ternary:
            raise ValueError("binary=1 and ternary=1 are mutually exclusive")
        bits = section.get_int("activation_bits", 0)
        if bits:
            scale = section.get_float("activation_scale", 1.0 / ((1 << bits) - 1))
            self.out_quant = UnsignedUniformQuantizer(bits=bits, scale=scale)
        else:
            self.out_quant = None
        self._binarizer = BinaryQuantizer()
        # (weights-array, quantized-weights) pair; holding the source array
        # reference makes the identity check safe against id() reuse.
        self._effective_cache = None
        # (in_scale, parameter arrays, ThresholdActivation) for the exact
        # integer epilogue; same identity-keyed invalidation discipline.
        self._threshold_cache = None
        # (ThresholdActivation, effective weights, BandKernel).
        self._band_cache = None
        # (parameter arrays, float-input BandKernel) of a non-binary layer.
        self._float_band_cache = None
        # Parameters (allocated in init once the input depth is known).
        self.weights: np.ndarray = None
        self.biases: np.ndarray = None
        self.scales: np.ndarray = None
        self.rolling_mean: np.ndarray = None
        self.rolling_var: np.ndarray = None

    # -- life cycle -----------------------------------------------------------

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        out_h = conv_output_size(h, self.size, self.stride, self.pad)
        out_w = conv_output_size(w, self.size, self.stride, self.pad)
        self.weights = np.zeros(
            (self.filters, c, self.size, self.size), dtype=np.float32
        )
        self.biases = np.zeros(self.filters, dtype=np.float32)
        if self.batch_normalize:
            self.scales = np.ones(self.filters, dtype=np.float32)
            self.rolling_mean = np.zeros(self.filters, dtype=np.float32)
            self.rolling_var = np.ones(self.filters, dtype=np.float32)
        return (self.filters, out_h, out_w)

    def initialize(self, rng: np.random.Generator) -> None:
        """He-style random initialization (darknet uses scaled uniform)."""
        self._require_initialized()
        fan_in = self.weights[0].size
        scale = np.sqrt(2.0 / fan_in)
        self.weights = rng.normal(0.0, scale, size=self.weights.shape).astype(
            np.float32
        )

    def load_weights(self, source: WeightSource) -> None:
        self._require_initialized()
        self.biases = source.read(self.filters)
        if self.batch_normalize:
            self.scales = source.read(self.filters)
            self.rolling_mean = source.read(self.filters)
            self.rolling_var = source.read(self.filters)
        self.weights = source.read(self.weights.size).reshape(self.weights.shape)

    def save_weights(self, sink: WeightSink) -> None:
        self._require_initialized()
        sink.write(self.biases)
        if self.batch_normalize:
            sink.write(self.scales)
            sink.write(self.rolling_mean)
            sink.write(self.rolling_var)
        sink.write(self.weights)

    # -- inference -------------------------------------------------------------

    def effective_weights(self, out=None) -> np.ndarray:
        """The weights the multiply actually sees (quantized per the flags).

        Quantizing the weights is pure in the weight array, so the result is
        cached across forward calls and recomputed only when ``self.weights``
        is rebound (``load_weights`` / ``initialize`` assign a fresh array).
        A recomputed result is written into *out* when given (float32, of
        the weights' shape).
        """
        if not (self.binary or self.ternary):
            return self.weights
        cached = self._effective_cache
        if cached is not None and cached[0] is self.weights:
            return cached[1]
        if self.binary:
            effective = self._binarizer.quantize(self.weights, out=out)
        else:
            from repro.core.quantize import TernaryQuantizer

            effective = TernaryQuantizer.from_weights(self.weights).quantize(
                self.weights, out=out
            )
        self._effective_cache = (self.weights, effective)
        return effective

    def constants_job(self, in_scales: Sequence[float]) -> Callable[[], None]:
        """This layer's constants as one bind item (see :func:`repro.isa.
        bind.bind`).

        Called on the binding thread, which allocates here every
        weight-sized array the item produces; the returned callable fills
        them on whichever lane runs it.  It derives the ``+-1`` weights,
        then for each input scale in *in_scales* the threshold table and
        the :class:`BandKernel` fold — or, with no scale, the float-input
        kernel of a first layer — so the first frame finds them cached.
        """
        cached = self._effective_cache
        effective = None
        if (self.binary or self.ternary) and (
            cached is None or cached[0] is not self.weights
        ):
            effective = np.empty(self.weights.shape, dtype=np.float32)
        # A fold copies the weights only where a BN gain is negative.
        folded = None
        if self.batch_normalize and bool(np.any(self.scales < 0)):
            folded = np.empty((self.filters, self.weights[0].size), np.float32)

        def job() -> None:
            self.effective_weights(out=effective)
            for in_scale in in_scales:
                self._band_kernel(in_scale, out=folded)
            if not in_scales:
                self._float_band_kernel(out=folded)

        return job

    def _thresholds_for(self, in_scale: float):
        """ThresholdActivation collapsing BN/bias + activation + to_levels.

        Only for binary layers with a quantized output: there every
        accumulator is an exact integer (±1 weights against integer level
        codes), so :func:`derive_thresholds` replaces the multi-pass float
        epilogue with one threshold pass.  ``leaky`` and ``linear`` are
        admissible alongside ``relu`` because the unsigned output quantizer
        clips negative pre-activations to level 0 either way.  Returns
        ``None`` when the layer does not qualify.
        """
        if not self.binary or self.out_quant is None:
            return None
        if self.activation not in ("linear", "relu", "leaky"):
            return None
        # Exactness bound for the float32 accumulation: every partial sum
        # stays an exact integer while |sum| < 2**24.
        fan_in = self.in_shape[0] * self.size * self.size
        if not accumulates_exactly(np.uint8, 1.0, fan_in):
            return None
        params = (
            self.biases, self.scales, self.rolling_mean, self.rolling_var
        )
        cached = self._threshold_cache
        if (
            cached is not None
            and cached[0] == float(in_scale)
            and all(a is b for a, b in zip(cached[1], params))
        ):
            return cached[2]
        if self.batch_normalize:
            thr = derive_thresholds(
                self.scales, self.biases, self.rolling_mean,
                self.rolling_var, in_scale=float(in_scale),
                out_scale=self.out_quant.scale, bits=self.out_quant.bits,
                eps=BN_EPS, fan_in=fan_in,
            )
        else:
            # Bias-only epilogue as identity-BN: gamma=1, mean=0, var=1.
            ones = np.ones(self.filters, dtype=np.float32)
            thr = derive_thresholds(
                ones, self.biases, np.zeros(self.filters, dtype=np.float32),
                ones, in_scale=float(in_scale),
                out_scale=self.out_quant.scale, bits=self.out_quant.bits,
                eps=0.0, fan_in=fan_in,
            )
        self._threshold_cache = (float(in_scale), params, thr)
        return thr

    def threshold_epilogue_eligible(self) -> bool:
        """Static mirror of :meth:`_thresholds_for`'s admissibility checks.

        True iff the layer's *configuration* guarantees the exact integer
        threshold epilogue exists for any quantized input: binary weights,
        a quantized output, an admissible activation, and accumulators
        provably below the float32 exact-integer bound.  The compiler uses
        this to decide whether the runtime will always take the integer
        path (and hence whether the epilogue can be split off as a
        standalone ``THRESHOLD`` instruction).
        """
        self._require_initialized()
        if not self.binary or self.out_quant is None:
            return False
        if self.activation not in ("linear", "relu", "leaky"):
            return False
        fan_in = self.in_shape[0] * self.size * self.size
        return accumulates_exactly(np.uint8, 1.0, fan_in)

    # -- split-epilogue entry points (the compiler's THRESHOLD lowering) ------
    #
    # Each pair below is the fused forward path cut at the accumulator /
    # pre-quantization boundary: the first half runs exactly the code the
    # fused path runs up to the cut, the second half exactly the code after
    # it, so (second ∘ first) is bit-identical to the whole layer by
    # construction.  The compiler only emits the ``acc`` pair where the
    # fused path provably takes the integer route (statically-quantized
    # input + ``threshold_epilogue_eligible``), and the ``pre`` pair where
    # it provably cannot (config-ineligible thresholds), so the runtime
    # path *choice* is preserved, not just each path's bits.

    def forward_batch_acc(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Raw integer accumulator half of the exact threshold epilogue.

        The returned batch carries the *input* scale so the paired
        :meth:`forward_batch_thresholds` re-derives the identical
        :class:`~repro.core.thresholds.ThresholdActivation`.
        """
        self._require_initialized()
        codes = narrow_codes(fmb.data)
        if codes is None:
            raise ValueError(
                f"[{self.ltype}] split accumulator needs integer level "
                f"codes; got dtype {fmb.data.dtype}"
            )
        acc = conv2d_batch(
            codes, self.effective_weights(), None, self.stride, self.pad
        )
        if codes is not fmb.data:
            workspace.release(codes)
        return FeatureMapBatch(acc, scale=fmb.scale)

    def forward_batch_thresholds(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Threshold half: accumulator -> ``uint8`` levels, one
        ``thr.apply`` per frame."""
        self._require_initialized()
        thr = self._thresholds_for(fmb.scale)
        if thr is None:
            raise ValueError(
                f"[{self.ltype}] has no exact threshold epilogue for "
                f"in_scale {fmb.scale}"
            )
        acc = fmb.data
        levels = workspace.empty(acc.shape, level_dtype(thr.bits))
        c = acc.shape[1]
        for i in range(acc.shape[0]):
            thr.apply(acc[i].reshape(c, -1), out=levels[i].reshape(c, -1))
        return FeatureMapBatch(levels, scale=self.out_quant.scale)

    def forward_batch_pre(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Float pre-quantization half: conv + BN/bias + activation."""
        self._require_initialized()
        z = self._convolve(fmb.data, fmb.scale)
        z = self._epilogue(z, channel_axis=1)
        return FeatureMapBatch(z)

    def forward_batch_to_levels(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Requantization half pairing :meth:`forward_batch_pre`."""
        self._require_initialized()
        if self.out_quant is None:
            raise ValueError(f"[{self.ltype}] has no output quantizer")
        levels = self.out_quant.to_levels(fmb.data)
        return FeatureMapBatch(levels, scale=self.out_quant.scale)

    def _band_kernel(self, in_scale: float, out=None):
        """The layer's :class:`BandKernel` for *in_scale*, or ``None``.

        Cached on the identity of the threshold table and the quantized
        weights, both of which are themselves rebuilt only when the
        parameters they derive from are rebound.  *out* is
        :meth:`BandKernel.fold`'s buffer for a sign-folded weight copy.
        """
        thr = self._thresholds_for(in_scale)
        if thr is None:
            return None
        weights = self.effective_weights()
        cached = self._band_cache
        if cached is not None and cached[0] is thr and cached[1] is weights:
            return cached[2]
        kernel = BandKernel.fold(
            weights.reshape(self.filters, -1), thr,
            self.in_shape[0], self.size, self.stride, self.pad, out=out,
        )
        self._band_cache = (thr, weights, kernel)
        return kernel

    def float_band_eligible(self) -> bool:
        """Static mirror of :meth:`_float_band_kernel`'s admissibility: a
        non-binary layer whose output is an unsigned quantizer of at most
        8 bits after a monotone ``linear``/``relu``/``leaky`` activation."""
        return not (
            self.binary
            or self.ternary
            or self.out_quant is None
            or self.out_quant.bits > 8
            or self.activation not in ("linear", "relu", "leaky")
        )

    def _float_band_kernel(self, out=None):
        """The float-input :class:`BandKernel` of a non-binary layer with
        an unsigned output quantizer, or ``None``.

        This is the paper's first layer (§III-D gives it a kernel of its
        own): float32 values against float weights, with BN + activation +
        quantizer folded into per-channel float32 thresholds the way the
        hidden layers fold theirs (§III-A).  The table is found by
        :func:`~repro.core.thresholds.bisect_thresholds` with this layer's
        own :meth:`_epilogue` and ``to_levels`` as the predicate, so it
        *is* that float epilogue for every float32 accumulator; each
        channel's sign is that of the BN gain as the epilogue computes it.
        Cached on the identity of the parameter arrays; *out* is
        :meth:`BandKernel.fold_float`'s buffer for the sign-folded weights.
        """
        if not self.float_band_eligible() or self.weights.dtype != np.float32:
            return None
        params = (
            self.weights, self.biases, self.scales, self.rolling_mean,
            self.rolling_var,
        )
        cached = self._float_band_cache
        if cached is not None and all(a is b for a, b in zip(cached[0], params)):
            return cached[1]
        signs = np.ones(self.filters, dtype=np.int8)
        if self.batch_normalize:
            # batchnorm_inference's gain, computed the same way.
            gain = self.scales / np.sqrt(self.rolling_var + BN_EPS)
            signs[gain < 0] = -1

        levels = np.arange(1, 1 << self.out_quant.bits)

        def reaches(acc: np.ndarray) -> np.ndarray:
            epilogue = self._epilogue(acc, channel_axis=0)
            return self.out_quant.to_levels(epilogue) >= levels

        kernel = BandKernel.fold_float(
            self.weights.reshape(self.filters, -1),
            signs,
            bisect_thresholds(reaches, signs, self.out_quant.bits),
            self.in_shape[0], self.size, self.stride, self.pad, out=out,
        )
        self._float_band_cache = (params, kernel)
        return kernel

    def forward_batch_pooled(self, fmb: FeatureMapBatch, pool=None):
        """conv (+ *pool*) on a :class:`BandKernel`, or ``None``.

        *pool* is an optional max-pool layer applied to the conv output in
        the same pass.  A binary layer runs the exact integer kernel on
        level codes; a non-binary quantized layer runs the float-input
        kernel of :meth:`_float_band_kernel` on the input's values.
        ``None`` means the layer or the input does not qualify (float
        output, non-level input to a binary layer) and nothing was
        computed.
        """
        self._require_initialized()
        pool = pool and (pool.size, pool.stride, pool.padding)
        kernel = self._band_kernel(fmb.scale)
        if kernel is not None:
            levels = kernel.run(fmb.data, pool)
        elif self.binary:
            return None
        else:
            kernel = self._float_band_kernel()
            if kernel is None:
                return None
            levels = kernel.run(fmb.values(), pool)
        if levels is None:
            return None
        return FeatureMapBatch(levels, scale=self.out_quant.scale)

    def _convolve(self, data, scale) -> np.ndarray:
        """The GEMM: integer codes as they are, LUT-dequantized level
        codes when possible, else values.

        All routes produce bit-identical float32 operands (a widened
        unit-scale code and the LUT both reproduce ``values()`` per
        element), so the result never depends on which one ran.
        """
        weights = self.effective_weights()
        if self.binary and accumulates_exactly(
            data.dtype, scale, weights[0].size
        ):
            # +-1 weights against unit-scale integer codes (a sign layer's
            # int8 output): exact accumulators, so a batch of narrow maps
            # may share one GEMM.
            return conv2d_batch(
                data, weights, None, self.stride, self.pad, exact=True
            )
        lut_in = _lut_conv_inputs(data, scale)
        if lut_in is not None:
            codes, lut = lut_in
            z = conv2d_batch(codes, weights, None, self.stride, self.pad, lut=lut)
            if codes is not data:
                workspace.release(codes)
            return z
        values = FeatureMapBatch(data, scale).values()
        return conv2d_batch(values, weights, None, self.stride, self.pad)

    def _epilogue(self, z: np.ndarray, channel_axis: int) -> np.ndarray:
        """BN (or bias) + activation, in place when dtypes allow.

        The in-place forms run the same elementwise ops in the same order
        and dtype as the out-of-place expressions, so they are
        bit-identical; mixed dtypes fall back to the allocating form.
        """
        if self.batch_normalize:
            if z.dtype == np.float32:  # all BN parameters are float32
                batchnorm_inference(
                    z, self.scales, self.biases, self.rolling_mean,
                    self.rolling_var, eps=BN_EPS, channel_axis=channel_axis,
                    out=z,
                )
            else:
                z = batchnorm_inference(
                    z, self.scales, self.biases, self.rolling_mean,
                    self.rolling_var, eps=BN_EPS, channel_axis=channel_axis,
                )
        else:
            shape = [1] * z.ndim
            shape[channel_axis] = -1
            b = self.biases.reshape(shape)
            if np.result_type(z.dtype, b.dtype) == z.dtype:
                z += b
            else:
                z = z + b
        if self.activation == "relu":
            np.maximum(z, 0, out=z)
        elif self.activation != "linear":
            pre = z
            z = ACTIVATIONS[self.activation](z)
            workspace.release(pre)
        return z

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        fused = self.forward_batch_pooled(fmb)
        if fused is not None:
            return fused
        out_c, out_h, out_w = self.out_shape
        frame_bytes = out_c * out_h * out_w * 4
        chunk = max(1, _CONV_BATCH_FRAME_BUDGET // max(1, frame_bytes))
        if chunk >= fmb.batch:
            return self._forward_batch_chunk(fmb)
        first = self._forward_batch_chunk(
            FeatureMapBatch(fmb.data[:chunk], fmb.scale)
        )
        out = workspace.empty(
            (fmb.batch,) + first.data.shape[1:], first.data.dtype
        )
        out[:chunk] = first.data
        workspace.release(first.data)
        for start in range(chunk, fmb.batch, chunk):
            stop = min(start + chunk, fmb.batch)
            part = self._forward_batch_chunk(
                FeatureMapBatch(fmb.data[start:stop], fmb.scale)
            )
            out[start:stop] = part.data
            workspace.release(part.data)
        return FeatureMapBatch(out, scale=first.scale)

    def _forward_batch_chunk(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        z = self._convolve(fmb.data, fmb.scale)
        z = self._epilogue(z, channel_axis=1)
        if self.out_quant is not None:
            levels = self.out_quant.to_levels(z)
            workspace.release(z)
            return FeatureMapBatch(levels, scale=self.out_quant.scale)
        return FeatureMapBatch(as_map_dtype(z))

    # -- accounting -------------------------------------------------------------

    def workload(self) -> LayerWorkload:
        """Table I convention: 2 ops (multiply + add) per kernel MAC."""
        self._require_initialized()
        c_in = self.in_shape[0]
        out_c, out_h, out_w = self.out_shape
        ops = 2 * self.size * self.size * c_in * out_c * out_h * out_w
        regime = "W1" if self.binary else "float/int8"
        return LayerWorkload(self.ltype, ops, note=regime)

    def num_params(self) -> int:
        self._require_initialized()
        count = self.weights.size + self.biases.size
        if self.batch_normalize:
            count += 3 * self.filters
        return count


__all__ = ["ConvolutionalLayer", "BN_EPS"]
