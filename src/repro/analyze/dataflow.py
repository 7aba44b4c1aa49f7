"""Plan dataflow verifier: abstract interpretation over an ExecutionPlan.

The cfg-text linter reasons about *declared* topology; this pass reasons
about the *compiled* network — it walks the plan's explicit dataflow
edges and propagates an abstract value ``(shape, domain, bits,
value-interval, scale)`` through every step using the actual loaded
weights, BN statistics and quantizer parameters.  That is what lets it
catch the contract breaks the paper's arithmetic depends on (§III-A):

* a binarized stage consuming an unquantized float feature map
  (``DF-UNQUANT-BINARY``) — the fabric streams level codes, not floats;
* an offload bundle's threshold table that is non-monotone in its
  comparison direction (``DF-THRESH-MONOTONE``) — it cannot have come
  out of a faithful BN+ReLU+requantize folding, which bisects a monotone
  predicate, so only the bundle's outside bytes can carry one;
* route/reorg geometry that does not compose (``DF-SHAPE``);
* an offload whose producer scale disagrees with the scale the backend
  was exported for (``DF-SCALE-CHAIN``);
* an activation interval that tops out the quantizer's representable
  range (``DF-RANGE-CLIP``) or a requantizer whose output interval
  escapes ``out_bits`` (``DF-REQUANT-CLIP``).

All value intervals are *sound over-approximations*: per-channel worst
cases through the convolution (``w+ * hi + w- * lo``), exact affine maps
through batch norm, endpoint maps through the monotone activations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analyze.findings import ERROR, INFO, WARNING, Finding
from repro.core.gemm import RequantizeParams, rounding_rshift
from repro.core.tensor import conv_output_size, pool_output_size
from repro.core.thresholds import monotone_violations
from repro.engine.plan import INPUT, ExecutionPlan, PlanStep
from repro.nn.layers.convolutional import BN_EPS

#: Abstract domains: what the buffer's numbers *are*.
FLOAT = "float"      # plain float values
LEVELS = "levels"    # unsigned level codes with a quantization scale
BIPOLAR = "bipolar"  # BinaryNet-style ±1 values (the W1A1 regime)


@dataclass(frozen=True)
class AbstractValue:
    """What the verifier knows about one buffer without running anything."""

    shape: Tuple[int, int, int]
    domain: str
    lo: float
    hi: float
    bits: Optional[int] = None
    scale: Optional[float] = None

    def quantized(self) -> bool:
        return self.domain in (LEVELS, BIPOLAR)


def verify_plan(
    plan: ExecutionPlan,
    input_interval: Tuple[float, float] = (0.0, 1.0),
) -> List[Finding]:
    """Run the abstract interpretation; returns the findings (never raises).

    *input_interval* is the assumed value range of the network input
    (images are letterboxed into ``[0, 1]``).
    """
    return _interpret(plan, input_interval)[1]


def abstract_values(
    plan: ExecutionPlan,
    input_interval: Tuple[float, float] = (0.0, 1.0),
) -> Dict[int, AbstractValue]:
    """What :func:`verify_plan` derives about every buffer of *plan*,
    keyed by the producing step's index (``INPUT`` for the network input)
    — the static types a run's real arrays can be checked against."""
    return _interpret(plan, input_interval)[0]


def _interpret(
    plan: ExecutionPlan, input_interval: Tuple[float, float]
) -> Tuple[Dict[int, AbstractValue], List[Finding]]:
    findings: List[Finding] = []
    state: Dict[int, AbstractValue] = {
        INPUT: AbstractValue(
            shape=tuple(plan.input_shape),
            domain=FLOAT,
            lo=float(input_interval[0]),
            hi=float(input_interval[1]),
        )
    }
    for step in plan.steps:
        inputs = []
        for buffer_id in step.inputs:
            value = state.get(buffer_id)
            if value is None:  # a corrupted plan: edge to a missing buffer
                findings.append(
                    Finding(
                        ERROR,
                        "DF-SHAPE",
                        _where(step),
                        f"input edge references unknown buffer {buffer_id}",
                    )
                )
                value = AbstractValue((0, 0, 0), FLOAT, 0.0, 0.0)
            inputs.append(value)
        out = _transfer(step, inputs, findings)
        if tuple(out.shape) != tuple(step.out_shape):
            findings.append(
                Finding(
                    ERROR,
                    "DF-SHAPE",
                    _where(step),
                    f"step declares output {tuple(step.out_shape)} but the "
                    f"layer produces {tuple(out.shape)}",
                    hint="the plan no longer matches its layers; recompile "
                    "with compile_plan()",
                )
            )
            out = replace(out, shape=tuple(step.out_shape))
        state[step.index] = out
    return state, findings


def check_requantizer(
    params: RequantizeParams,
    acc_lo: int,
    acc_hi: int,
    where: str = "requantizer",
) -> List[Finding]:
    """Check a fixed-point requantizer against an accumulator interval.

    Maps both interval endpoints through the *unclipped* requantization
    (``rounding_rshift(acc * multiplier, shift) + zero_point``) and
    reports ``DF-REQUANT-CLIP`` when the result escapes the ``out_bits``
    range — the saturate() in :meth:`RequantizeParams.apply` would then
    actively destroy information, which a well-calibrated scale never
    does.
    """
    lo_q = int(rounding_rshift(acc_lo * params.multiplier, params.shift))
    hi_q = int(rounding_rshift(acc_hi * params.multiplier, params.shift))
    lo_q, hi_q = min(lo_q, hi_q) + params.zero_point, max(lo_q, hi_q) + params.zero_point
    if params.out_signed:
        rep_lo = -(1 << (params.out_bits - 1))
        rep_hi = (1 << (params.out_bits - 1)) - 1
    else:
        rep_lo, rep_hi = 0, (1 << params.out_bits) - 1
    findings: List[Finding] = []
    if hi_q > rep_hi or lo_q < rep_lo:
        findings.append(
            Finding(
                WARNING,
                "DF-REQUANT-CLIP",
                where,
                f"requantized interval [{lo_q}, {hi_q}] exceeds the "
                f"{params.out_bits}-bit output range [{rep_lo}, {rep_hi}]",
                hint="recalibrate the requantization scale so the "
                "accumulator range maps inside out_bits",
            )
        )
    return findings


# -- per-layer transfer functions ---------------------------------------------


def _where(step: PlanStep) -> str:
    return f"step {step.name}"


def _transfer(
    step: PlanStep, inputs: List[AbstractValue], findings: List[Finding]
) -> AbstractValue:
    layer = step.layer
    ltype = step.ltype
    if ltype in ("convolutional", "connected"):
        return _transfer_matmul(step, layer, inputs[0], findings)
    if ltype == "maxpool":
        c, h, w = inputs[0].shape
        shape = (
            c,
            pool_output_size(h, layer.size, layer.stride, layer.padding),
            pool_output_size(w, layer.size, layer.stride, layer.padding),
        )
        return replace(inputs[0], shape=shape)
    if ltype == "route":
        return _transfer_route(step, inputs, findings)
    if ltype == "reorg":
        return _transfer_reorg(step, inputs[0], findings)
    if ltype == "softmax":
        return AbstractValue(inputs[0].shape, FLOAT, 0.0, 1.0)
    if ltype == "offload":
        return _transfer_offload(step, layer, inputs[0], findings)
    # region and any unknown layer: conservative float pass-through.
    return AbstractValue(
        tuple(step.out_shape), FLOAT, min(inputs[0].lo, 0.0), max(inputs[0].hi, 1.0)
    )


def _transfer_matmul(
    step: PlanStep, layer, x: AbstractValue, findings: List[Finding]
) -> AbstractValue:
    quantized_weights = bool(getattr(layer, "binary", False)) or bool(
        getattr(layer, "ternary", False)
    )
    if quantized_weights and x.domain == FLOAT and step.index > 0:
        findings.append(
            Finding(
                WARNING,
                "DF-UNQUANT-BINARY",
                _where(step),
                "binarized layer consumes an unquantized float feature map; "
                "the fabric streams level codes (§III-A W1A3 contract)",
                hint="set activation_bits on the producing layer or use a "
                "sign activation upstream",
            )
        )
    # Output geometry re-derivation.
    if step.ltype == "convolutional":
        c, h, w = x.shape
        shape = (
            layer.filters,
            conv_output_size(h, layer.size, layer.stride, layer.pad),
            conv_output_size(w, layer.size, layer.stride, layer.pad),
        )
        weights = layer.effective_weights().reshape(layer.filters, -1)
    else:
        shape = (layer.output, 1, 1)
        weights = layer.effective_weights()
    # Per-channel worst-case pre-activation interval from the real weights.
    w64 = np.asarray(weights, dtype=np.float64)
    wpos = np.clip(w64, 0.0, None).sum(axis=1)
    wneg = np.clip(w64, None, 0.0).sum(axis=1)
    z_hi = wpos * x.hi + wneg * x.lo
    z_lo = wpos * x.lo + wneg * x.hi
    if layer.batch_normalize:
        slope = np.asarray(layer.scales, np.float64) / np.sqrt(
            np.asarray(layer.rolling_var, np.float64) + BN_EPS
        )
        intercept = np.asarray(layer.biases, np.float64) - slope * np.asarray(
            layer.rolling_mean, np.float64
        )
        y_a = slope * z_lo + intercept
        y_b = slope * z_hi + intercept
        y_lo, y_hi = np.minimum(y_a, y_b), np.maximum(y_a, y_b)
    else:
        bias = np.asarray(layer.biases, np.float64)
        y_lo, y_hi = z_lo + bias, z_hi + bias
    lo, hi = float(y_lo.min()), float(y_hi.max())
    lo, hi = _apply_activation(layer.activation, lo, hi)
    if layer.activation == "sign":
        return AbstractValue(shape, BIPOLAR, -1.0, 1.0, bits=1)
    out_quant = getattr(layer, "out_quant", None)
    if out_quant is not None:
        if hi > out_quant.max_value:
            findings.append(
                Finding(
                    INFO,
                    "DF-RANGE-CLIP",
                    _where(step),
                    f"worst-case activation {hi:.3g} exceeds the "
                    f"{out_quant.bits}-bit quantizer ceiling "
                    f"{out_quant.max_value:.3g}; the top level clips",
                    hint="widen activation_scale or retrain toward the "
                    "representable range",
                )
            )
        return AbstractValue(
            shape,
            LEVELS,
            max(lo, 0.0),
            min(max(hi, 0.0), out_quant.max_value),
            bits=out_quant.bits,
            scale=out_quant.scale,
        )
    return AbstractValue(shape, FLOAT, lo, hi)


def _apply_activation(activation: str, lo: float, hi: float) -> Tuple[float, float]:
    if activation == "relu":
        return max(lo, 0.0), max(hi, 0.0)
    if activation == "leaky":
        f = lambda v: v if v > 0 else 0.1 * v  # noqa: E731 — monotone endpoint map
        return f(lo), f(hi)
    return lo, hi  # linear / sign (sign handled by the caller)


def _transfer_route(
    step: PlanStep, inputs: List[AbstractValue], findings: List[Finding]
) -> AbstractValue:
    # inputs[0] is the chain predecessor; the route reads its history
    # dependencies (inputs[1:]) — those are what gets concatenated.
    sources = inputs[1:] if len(inputs) > 1 else inputs
    spatial = {(s.shape[1], s.shape[2]) for s in sources}
    if len(spatial) != 1:
        findings.append(
            Finding(
                ERROR,
                "DF-SHAPE",
                _where(step),
                f"route sources disagree on spatial size: "
                f"{[s.shape for s in sources]}",
            )
        )
        return AbstractValue(tuple(step.out_shape), FLOAT, 0.0, 0.0)
    channels = sum(s.shape[0] for s in sources)
    shape = (channels, sources[0].shape[1], sources[0].shape[2])
    lo = min(s.lo for s in sources)
    hi = max(s.hi for s in sources)
    domains = {s.domain for s in sources}
    scales = {s.scale for s in sources}
    if domains == {LEVELS} and len(scales) == 1:
        return AbstractValue(
            shape, LEVELS, lo, hi,
            bits=max(s.bits or 0 for s in sources),
            scale=sources[0].scale,
        )
    if len(domains) > 1 or (domains == {LEVELS} and len(scales) > 1):
        findings.append(
            Finding(
                INFO,
                "DF-SCALE-CHAIN",
                _where(step),
                "route concatenates sources with mixed quantization "
                "scales/domains; the concat falls back to float values",
                hint="align activation_scale across the routed branches to "
                "keep the map level-coded",
            )
        )
    if domains == {BIPOLAR}:
        return AbstractValue(shape, BIPOLAR, lo, hi, bits=1)
    return AbstractValue(shape, FLOAT, lo, hi)


def _transfer_reorg(
    step: PlanStep, x: AbstractValue, findings: List[Finding]
) -> AbstractValue:
    c, h, w = x.shape
    s = step.layer.stride
    if h % s or w % s:
        findings.append(
            Finding(
                ERROR,
                "DF-SHAPE",
                _where(step),
                f"reorg input {h}x{w} is not divisible by stride {s}",
            )
        )
        return replace(x, shape=tuple(step.out_shape))
    return replace(x, shape=(c * s * s, h // s, w // s))


def _transfer_offload(
    step: PlanStep, layer, x: AbstractValue, findings: List[Finding]
) -> AbstractValue:
    backend = getattr(layer, "backend", None)
    meta = getattr(backend, "_meta", None) or {}
    expected_scale = meta.get("input_scale")
    if expected_scale is not None:
        if x.domain != LEVELS or x.scale is None:
            findings.append(
                Finding(
                    ERROR,
                    "DF-UNQUANT-BINARY",
                    _where(step),
                    "fabric offload consumes a non-level-coded feature map",
                    hint="the producer must emit level codes "
                    "(activation_bits) at the backend's exported scale",
                )
            )
        elif not np.isclose(x.scale, expected_scale, rtol=1e-6):
            findings.append(
                Finding(
                    ERROR,
                    "DF-SCALE-CHAIN",
                    _where(step),
                    f"producer scale {x.scale!r} does not match the scale "
                    f"the backend was exported for ({expected_scale!r})",
                    hint="re-export the offload bundle or fix the "
                    "producer's activation_scale",
                )
            )
    accelerator = getattr(backend, "accelerator", None)
    out_scale = None
    for index, stage in enumerate(getattr(accelerator, "stages", []) or []):
        thresholds = stage.conv.mvtu.thresholds
        bad = monotone_violations(thresholds.thresholds, thresholds.signs)
        if bad.size:
            findings.append(
                Finding(
                    ERROR,
                    "DF-THRESH-MONOTONE",
                    f"{_where(step)} stage {index}",
                    f"offloaded stage's threshold table is non-monotone in "
                    f"{bad.size} channel(s) (first: {int(bad[0])})",
                    hint="the exported binparam bundle is corrupt",
                )
            )
        out_scale = stage.conv.out_scale
    if out_scale is not None:
        bits = getattr(
            getattr(accelerator.stages[-1].conv.mvtu, "thresholds", None),
            "bits",
            None,
        )
        levels = ((1 << bits) - 1) if bits else 0
        return AbstractValue(
            tuple(step.out_shape), LEVELS, 0.0, levels * out_scale,
            bits=bits, scale=out_scale,
        )
    return AbstractValue(tuple(step.out_shape), FLOAT, x.lo, x.hi)


__all__ = [
    "FLOAT",
    "LEVELS",
    "BIPOLAR",
    "abstract_values",
    "AbstractValue",
    "verify_plan",
    "check_requantizer",
]
