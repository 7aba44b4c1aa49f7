"""Accumulator overflow prover: worst-case interval bounds per plan step.

§III-D manages the 16-bit accumulator scale "so as to avoid destructive
numeric overflow in adding up the 27 products" — this pass turns that
argument into a machine-checked one.  For every matmul-bearing step it
computes the worst-case accumulator magnitude from the *actual* weights
and the input's level range, compares it against the accumulator the
kernel would use, and issues one of three verdicts:

* ``proved-safe`` — the bound fits; the saturating kernel can never
  clip, no matter what activations arrive (the tests cross-check this
  against the runtime saturation counters on a randomized corpus);
* ``saturation-possible`` — the worst case exceeds the int16 ceiling of
  :func:`repro.core.gemm.gemm_i8_acc16`; the kernel's replay path must
  stay enabled and the saturation counter is meaningful;
* ``error`` — the bound exceeds a non-saturating accumulator
  (:func:`repro.core.gemm.gemm_i8_acc32` *raises* past int32), so the
  layer can abort at runtime.

Bounds per path:

* **int8/acc16** (un-binarized conv/connected, the NEON custom path):
  weights quantized symmetric int8 exactly as
  :mod:`repro.neon.kernels` does, activations bounded by the uint8
  ceiling, per-product rounding shift included —
  ``sum_k (|w_k| * 255 + r) >> s`` via
  :func:`repro.core.gemm.acc16_worst_case_bound`.
* **binary popcount** (W1A1/W1A3 layers): ±1 weights make the
  accumulator a signed sum of K level codes, so ``K * max_level``
  against the int32 the MVTU model accumulates in.
* **gemmlowp/acc32** (the int8 input layer): ``K * 255 * 255`` against
  int32 via :func:`repro.core.gemm.acc32_worst_case_bound`.

Two entry points share the per-path bounds: :func:`prove_plan` walks an
unoptimized :class:`~repro.engine.plan.ExecutionPlan` step by step, and
:func:`prove_program` walks a (possibly optimized) ISA
:class:`~repro.isa.ops.Program` directly — ``FUSED`` chains are proved
constituent-by-constituent, split ``.acc``/``.pre`` requantization
halves are proved on the matmul half (the paired ``THRESHOLD``
owns no accumulator), and an instruction the prover has no model for
yields an explicit :data:`UNKNOWN` verdict (rendered as the
``OVF-UNKNOWN-OP`` warning) instead of silent omission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analyze.findings import ERROR, WARNING, Finding
from repro.core.gemm import acc16_worst_case_bound, acc32_worst_case_bound
from repro.core.quantize import AffineQuantizer
from repro.engine.plan import ExecutionPlan
from repro.neon.kernels import ACC16_PRESHIFT

PROVED_SAFE = "proved-safe"
SATURATION_POSSIBLE = "saturation-possible"
OVERFLOW_ERROR = "error"
#: The prover has no accumulator model for the instruction — explicitly
#: unproved, never silently skipped (:func:`prove_program` only).
UNKNOWN = "unknown"

#: Accumulator ceilings of the modeled datapaths.
INT16_MAX = np.iinfo(np.int16).max
INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class StepVerdict:
    """The prover's result for one plan step."""

    step_index: int
    name: str
    #: Which datapath was modeled: ``int8-acc16``, ``binary-popcount``,
    #: ``gemmlowp-acc32`` or ``none`` (no integer accumulator).
    path: str
    #: Worst-case accumulator magnitude (0 for path ``none``).
    bound: int
    #: The accumulator ceiling of the modeled path.
    limit: int
    verdict: str

    @property
    def headroom(self) -> float:
        """Fraction of the accumulator range the worst case leaves unused."""
        if self.limit == 0:
            return 1.0
        return 1.0 - self.bound / self.limit


def prove_plan(
    plan: ExecutionPlan, max_level: Optional[int] = None
) -> List[StepVerdict]:
    """Prove (or refute) accumulator safety for every step of *plan*.

    *max_level* caps the level codes assumed on quantized inputs; by
    default it is taken from each producer's quantizer (``2**bits - 1``,
    or 1 for bipolar ±1 maps).
    """
    verdicts: List[StepVerdict] = []
    producer_level: dict = {-1: 255}  # network input arrives as uint8 codes
    for step in plan.steps:
        layer = step.layer
        in_level = producer_level.get(step.inputs[0], 255)
        if step.ltype in ("convolutional", "connected"):
            verdicts.append(
                _prove_matmul(step.index, step.name, layer, in_level, max_level)
            )
        elif step.ltype == "offload":
            verdicts.append(
                _prove_offload(
                    step.index, step.name, layer, in_level, max_level
                )
            )
        else:
            verdicts.append(
                StepVerdict(step.index, step.name, "none", 0, 0, PROVED_SAFE)
            )
        producer_level[step.index] = _output_level(layer, in_level)
    return verdicts


def prove_program(
    program, network, max_level: Optional[int] = None
) -> List[StepVerdict]:
    """Prove accumulator safety over a (possibly optimized) ISA program.

    :func:`prove_plan` only understands the unoptimized step stream;
    this walks *program*'s instructions directly so optimizer output is
    covered too:

    * ``CONV``/``GEMM`` instructions — whole layers *and* split
      ``.acc``/``.pre`` requantization halves — run the matmul bound
      (the accumulator is identical either way; the paired
      ``THRESHOLD`` half applies thresholds and owns no accumulator);
    * ``FUSED`` chains are proved constituent-by-constituent with the
      level range chained through the constituents;
    * pass-through ops (``MAXPOOL``/``ROUTE``/``REGION``/``SOFTMAX``/
      ``THRESHOLD``) propagate the level range and are vacuously safe;
    * any instruction without a model — and any instruction whose layer
      binding cannot be resolved against *network* — yields an explicit
      :data:`UNKNOWN` verdict (the ``OVF-UNKNOWN-OP`` warning), never
      silent omission.
    """
    from repro.isa.ops import (
        CONV,
        FUSED,
        GEMM,
        INPUT_SLOT,
        LOAD_INPUT,
        MAXPOOL,
        OFFLOAD,
        REGION,
        ROUTE,
        SOFTMAX,
        THRESHOLD,
    )

    steps = {step.index: step for step in network.plan().steps}
    part_suffix = {1: ".acc", 2: ".pre"}  # PART_ACC / PART_PRE
    verdicts: List[StepVerdict] = []
    slot_level = {INPUT_SLOT: 255}  # network input arrives as uint8 codes
    for instr in program.instructions:
        if instr.opcode == LOAD_INPUT:
            slot_level[instr.dest] = 255
            continue
        if not instr.is_compute:
            continue
        in_level = (
            slot_level.get(instr.srcs[0], 255) if instr.srcs else 255
        )
        if instr.opcode == FUSED:
            level = in_level
            for layer_index in instr.fused_layers:
                step = steps.get(layer_index)
                if step is None:
                    verdicts.append(
                        StepVerdict(
                            layer_index, instr.name or "fused",
                            "fused(unbound)", 0, 0, UNKNOWN,
                        )
                    )
                    continue
                name = f"{step.name} (fused)"
                if step.ltype in ("convolutional", "connected"):
                    verdicts.append(
                        _prove_matmul(
                            step.index, name, step.layer, level, max_level
                        )
                    )
                else:
                    verdicts.append(
                        StepVerdict(
                            step.index, name, "none", 0, 0, PROVED_SAFE
                        )
                    )
                level = _output_level(step.layer, level)
            slot_level[instr.dest] = level
            continue
        step = steps.get(instr.layer)
        if step is None:
            verdicts.append(
                StepVerdict(
                    instr.layer,
                    instr.name or instr.mnemonic.lower(),
                    instr.mnemonic.lower(),
                    0,
                    0,
                    UNKNOWN,
                )
            )
            slot_level[instr.dest] = in_level
            continue
        layer = step.layer
        out_level = _output_level(layer, in_level)
        if instr.opcode in (CONV, GEMM):
            name = step.name + part_suffix.get(instr.part, "")
            verdicts.append(
                _prove_matmul(step.index, name, layer, in_level, max_level)
            )
        elif instr.opcode == OFFLOAD:
            verdicts.append(
                _prove_offload(
                    step.index, step.name, layer, in_level, max_level
                )
            )
        elif instr.opcode == THRESHOLD:
            # The requantization half: pure thresholding, no accumulator.
            name = step.name + part_suffix.get(instr.part, "")
            verdicts.append(
                StepVerdict(step.index, name, "none", 0, 0, PROVED_SAFE)
            )
        elif instr.opcode in (MAXPOOL, ROUTE, REGION, SOFTMAX):
            verdicts.append(
                StepVerdict(step.index, step.name, "none", 0, 0, PROVED_SAFE)
            )
        else:
            verdicts.append(
                StepVerdict(
                    step.index,
                    step.name,
                    instr.mnemonic.lower(),
                    0,
                    0,
                    UNKNOWN,
                )
            )
        slot_level[instr.dest] = out_level
    return verdicts


def verdict_findings(
    verdicts: List[StepVerdict], label: str = ""
) -> List[Finding]:
    """Render non-safe verdicts as findings on the shared model.

    *label* prefixes the location so plan-level and program-level runs
    of the same network stay distinguishable in one findings list.
    """
    findings: List[Finding] = []
    for v in verdicts:
        where = f"{label}step {v.name}" if label else f"step {v.name}"
        if v.verdict == OVERFLOW_ERROR:
            findings.append(
                Finding(
                    ERROR,
                    "OV-ACC32-OVERFLOW",
                    where,
                    f"worst-case accumulator {v.bound:,} exceeds the "
                    f"non-saturating int32 ceiling {v.limit:,} on the "
                    f"{v.path} path; the kernel raises OverflowError",
                    hint="reduce K per accumulation chunk or requantize "
                    "the operands narrower",
                )
            )
        elif v.verdict == SATURATION_POSSIBLE:
            findings.append(
                Finding(
                    WARNING,
                    "OV-ACC16-SAT",
                    where,
                    f"worst-case accumulator {v.bound:,} exceeds the int16 "
                    f"ceiling {v.limit:,} on the {v.path} path; saturation "
                    f"is possible",
                    hint="keep the saturating kernel's replay path enabled "
                    "and watch its overflow counter",
                )
            )
        elif v.verdict == UNKNOWN:
            findings.append(
                Finding(
                    WARNING,
                    "OVF-UNKNOWN-OP",
                    where,
                    f"no accumulator model for this instruction "
                    f"({v.path}); overflow safety is unproved",
                    hint="extend repro.analyze.overflow.prove_program "
                    "with a bound for this opcode",
                )
            )
    return findings


# -- per-path bounds ----------------------------------------------------------


def _input_level(layer, chain_level: int, max_level: Optional[int]) -> int:
    level = chain_level
    if max_level is not None:
        level = min(level, max_level)
    return max(1, level)


def _output_level(layer, in_level: int) -> int:
    """Level-code ceiling of *layer*'s output buffer."""
    out_quant = getattr(layer, "out_quant", None)
    if out_quant is not None:
        return int(out_quant.levels)
    if getattr(layer, "activation", None) == "sign":
        return 1  # bipolar ±1
    if layer.ltype in ("maxpool", "route", "reorg"):
        return in_level  # level codes pass through unchanged
    return 255  # float maps re-enter the int8 path as uint8 codes


def _prove_matmul(
    index: int,
    name: str,
    layer,
    chain_level: int,
    max_level: Optional[int],
) -> StepVerdict:
    k = int(np.prod(layer.weights.shape[1:]))
    if getattr(layer, "binary", False) or getattr(layer, "ternary", False):
        # ±1 (or ±1/0) weights: |acc| <= K * max input level.  The MVTU
        # model accumulates in int32; K*7 never comes close for any
        # network that fits a real fabric.
        level = _input_level(layer, chain_level, max_level)
        bound = k * level
        verdict = PROVED_SAFE if bound <= INT32_MAX else SATURATION_POSSIBLE
        return StepVerdict(
            index, name, "binary-popcount", bound, INT32_MAX, verdict
        )
    # Un-binarized layer: model the NEON custom path — weights quantized
    # symmetric int8 (exactly as repro.neon.kernels does), activations
    # uint8, one rounding right shift by ACC16_PRESHIFT per product, a
    # saturating int16 accumulator.
    weights = np.asarray(layer.weights, dtype=np.float64).reshape(
        layer.weights.shape[0], -1
    )
    w_quant = AffineQuantizer.symmetric(
        float(np.abs(weights).max()) or 1.0, bits=8
    )
    codes = w_quant.to_levels(weights).astype(np.int64)
    bound = acc16_worst_case_bound(
        codes.T, a_max=255, pre_shift=ACC16_PRESHIFT
    )
    verdict = PROVED_SAFE if bound <= INT16_MAX else SATURATION_POSSIBLE
    # The same layer's first-pass gemmlowp variant uses acc32 without
    # saturation; a provable int32 breach is a hard error.
    acc32 = acc32_worst_case_bound(k, 255, 127)
    if acc32 > INT32_MAX:
        return StepVerdict(
            index, name, "gemmlowp-acc32", acc32, INT32_MAX, OVERFLOW_ERROR
        )
    return StepVerdict(index, name, "int8-acc16", bound, INT16_MAX, verdict)


def _prove_offload(
    index: int,
    name: str,
    layer,
    chain_level: int,
    max_level: Optional[int],
) -> StepVerdict:
    """Bound every offloaded MVTU stage; the worst stage is the verdict."""
    accelerator = getattr(getattr(layer, "backend", None), "accelerator", None)
    stages = list(getattr(accelerator, "stages", []) or [])
    if not stages:
        return StepVerdict(index, name, "none", 0, 0, PROVED_SAFE)
    level = _input_level(layer, chain_level, max_level)
    worst = 0
    for stage in stages:
        k = stage.conv.mvtu.geometry.cols
        worst = max(worst, k * level)
        bits = stage.conv.mvtu.thresholds.bits
        level = (1 << bits) - 1
    verdict = PROVED_SAFE if worst <= INT32_MAX else SATURATION_POSSIBLE
    return StepVerdict(
        index, name, "binary-popcount", worst, INT32_MAX, verdict
    )


__all__ = [
    "PROVED_SAFE",
    "SATURATION_POSSIBLE",
    "OVERFLOW_ERROR",
    "UNKNOWN",
    "INT16_MAX",
    "INT32_MAX",
    "StepVerdict",
    "prove_plan",
    "prove_program",
    "verdict_findings",
]
