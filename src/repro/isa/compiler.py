"""The three-stage plan compiler: frontend → optimizer → backend.

* **frontend** (:func:`frontend`) lowers a network straight to an ISA
  :class:`~repro.isa.ops.Program` in SSA-style slot numbering, splitting
  requantization epilogues into standalone ``THRESHOLD`` instructions
  wherever the split is statically provable, and emitting **no**
  liveness — ``-O0`` is the naive keep-everything schedule.
* **optimizer** (:func:`optimize`) runs the ordered
  :data:`~repro.isa.passes.PIPELINES` for the requested ``-O`` level
  through a :class:`~repro.isa.passes.PassManager`, verifying slot
  liveness after every pass, and stamps the result with the level and
  applied pass list (serialized into the ``.rpb`` header).
* **backend** is :func:`repro.isa.bind.bind` + :class:`repro.isa.vm.
  PlanVM`, which understand the optimizer's vocabulary (parts,
  ``FUSED``, embedded releases, constants).

Split placement rules (the bit-identity contract):

* ``PART_ACC`` — only for a conv whose config guarantees the exact
  integer threshold epilogue (``threshold_epilogue_eligible``) **and**
  whose input is statically a ≤8-bit level map: the fused path provably
  always takes the integer route, and the split is that route cut at
  the accumulator.
* ``PART_PRE`` — only for a quantized-output conv that is *ineligible*
  for thresholds: the fused path provably always takes the float route,
  cut at the pre-quantization activation.
* No split otherwise — if the runtime route depends on the data, the
  layer stays whole.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.core.resources import CPU, FABRIC
from repro.engine.plan import INPUT, PlanStep
from repro.isa.bind import network_digests
from repro.isa.ops import (
    CONV,
    INPUT_SLOT,
    LOAD_INPUT,
    LTYPE_TO_OPCODE,
    OFFLOAD,
    PART_ACC,
    PART_PRE,
    STORE_OUTPUT,
    THRESHOLD,
    Instruction,
    LoweringError,
    Program,
)
from repro.isa.passes import (
    PIPELINES,
    PassStats,
    default_manager,
    static_quant_states,
)

#: The compiler's default ``-O`` level (serving and the CLIs use it).
DEFAULT_OPT_LEVEL = 2


def _opcode_for(step: PlanStep) -> int:
    opcode = LTYPE_TO_OPCODE.get(step.ltype)
    if opcode is not None:
        return opcode
    if step.resource == FABRIC:
        # Registered offload-style layer kinds are fabric calls by contract.
        return OFFLOAD
    raise LoweringError(
        f"step '{step.name}' [{step.ltype}] has no opcode in the fixed "
        f"op set (known: {sorted(LTYPE_TO_OPCODE)})"
    )


def frontend(
    network, name: str = "", digests: Optional[Tuple[str, str]] = None
) -> Program:
    """Lower *network* to a raw (unoptimized) ISA program.

    The one Network→Program path: slots are assigned sequentially per
    definition (splits define two), every compute instruction records
    the layer index it executes, and liveness is left entirely to the
    ``liveness`` pass.  *digests* is the network's ``(weights, cfg)``
    content-digest pair when the caller already has it (hashed here
    otherwise; :data:`~repro.isa.bind.NO_DIGESTS` for a program that
    never leaves the process).
    """
    plan = network.plan()
    if digests is None:
        digests = network_digests(network)
    states = static_quant_states(network)
    instructions: List[Instruction] = [
        Instruction(
            opcode=LOAD_INPUT,
            dest=INPUT_SLOT,
            shape=tuple(plan.input_shape),
            name="input",
        )
    ]
    slot_of = {INPUT: INPUT_SLOT}
    next_slot = 1
    for step in plan.steps:
        srcs = tuple(slot_of[producer] for producer in step.inputs)
        opcode = _opcode_for(step)
        layer = step.layer
        part = None
        if (
            opcode == CONV
            and step.resource == CPU
            and getattr(layer, "out_quant", None) is not None
            and hasattr(layer, "threshold_epilogue_eligible")
        ):
            if layer.threshold_epilogue_eligible():
                is_levels, _scale, bits = states[step.index]
                if is_levels and bits is not None and bits <= 8:
                    part = PART_ACC
            else:
                part = PART_PRE
        if part is None:
            dest = next_slot
            next_slot += 1
            instructions.append(
                Instruction(
                    opcode=opcode,
                    dest=dest,
                    srcs=srcs,
                    resource=step.resource,
                    shape=tuple(step.out_shape),
                    ops=int(step.ops),
                    name=step.name,
                    ltype=step.ltype,
                    layer=step.index,
                )
            )
        else:
            middle = next_slot
            dest = next_slot + 1
            next_slot += 2
            instructions.append(
                Instruction(
                    opcode=opcode,
                    dest=middle,
                    srcs=srcs,
                    resource=step.resource,
                    shape=tuple(step.out_shape),
                    ops=int(step.ops),
                    name=step.name,
                    ltype=step.ltype,
                    layer=step.index,
                    part=part,
                )
            )
            instructions.append(
                Instruction(
                    opcode=THRESHOLD,
                    dest=dest,
                    srcs=(middle,),
                    resource=step.resource,
                    shape=tuple(step.out_shape),
                    name=f"#{step.index:02d} threshold",
                    ltype="threshold",
                    layer=step.index,
                    part=part,
                )
            )
        slot_of[step.index] = dest
    instructions.append(
        Instruction(
            opcode=STORE_OUTPUT,
            dest=slot_of[plan.steps[-1].index],
            shape=tuple(plan.output_shape),
        )
    )
    return Program(
        network_name=name,
        weights_sha256=digests[0],
        cfg_sha256=digests[1],
        input_shape=tuple(plan.input_shape),
        output_shape=tuple(plan.output_shape),
        instructions=tuple(instructions),
    )


def optimize(
    program: Program,
    network=None,
    level: int = DEFAULT_OPT_LEVEL,
    verify: bool = True,
    validate: Optional[bool] = None,
) -> Tuple[Program, List[PassStats]]:
    """Run the ``-O{level}`` pipeline; stamps level + applied passes.

    *validate* switches the translation validator on: every pass must
    prove its rewrite semantics-preserving (:mod:`repro.analyze.tv`) or
    compilation aborts with a
    :class:`~repro.isa.passes.manager.TranslationValidationError`.  The
    default (``None``) validates at ``-O2`` and above — exactly where
    rewrites happen that plain slot-liveness verification cannot judge —
    and a successfully validated program carries the ``tv_ok``
    provenance marker into its serialized artifact.
    """
    if level not in PIPELINES:
        raise ValueError(
            f"unknown optimization level {level}; known: {sorted(PIPELINES)}"
        )
    if validate is None:
        validate = level >= 2
    manager = default_manager()
    program, stats = manager.run(
        program,
        PIPELINES[level],
        network=network,
        verify=verify,
        validate=validate,
    )
    return (
        replace(
            program,
            opt_level=level,
            passes=tuple(PIPELINES[level]),
            tv_ok=bool(validate),
        ),
        stats,
    )


def compile_network(
    network,
    name: str = "",
    level: int = DEFAULT_OPT_LEVEL,
    verify: bool = True,
    validate: Optional[bool] = None,
    digests: Optional[Tuple[str, str]] = None,
) -> Tuple[Program, List[PassStats]]:
    """frontend + optimizer in one call; content hashes included."""
    return optimize(
        frontend(network, name=name, digests=digests),
        network=network,
        level=level,
        verify=verify,
        validate=validate,
    )


__all__ = [
    "DEFAULT_OPT_LEVEL",
    "compile_network",
    "frontend",
    "optimize",
]
