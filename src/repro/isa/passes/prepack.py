"""``prepack`` — record compile-time weight/threshold warming constants.

The quantized-weight cache (``effective_weights``), the integer
threshold tables (``_thresholds_for``) and the band-kernel folds are
derived lazily on first forward, so a freshly bound plan pays the
derivation cost on its first frame.  This pass makes the derivation part
of the artifact: a ``(kind, layer, param)`` constant per derivable
cache, which :class:`repro.isa.vm.PlanVM` replays at bind time — a
cached ``.rpb`` starts with hot caches before the first frame arrives.
A ``weights`` constant names a layer with binary or ternary weights, or
a first layer whose float-input band kernel depends on its weights
alone.

Threshold constants need the layer's *input* quantization state, which
:func:`static_quant_states` derives statically (the same propagation
the frontend uses to place split epilogues — this module owns it so the
compiler and the pass agree by construction).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.isa.ops import Program
from repro.isa.passes.witness import AX_HEADER_CONSTANTS, Witness

#: Per-layer static input state ``(is_levels, scale, bits)``.
QuantState = Tuple[bool, Optional[float], Optional[int]]


def static_quant_states(network) -> List[QuantState]:
    """The statically known quantization state of each layer's *input*.

    ``(is_levels, scale, bits)``: whether the layer's input is provably
    an integer level map, and if so with what scale and bit width.
    Layers with an output quantizer produce levels; maxpool passes
    levels through unchanged (max over levels == max over values for a
    monotone scale); every other layer kind — route concats, region/
    softmax heads, offload spans — conservatively resets the state to
    unknown float.
    """
    states: List[QuantState] = []
    current: QuantState = (False, None, None)
    for layer in network.layers:
        states.append(current)
        out_quant = getattr(layer, "out_quant", None)
        if out_quant is not None:
            current = (True, float(out_quant.scale), int(out_quant.bits))
        elif layer.ltype != "maxpool":
            current = (False, None, None)
    return states


def prepack(program: Program, network=None) -> Tuple[Program, str, Witness]:
    if network is None:
        return program, "skipped: no network bound", Witness("prepack")
    states = static_quant_states(network)
    layers = list(network.layers)
    referenced = set()
    for instr in program.instructions:
        if not instr.is_compute:
            continue
        if instr.fused_layers:
            referenced.update(instr.fused_layers)
        elif instr.layer >= 0:
            referenced.add(instr.layer)
    constants = []
    for index in sorted(referenced):
        if not 0 <= index < len(layers):
            continue
        layer = layers[index]
        if hasattr(layer, "effective_weights") and (
            getattr(layer, "binary", False)
            or getattr(layer, "ternary", False)
            or (
                hasattr(layer, "float_band_eligible")
                and layer.float_band_eligible()
            )
        ):
            constants.append(("weights", index, 0.0))
        is_levels, scale, bits = states[index]
        if (
            is_levels
            and bits is not None
            and bits <= 8
            and hasattr(layer, "threshold_epilogue_eligible")
            and layer.threshold_epilogue_eligible()
        ):
            constants.append(("thresholds", index, float(scale)))
    constants = tuple(constants)
    if constants == program.constants:
        return program, "no derivable caches", Witness("prepack")
    return (
        replace(program, constants=constants),
        f"recorded {len(constants)} pre-pack constant(s)",
        Witness("prepack", axioms=(AX_HEADER_CONSTANTS,)),
    )


__all__ = ["QuantState", "prepack", "static_quant_states"]
