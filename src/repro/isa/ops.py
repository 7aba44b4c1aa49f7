"""The plan ISA: a small fixed op set over buffer slots.

A compiled network is a **program** — a flat, versioned stream of
:class:`Instruction` records over numbered buffer *slots* — which is
what :class:`repro.isa.vm.PlanVM` executes, and which can also be
serialized (:mod:`repro.isa.encode`), disassembled
(:mod:`repro.isa.disasm`) and statically verified
(:mod:`repro.analyze.isa`).

Slot numbering: slot ``0`` is the network input; every other slot is
defined by exactly one instruction, which names the network layer it
executes in its ``layer`` field.  The stream is in execution order:

* ``LOAD_INPUT`` binds the incoming feature-map batch to slot 0;
* compute instructions (``CONV`` / ``GEMM`` / ``MAXPOOL`` / ``OFFLOAD`` /
  ``ROUTE`` / ``REGION`` / ``SOFTMAX``), carrying the layer's resource
  tag (CPU/FABRIC), dtype/shape metadata and per-frame op count;
* ``RELEASE`` makes slot death explicit — the VM recycles the slot's
  backing buffer through the :class:`~repro.engine.arena.Arena`;
* ``STORE_OUTPUT`` names the slot whose contents are the program result.

Format version 2 adds the optimizing compiler's vocabulary
(:mod:`repro.isa.compiler` / :mod:`repro.isa.passes`):

* ``THRESHOLD`` — the requantization half of a split layer epilogue,
  emitted by the frontend and folded back by the ``fold-requant`` pass;
* ``FUSED`` — a short CPU layer chain (conv→maxpool, gemm→softmax)
  executed as one instruction by the fused kernel path;
* per-instruction ``layer``/``part``/``fused_layers`` binding metadata
  and embedded ``releases`` (the liveness pass's slot death points);
* per-program ``opt_level``, applied ``passes`` and pre-packed
  ``constants`` in the header.

``PACK`` remains reserved (bit-packing as a standalone stream op); the
encoders, decoders and the disassembler handle it so artifacts stay
forward-compatible with that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.resources import CPU, FABRIC

#: Serialization format version; :func:`repro.isa.encode.decode` refuses
#: any other value (cross-version headers never half-load).  Version 2
#: added the optimizer metadata: instruction ``layer``/``part``/
#: ``fused_layers``/``releases`` fields, the ``FUSED`` opcode, and the
#: ``opt_level``/``passes``/``constants`` header records.  Version 3
#: changed what ``weights_hash`` means: the root of
#: :func:`repro.isa.bind.weights_digest`'s tree over 1 MiB leaves, where
#: version 2 stored one flat sha256 of the stream.
FORMAT_VERSION = 3

#: The network input's slot id (plan buffer ``INPUT`` maps here).
INPUT_SLOT = 0

# -- opcodes -----------------------------------------------------------------

LOAD_INPUT = 0x01
PACK = 0x02
GEMM = 0x03
CONV = 0x04
THRESHOLD = 0x05
MAXPOOL = 0x06
OFFLOAD = 0x07
ROUTE = 0x08
RELEASE = 0x09
STORE_OUTPUT = 0x0A
REGION = 0x0B
SOFTMAX = 0x0C
FUSED = 0x0D

#: Opcode -> mnemonic, the disassembler's vocabulary.
OPCODE_NAMES: Dict[int, str] = {
    LOAD_INPUT: "LOAD_INPUT",
    PACK: "PACK",
    GEMM: "GEMM",
    CONV: "CONV",
    THRESHOLD: "THRESHOLD",
    MAXPOOL: "MAXPOOL",
    OFFLOAD: "OFFLOAD",
    ROUTE: "ROUTE",
    RELEASE: "RELEASE",
    STORE_OUTPUT: "STORE_OUTPUT",
    REGION: "REGION",
    SOFTMAX: "SOFTMAX",
    FUSED: "FUSED",
}

# -- instruction parts (the requantization split) ----------------------------
#
# A layer with a quantized output can be split into a raw compute half and
# a standalone requantization ``THRESHOLD`` instruction.  ``part`` names
# which half an instruction executes; the split is only emitted where the
# compiler can statically prove both halves compose bit-identically to the
# whole layer (see :mod:`repro.isa.compiler`).

#: The whole layer (the only part value of unsplit instructions).
PART_WHOLE = 0
#: Integer-accumulator half: the raw conv accumulator of the exact
#: threshold epilogue (paired ``THRESHOLD`` applies the thresholds).
PART_ACC = 1
#: Float pre-quantization half: conv + BN/bias + activation (paired
#: ``THRESHOLD`` applies the output quantizer's ``to_levels``).
PART_PRE = 2

#: All valid ``Instruction.part`` values.
PART_VALUES = frozenset((PART_WHOLE, PART_ACC, PART_PRE))

#: Mnemonic -> opcode (assembler direction).
NAME_TO_OPCODE: Dict[str, int] = {
    name: code for code, name in OPCODE_NAMES.items()
}

#: Opcodes that execute a layer (everything except the three pseudo-ops).
COMPUTE_OPCODES = frozenset(
    OPCODE_NAMES
) - {LOAD_INPUT, RELEASE, STORE_OUTPUT}

#: Layer ``ltype`` -> compute opcode.  Unknown FABRIC-tagged layer kinds
#: (registered offload-style subclasses) lower to ``OFFLOAD``; unknown
#: CPU kinds are a lowering error — the fixed op set is the contract.
LTYPE_TO_OPCODE: Dict[str, int] = {
    "convolutional": CONV,
    "conv": CONV,
    "maxpool": MAXPOOL,
    "connected": GEMM,
    "offload": OFFLOAD,
    "route": ROUTE,
    "reorg": ROUTE,
    "region": REGION,
    "softmax": SOFTMAX,
}

#: Resource tag <-> instruction flag byte.
RESOURCE_FLAGS: Dict[str, int] = {CPU: 0, FABRIC: 1}
FLAG_RESOURCES: Dict[int, str] = {0: CPU, 1: FABRIC}


class IsaError(Exception):
    """Base of every ISA failure (lowering, encoding, binding)."""


class LoweringError(IsaError):
    """The plan cannot be expressed in the fixed op set."""


class EncodeError(IsaError):
    """The program cannot be serialized (field out of encodable range)."""


class DecodeError(IsaError):
    """The byte stream is not a readable program (truncated, corrupted,
    wrong magic, or a format version this build does not speak)."""


class BindError(IsaError):
    """The program does not match the network it is being bound to."""


@dataclass(frozen=True)
class Instruction:
    """One ISA instruction.

    ``dest`` is the slot written (compute ops, ``LOAD_INPUT``) or
    operated on (``RELEASE`` frees it, ``STORE_OUTPUT`` publishes it);
    ``srcs`` are the slots read, chain predecessor first.  ``shape`` is
    the frame shape of ``dest``; ``ops`` the per-frame operation count
    (Table I accounting); ``name``/``ltype`` echo the plan step and label
    the VM's instrumentation rows.

    Optimizer metadata (format version 2):

    * ``layer`` — index of the network layer this instruction executes
      (``-1`` for pseudo-ops and for ``FUSED`` instructions, whose
      constituents live in ``fused_layers``); slot numbering is free to
      diverge from layer order once passes rewrite the stream, so
      binding goes through this field only — a compute instruction
      without a valid one is refused, never guessed from its slot.
    * ``part`` — which half of a split requantization epilogue this
      instruction runs (:data:`PART_WHOLE`/:data:`PART_ACC`/
      :data:`PART_PRE`).
    * ``fused_layers`` — the constituent layer indices of a ``FUSED``
      chain, in execution order.
    * ``releases`` — slots whose backing buffers die right after this
      instruction (the liveness pass's embedded form of ``RELEASE``).
    """

    opcode: int
    dest: int
    srcs: Tuple[int, ...] = ()
    resource: str = CPU
    shape: Tuple[int, int, int] = (0, 0, 0)
    ops: int = 0
    name: str = ""
    ltype: str = ""
    layer: int = -1
    part: int = PART_WHOLE
    fused_layers: Tuple[int, ...] = ()
    releases: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.opcode not in OPCODE_NAMES:
            raise ValueError(f"unknown opcode 0x{self.opcode:02x}")
        if self.resource not in RESOURCE_FLAGS:
            raise ValueError(f"unknown resource {self.resource!r}")
        if self.dest < 0 or any(s < 0 for s in self.srcs):
            raise ValueError("slot ids are non-negative")
        if self.layer < -1:
            raise ValueError("layer index is -1 (unbound) or non-negative")
        if self.part not in PART_VALUES:
            raise ValueError(f"unknown instruction part {self.part}")
        if any(l < 0 for l in self.fused_layers):
            raise ValueError("fused layer indices are non-negative")
        if any(s < 0 for s in self.releases):
            raise ValueError("released slot ids are non-negative")

    @property
    def mnemonic(self) -> str:
        return OPCODE_NAMES[self.opcode]

    @property
    def is_compute(self) -> bool:
        return self.opcode in COMPUTE_OPCODES


@dataclass(frozen=True)
class Program:
    """A lowered plan: header metadata plus the instruction stream.

    ``weights_sha256``/``cfg_sha256`` content-address the artifact: a
    program only binds to a network whose loaded weights and serialized
    cfg hash to the same digests (empty digests skip the check — used by
    structural tests that never execute).

    ``opt_level`` and ``passes`` record how the optimizer produced the
    stream (``-O0`` is the raw frontend output); ``constants`` are the
    pre-pack records ``(kind, layer, param)`` the VM warms at bind time
    so a cached artifact starts with hot weight/threshold caches.

    ``tv_ok`` is the translation-validation provenance marker: ``True``
    iff every optimizer pass that produced this stream was proven
    semantics-preserving by :mod:`repro.analyze.tv` at compile time.  It
    serializes as header flag bit 0 of the ``.rpb`` format, and the plan
    cache refuses to serve an unvalidated artifact to a caller that
    requested validation.
    """

    network_name: str
    weights_sha256: str
    cfg_sha256: str
    input_shape: Tuple[int, int, int]
    output_shape: Tuple[int, int, int]
    instructions: Tuple[Instruction, ...]
    version: int = FORMAT_VERSION
    opt_level: int = 0
    passes: Tuple[str, ...] = ()
    constants: Tuple[Tuple[str, int, float], ...] = ()
    tv_ok: bool = False

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def uses_fabric(self) -> bool:
        """True when any instruction occupies the serialized fabric engine."""
        return any(
            instr.resource == FABRIC for instr in self.instructions
        )

    def compute_instructions(self) -> Tuple[Instruction, ...]:
        """The instructions that execute a layer, in stream order."""
        return tuple(i for i in self.instructions if i.is_compute)

    def output_slot(self) -> Optional[int]:
        """The slot ``STORE_OUTPUT`` publishes, or ``None`` if absent."""
        for instr in reversed(self.instructions):
            if instr.opcode == STORE_OUTPUT:
                return instr.dest
        return None


__all__ = [
    "FORMAT_VERSION",
    "INPUT_SLOT",
    "LOAD_INPUT",
    "PACK",
    "GEMM",
    "CONV",
    "THRESHOLD",
    "MAXPOOL",
    "OFFLOAD",
    "ROUTE",
    "RELEASE",
    "STORE_OUTPUT",
    "REGION",
    "SOFTMAX",
    "FUSED",
    "PART_WHOLE",
    "PART_ACC",
    "PART_PRE",
    "PART_VALUES",
    "OPCODE_NAMES",
    "NAME_TO_OPCODE",
    "COMPUTE_OPCODES",
    "LTYPE_TO_OPCODE",
    "RESOURCE_FLAGS",
    "FLAG_RESOURCES",
    "IsaError",
    "LoweringError",
    "EncodeError",
    "DecodeError",
    "BindError",
    "Instruction",
    "Program",
]
