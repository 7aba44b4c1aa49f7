"""Bind a program to a live network: content digests and layer checks.

The weights themselves are *not* in the artifact (FINN-R's split: the
bitstream/weight export is its own artifact); the content digests are
what tie the two together.  :func:`bind` re-attaches a (decoded)
program to a network's layer objects and refuses on content-hash,
layer-index, ltype, opcode or geometry mismatch — an artifact is input
from outside the process, so nothing in it is trusted or guessed.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from repro.core.resources import FABRIC
from repro.isa.ops import (
    FUSED,
    LTYPE_TO_OPCODE,
    OFFLOAD,
    PART_WHOLE,
    THRESHOLD,
    BindError,
    Instruction,
    Program,
)

#: The ``(weights, cfg)`` digest pair of a program compiled and run inside
#: one process: it is never separated from its network, so there is
#: nothing to verify and the weights are not hashed.
NO_DIGESTS = ("", "")


def weights_digest(network) -> str:
    """sha256 hex of the network's flat Darknet-order weight array.

    Offload layers keep their parameters in the backend's own export
    directory (Fig. 4), so this digest covers exactly the weights the
    Darknet stream carries — the same set :meth:`Network.
    load_weights_array` would reload.  Each layer's chunks are fed to the
    hasher in place (one pass, no concatenated copy); the value equals
    ``sha256(network.save_weights_array().tobytes())``.  It is recomputed
    from the live arrays on every call — never memoized, because weights
    can be edited in place.
    """
    from repro.nn.layers.base import StreamSink

    hasher = hashlib.sha256()
    sink = StreamSink(hasher.update)
    for layer in network.layers:
        layer.save_weights(sink)
    return hasher.hexdigest()


def cfg_digest(network) -> str:
    """sha256 hex of the network's serialized cfg text (the topology)."""
    from repro.nn.config import serialize_config

    return hashlib.sha256(
        serialize_config(network.config).encode()
    ).hexdigest()


def network_digests(network) -> Tuple[str, str]:
    """The ``(weights, cfg)`` digest pair; hashing the weights is the
    expensive part of a start, so callers compute this once and hand it
    to the compiler, the cache and :func:`bind`."""
    return weights_digest(network), cfg_digest(network)


def bind(
    program: Program,
    network,
    digests: Optional[Tuple[str, str]] = None,
) -> List:
    """Layers aligned to *program*'s instruction stream (``None`` for
    pseudo-ops); raises :class:`~repro.isa.ops.BindError` on mismatch.

    The network's weights and cfg must hash to the program's content
    digests — the cache-key contract that keeps a stale artifact from
    silently executing wrong parameters.  *digests* is the network's
    :func:`network_digests` pair when the caller already computed it
    (hashed here otherwise).  Programs carrying empty digests
    (in-process compiles, structural tests) have nothing to compare.
    """
    if program.weights_sha256 or program.cfg_sha256:
        weights, cfg = (
            digests if digests is not None else network_digests(network)
        )
        if program.weights_sha256 and weights != program.weights_sha256:
            raise BindError(
                f"weights hash mismatch: program was compiled for "
                f"{program.weights_sha256[:12]}…, network holds "
                f"{weights[:12]}…"
            )
        if program.cfg_sha256 and cfg != program.cfg_sha256:
            raise BindError(
                f"cfg hash mismatch: program was compiled for "
                f"{program.cfg_sha256[:12]}…, network serializes to "
                f"{cfg[:12]}…"
            )
    if tuple(network.input_shape) != tuple(program.input_shape):
        raise BindError(
            f"program expects input {tuple(program.input_shape)}, network "
            f"takes {tuple(network.input_shape)}"
        )
    layers = list(network.layers)
    bound: List = []
    for instr in program.instructions:
        if not instr.is_compute:
            bound.append(None)
            continue
        if instr.opcode == FUSED:
            bound.append(_bind_fused(instr, layers))
            continue
        index = instr.layer
        if not 0 <= index < len(layers):
            raise BindError(
                f"instruction '{instr.mnemonic}' executes layer {index} "
                f"but the network has only {len(layers)} layers"
            )
        layer = layers[index]
        if instr.opcode == THRESHOLD:
            # The requantization half of a split epilogue: the layer must
            # actually carry a quantized output, and the instruction must
            # name which half it applies.
            if getattr(layer, "out_quant", None) is None:
                raise BindError(
                    f"slot {instr.dest}: THRESHOLD binds to layer {index} "
                    f"[{layer.ltype}], which has no output quantizer"
                )
            if instr.part == PART_WHOLE:
                raise BindError(
                    f"slot {instr.dest}: THRESHOLD carries no epilogue "
                    f"part"
                )
        else:
            expected = LTYPE_TO_OPCODE.get(
                layer.ltype,
                OFFLOAD
                if getattr(layer, "resource", None) == FABRIC
                else None,
            )
            if expected != instr.opcode:
                raise BindError(
                    f"slot {instr.dest}: program says {instr.mnemonic} but "
                    f"layer {index} is [{layer.ltype}]"
                )
        if tuple(layer.out_shape) != tuple(instr.shape):
            raise BindError(
                f"slot {instr.dest}: program declares shape "
                f"{tuple(instr.shape)} but layer {index} produces "
                f"{tuple(layer.out_shape)}"
            )
        bound.append(layer)
    return bound


def _bind_fused(instr: Instruction, layers: List):
    """A :class:`~repro.engine.fused.FusedChain` for a FUSED instruction."""
    from repro.engine.fused import FusedChain

    if len(instr.fused_layers) < 2:
        raise BindError(
            f"slot {instr.dest}: FUSED names {len(instr.fused_layers)} "
            f"constituent layer(s); at least two required"
        )
    members = []
    for index in instr.fused_layers:
        if not 0 <= index < len(layers):
            raise BindError(
                f"slot {instr.dest}: FUSED references layer {index} but "
                f"the network has only {len(layers)} layers"
            )
        members.append(layers[index])
    chain = FusedChain(members)
    if instr.ltype and chain.ltype != instr.ltype:
        raise BindError(
            f"slot {instr.dest}: FUSED declares [{instr.ltype}] but the "
            f"named layers form [{chain.ltype}]"
        )
    if tuple(chain.out_shape) != tuple(instr.shape):
        raise BindError(
            f"slot {instr.dest}: program declares shape "
            f"{tuple(instr.shape)} but the fused chain produces "
            f"{tuple(chain.out_shape)}"
        )
    return chain


__all__ = [
    "NO_DIGESTS",
    "weights_digest",
    "cfg_digest",
    "network_digests",
    "bind",
]
