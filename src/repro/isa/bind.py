"""Bind a program to a live network: content digests and layer checks.

The weights themselves are *not* in the artifact (FINN-R's split: the
bitstream/weight export is its own artifact); the content digests are
what tie the two together.  :func:`bind` re-attaches a (decoded)
program to a network's layer objects and refuses on content-hash,
layer-index, ltype, opcode or geometry mismatch — an artifact is input
from outside the process, so nothing in it is trusted or guessed.

A bind makes two passes over the whole weight set: it hashes it, and it
derives the constants the program names (``+-1`` weights, threshold
tables, band-kernel folds).  Both are cut into items that run on
:mod:`repro.core.lanes` as one call, so a start uses every core.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import lanes
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

#: Bytes per leaf of :class:`TreeDigest`.
DIGEST_BLOCK = 1 << 20


class TreeDigest:
    """A sha256 tree digest of a byte stream that arrives in chunks.

    The stream is cut into :data:`DIGEST_BLOCK`-byte leaves (the last
    one shorter); each leaf is hashed on its own, so the leaves are
    independent lane items (:meth:`hash_leaf`).  The root is one sha256
    over the stream length (8 bytes, little endian) followed by the leaf
    digests in order.  Leaves are cut from the bytes, not from the
    chunks, so the value does not depend on how the stream was chunked
    or on how many lanes hashed it.  A chunk is any C-contiguous buffer;
    it is read in place.
    """

    def __init__(self, chunks: Iterable) -> None:
        self.length = 0
        self._leaves: List[List[memoryview]] = []
        room = 0
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            self.length += len(view)
            start = 0
            while start < len(view):
                if room == 0:
                    self._leaves.append([])
                    room = DIGEST_BLOCK
                piece = view[start : start + room]
                self._leaves[-1].append(piece)
                start += len(piece)
                room -= len(piece)
        self._digests: List[Optional[bytes]] = [None] * len(self._leaves)

    def __len__(self) -> int:
        return len(self._leaves)

    def hash_leaf(self, index: int) -> None:
        """Hash leaf *index*; safe on any lane, leaves are disjoint."""
        hasher = hashlib.sha256()
        for piece in self._leaves[index]:
            hasher.update(piece)
        self._digests[index] = hasher.digest()

    def hexdigest(self) -> str:
        """The root, once every leaf is hashed."""
        root = hashlib.sha256(self.length.to_bytes(8, "little"))
        root.update(b"".join(self._digests))
        return root.hexdigest()


def tree_digest(chunks: Iterable) -> str:
    """:class:`TreeDigest` root of *chunks*, its leaves hashed on the lanes."""
    tree = TreeDigest(chunks)
    lanes.run(lambda _lane, leaf: tree.hash_leaf(leaf), len(tree), lanes.count())
    return tree.hexdigest()


def _weights_stream(network) -> List:
    """The network's Darknet float32 weight stream, as the chunks its
    layers write (a contiguous float32 parameter is not copied)."""
    from repro.nn.layers.base import StreamSink

    chunks: List = []
    sink = StreamSink(chunks.append)
    for layer in network.layers:
        layer.save_weights(sink)
    return chunks


def weights_digest(network) -> str:
    """:func:`tree_digest` of the network's Darknet weight stream.

    The stream is the one :meth:`Network.save_weights_array` concatenates
    — ``network.save_weights_array().tobytes()`` — read chunk by chunk in
    place.  Offload layers keep their parameters in the backend's own
    export directory (Fig. 4), so this digest covers exactly the weights
    the Darknet stream carries.  It is recomputed from the live arrays on
    every call — never memoized, because weights can be edited in place.
    """
    return tree_digest(_weights_stream(network))


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

    The program's pre-pack constants are derived here too, one item per
    layer they name (:meth:`~repro.nn.layers.convolutional.
    ConvolutionalLayer.constants_job`), so the first frame finds its
    caches hot.  Those items and the leaves of the weights digest run as
    one :func:`repro.core.lanes.run` call, largest first; the digest is
    compared once every item is done.
    """
    if digests is not None:
        _compare_digests(program, digests)
    bound = _align(program, network)
    jobs = _constant_jobs(program, list(network.layers))
    tree = None
    if digests is None and program.weights_sha256:
        tree = TreeDigest(_weights_stream(network))
        jobs += [
            (DIGEST_BLOCK, partial(tree.hash_leaf, leaf))
            for leaf in range(len(tree))
        ]
    jobs.sort(key=lambda job: job[0], reverse=True)
    lanes.run(lambda _lane, item: jobs[item][1](), len(jobs), lanes.count())
    if digests is None:
        _compare_digests(
            program,
            (
                tree.hexdigest() if tree is not None else "",
                cfg_digest(network) if program.cfg_sha256 else "",
            ),
        )
    return bound


def _compare_digests(program: Program, digests: Tuple[str, str]) -> None:
    """Raise :class:`BindError` unless *digests* match the program's."""
    weights, cfg = digests
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


def _constant_jobs(program: Program, layers: List) -> List[Tuple[int, Callable]]:
    """``(cost, item)`` per layer the program's constants name.

    The cost is the layer's weight bytes.  Unknown constant kinds are
    ignored for forward compatibility; a constant naming a layer outside
    the network is a binding error.
    """
    scales: Dict[int, List[float]] = {}
    for kind, index, param in program.constants:
        if not 0 <= index < len(layers):
            raise BindError(
                f"constant ({kind!r}, {index}) references a layer the "
                f"network does not have ({len(layers)} layers)"
            )
        if kind == "weights":
            scales.setdefault(index, [])
        elif kind == "thresholds":
            scales.setdefault(index, []).append(param)
    named = [index for index in scales if hasattr(layers[index], "constants_job")]
    # constants_job allocates, so call it largest layer first, the order
    # the items run: smallest first left Tincy's warm starts ~6 MB higher
    # in peak RSS (the heap then holds the panels in another order).
    named.sort(key=lambda index: layers[index].weights.nbytes, reverse=True)
    return [
        (layers[index].weights.nbytes, layers[index].constants_job(scales[index]))
        for index in named
    ]


def _align(program: Program, network) -> List:
    """The structural half of :func:`bind`: one layer per instruction."""
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
    "DIGEST_BLOCK",
    "TreeDigest",
    "tree_digest",
    "weights_digest",
    "cfg_digest",
    "network_digests",
    "bind",
]
