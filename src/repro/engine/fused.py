"""FusedChain — the executable form of a ``FUSED`` instruction.

The ``fuse-chains`` pass rewrites eligible layer pairs into one
instruction; at bind time (:func:`repro.isa.bind.bind`) the constituent
layer objects are wrapped in a :class:`FusedChain`, which quacks like a
single CPU layer to the VM: ``ltype``/``out_shape``/``run_batch``.

conv→maxpool chains dispatch to :func:`repro.core.fused.
fused_conv_maxpool_batch` — the band-tiled conv→pool→threshold kernel
for the exact-integer layers, frame-chunked layer forwards otherwise;
every other shape runs the generic sequential form, which still wins
the fusion's memory benefit — each interior buffer is released to the
workspace allocator the moment its consumer has read it, instead of
living in a VM slot until a RELEASE point.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core import workspace
from repro.core.fused import fused_conv_maxpool_batch
from repro.core.resources import CPU
from repro.core.tensor import FeatureMapBatch

#: conv ltypes whose conv→maxpool pair the dedicated fused kernel handles;
#: everything else takes the generic sequential path.
_CONV_LTYPES = ("convolutional", "conv")


class FusedChain:
    """A short CPU layer chain executed as one plan step.

    *layers* are the constituent layer objects in execution order; every
    interior edge must be a plain chain edge (the fuse pass guarantees
    sole-consumer linkage before emitting the instruction).
    """

    resource = CPU
    needs_history = False

    def __init__(self, layers: Sequence) -> None:
        if len(layers) < 2:
            raise ValueError("a fused chain needs at least two layers")
        self.layers: Tuple = tuple(layers)
        self.ltype = "+".join(layer.ltype for layer in self.layers)
        self.in_shape = self.layers[0].in_shape
        self.out_shape = self.layers[-1].out_shape

    def run_batch(self, inputs: Sequence[FeatureMapBatch]) -> FeatureMapBatch:
        if len(inputs) != 1:
            raise ValueError(
                f"[{self.ltype}] consumes exactly one input, got {len(inputs)}"
            )
        first, second = self.layers[0], self.layers[1]
        if (
            len(self.layers) == 2
            and first.ltype in _CONV_LTYPES
            and second.ltype == "maxpool"
        ):
            return fused_conv_maxpool_batch(first, second, inputs[0])
        current = inputs[0]
        for layer in self.layers:
            produced = layer.run_batch([current])
            if current is not inputs[0]:
                workspace.release(current.data)
            current = produced
        return current

    def __repr__(self) -> str:
        return f"<FusedChain {self.ltype} {self.in_shape} -> {self.out_shape}>"


__all__ = ["FusedChain"]
