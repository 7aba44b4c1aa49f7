"""The generic offload layer of Fig. 3/4.

Darknet virtualizes layer functionality through function pointers; the
paper's ``[offload]`` section redirects those pointers into a user-supplied
shared library.  From Darknet's perspective the offload is a single layer
that turns an input feature map into an output feature map of the declared
geometry — internally the backing implementation "may, for instance,
subsume the computation of multiple layers of various kinds", which is
exactly what the FINN fabric backend does with all of Tincy YOLO's hidden
layers.

cfg options (Fig. 4)::

    [offload]
    library=fabric.so                     # backend (registry name or module:attr)
    network=tincy-yolo-offload.json       # sub-topology the backend executes
    weights=binparam-tincy-yolo/          # backend weight directory
    height=13
    width=13
    channel=125
"""

from __future__ import annotations

from typing import Tuple

from repro.core.resources import FABRIC
from repro.core.tensor import FeatureMapBatch
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload, WeightSource
from repro.nn.registry import resolve_backend


class OffloadLayer(Layer):
    """The Fig. 3/4 ``[offload]`` layer: redirects into a backend library."""

    ltype = "offload"
    #: Offloads occupy the single serialized fabric engine; the plan
    #: compiler keys the FABRIC step tag (and the offload guard) off this,
    #: so fabric-backed subclasses inherit the serialization for free.
    resource = FABRIC

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.library = section.get_str("library")
        self.out_channels = section.get_int("channel")
        self.out_height = section.get_int("height")
        self.out_width = section.get_int("width")
        self.backend = None

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        self.backend = resolve_backend(self.library)
        declared = (self.out_channels, self.out_height, self.out_width)
        backend_shape = self.backend.init(self.section, in_shape)
        if backend_shape is not None and tuple(backend_shape) != declared:
            raise ValueError(
                f"offload backend produces {tuple(backend_shape)} but the cfg "
                f"declares {declared}"
            )
        return declared

    def load_weights(self, source: WeightSource) -> None:
        # The offload's weights live in its own directory (Fig. 4), not in
        # the Darknet weight stream; the hook only notifies the backend.
        self._require_initialized()
        self.backend.load_weights()

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        """Hand the whole ``(N, C, H, W)`` batch to the backend in one call
        (the FINN fabric batches its own GEMMs)."""
        self._require_initialized()
        self._check_history(history)
        return self._checked(self.backend.forward_batch(fmb), "backend")

    def forward_batch_reference(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Batched CPU reference path (degraded serving mode).

        Backends exposing ``reference_forward_batch`` (the FINN fabric
        does) run it off the fabric engine; a backend without one serves
        the reference path through its ``forward_batch``.
        """
        self._require_initialized()
        reference = getattr(self.backend, "reference_forward_batch", None)
        if reference is None:
            return self.forward_batch(fmb)
        return self._checked(reference(fmb), "reference path")

    def run_batch_reference(self, inputs) -> FeatureMapBatch:
        """Engine entry for the reference path; offloads take one input."""
        self._require_initialized()
        if len(inputs) != 1:
            raise ValueError(
                f"[{self.ltype}] consumes exactly one input, got {len(inputs)}"
            )
        return self.forward_batch_reference(inputs[0])

    def _checked(self, out: FeatureMapBatch, source: str) -> FeatureMapBatch:
        if tuple(out.frame_shape) != tuple(self.out_shape):
            raise ValueError(
                f"offload {source} returned frames {tuple(out.frame_shape)}, "
                f"declared {tuple(self.out_shape)}"
            )
        return out

    def destroy(self) -> None:
        if self.backend is not None:
            self.backend.destroy()
            self.backend = None

    def workload(self) -> LayerWorkload:
        self._require_initialized()
        ops = 0
        if hasattr(self.backend, "ops_per_frame"):
            ops = int(self.backend.ops_per_frame())
        return LayerWorkload(self.ltype, ops, note=f"library={self.library}")


__all__ = ["OffloadLayer"]
