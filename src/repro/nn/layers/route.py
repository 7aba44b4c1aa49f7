"""Darknet ``[route]`` and ``[reorg]`` layers.

The paper starts from "YOLO and Tiny YOLO [6]"; Tiny YOLO needs neither of
these, but the full YOLOv2 does: its passthrough path routes an earlier
high-resolution feature map forward and ``reorg`` rearranges it
(space-to-depth, stride 2) so it can concatenate with the low-resolution
trunk.  Both are implemented with Darknet's exact semantics so the full
YOLO topology can be expressed and priced.

Layers that look backwards need the network's layer outputs; they declare
``needs_history`` and receive the list of previous outputs at forward time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.tensor import FeatureMapBatch
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload


class RouteLayer(Layer):
    """Concatenate earlier layers' outputs along the channel axis.

    ``layers=-1,8`` uses Darknet indexing: negative values are relative to
    this layer, non-negative are absolute layer indices.
    """

    ltype = "route"
    needs_history = True

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        raw = section.get_str("layers")
        self.layer_refs = [int(part) for part in raw.split(",") if part.strip()]
        if not self.layer_refs:
            raise ValueError("[route] requires at least one layer reference")
        self.index: Optional[int] = None  # set by the network at build time
        self._resolved: List[int] = []
        self._source_shapes: List[Tuple[int, int, int]] = []

    def resolve(self, own_index: int, shapes: List[Tuple[int, int, int]]) -> None:
        """Resolve relative references against this layer's position."""
        self.index = own_index
        self._resolved = []
        for ref in self.layer_refs:
            absolute = own_index + ref if ref < 0 else ref
            if not 0 <= absolute < own_index:
                raise ValueError(
                    f"[route] reference {ref} resolves to layer {absolute}, "
                    f"outside [0, {own_index})"
                )
            self._resolved.append(absolute)
        self._source_shapes = [shapes[i] for i in self._resolved]
        heights = {s[1] for s in self._source_shapes}
        widths = {s[2] for s in self._source_shapes}
        if len(heights) != 1 or len(widths) != 1:
            raise ValueError(
                f"[route] sources disagree on spatial size: {self._source_shapes}"
            )

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        if not self._source_shapes:
            raise RuntimeError("[route] used before resolve()")
        channels = sum(s[0] for s in self._source_shapes)
        return (channels, self._source_shapes[0][1], self._source_shapes[0][2])

    def history_dependencies(self) -> Tuple[int, ...]:
        """The resolved absolute source indices (the plan's input edges)."""
        if not self._resolved:
            raise RuntimeError("[route] used before resolve()")
        return tuple(self._resolved)

    def forward_batch(
        self, fmb: FeatureMapBatch, history: List[FeatureMapBatch] = None
    ) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        sources = [history[i] for i in self._resolved]
        scales = {s.scale for s in sources}
        if len(scales) != 1:
            data = np.concatenate([s.values() for s in sources], axis=1)
            return FeatureMapBatch(data.astype(np.float32))
        data = np.concatenate([np.asarray(s.data) for s in sources], axis=1)
        return FeatureMapBatch(data, scale=sources[0].scale)

    def workload(self) -> LayerWorkload:
        return LayerWorkload(self.ltype, 0)


class ReorgLayer(Layer):
    """Space-to-depth rearrangement (Darknet's ``reorg``, stride 2).

    ``(C, H, W) -> (C*s*s, H/s, W/s)`` — the YOLOv2 passthrough trick that
    lets a 26x26x64 map concatenate with the 13x13 trunk as 13x13x256.
    """

    ltype = "reorg"

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.stride = section.get_int("stride", 2)
        if self.stride < 1:
            raise ValueError("[reorg] stride must be positive")

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        if h % self.stride or w % self.stride:
            raise ValueError(
                f"[reorg] input {h}x{w} not divisible by stride {self.stride}"
            )
        s = self.stride
        return (c * s * s, h // s, w // s)

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        data = np.asarray(fmb.data)
        n, c, h, w = data.shape
        s = self.stride
        blocks = data.reshape(n, c, h // s, s, w // s, s)
        rearranged = blocks.transpose(0, 3, 5, 1, 2, 4).reshape(
            n, c * s * s, h // s, w // s
        )
        return FeatureMapBatch(rearranged, scale=fmb.scale)

    def workload(self) -> LayerWorkload:
        return LayerWorkload(self.ltype, 0)


__all__ = ["RouteLayer", "ReorgLayer"]
