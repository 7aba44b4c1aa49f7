"""Darknet max-pooling layer."""

from __future__ import annotations

from typing import Tuple

from repro.core.ops import maxpool2d_batch
from repro.core.tensor import FeatureMapBatch, pool_output_size
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload


class MaxpoolLayer(Layer):
    """Darknet ``[maxpool]`` with the implicit bottom/right padding."""

    ltype = "maxpool"

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.size = section.get_int("size", 2)
        self.stride = section.get_int("stride", self.size)
        # Darknet defaults total padding to size-1, applied bottom/right,
        # which yields out = ceil(in/stride) (incl. the stride-1 pool of
        # Tiny YOLO layer 12 that keeps the 13x13 geometry).
        self.padding = section.get_int("padding", self.size - 1)

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        out_h = pool_output_size(h, self.size, self.stride, self.padding)
        out_w = pool_output_size(w, self.size, self.stride, self.padding)
        return (c, out_h, out_w)

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        # Max over levels == max over values: pooling commutes with the
        # (monotone) quantization scale, so level codes pool in their
        # integer dtype and pass through with the input's scale.
        pooled = maxpool2d_batch(fmb.data, self.size, self.stride, self.padding)
        return FeatureMapBatch(pooled, scale=fmb.scale)

    def workload(self) -> LayerWorkload:
        """Table I counts pooling as K*K comparisons per output *position*.

        Note the convention (matching the paper's numbers digit for digit):
        the channel count is *not* multiplied in — 173,056 for the first
        Tiny YOLO pool is 208*208*4.
        """
        self._require_initialized()
        _, out_h, out_w = self.out_shape
        return LayerWorkload(self.ltype, out_h * out_w * self.size * self.size)


__all__ = ["MaxpoolLayer"]
