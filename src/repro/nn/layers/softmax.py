"""Darknet ``[softmax]`` layer (classification heads of MLP-4 / CNV-6)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.ops import softmax
from repro.core.tensor import FeatureMapBatch
from repro.nn.layers.base import Layer, LayerWorkload


class SoftmaxLayer(Layer):
    """Darknet ``[softmax]`` classification head."""

    ltype = "softmax"

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        return in_shape

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        flat = fmb.values().reshape(fmb.batch, -1)
        probs = softmax(flat, axis=1).reshape(fmb.shape)
        return FeatureMapBatch(probs.astype(np.float32))

    def workload(self) -> LayerWorkload:
        return LayerWorkload(self.ltype, 0)


__all__ = ["SoftmaxLayer"]
