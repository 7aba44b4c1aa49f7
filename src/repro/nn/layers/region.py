"""YOLOv2 ``[region]`` layer: the detection head of (Tin(c)y) YOLO.

The layer receives a ``num*(coords+1+classes)``-channel map (125 = 5 anchors
x (4 box coordinates + objectness + 20 VOC classes) at 13x13 for both Tiny
and Tincy YOLO, per Table I layer 15) and

* squashes the box center offsets and the objectness with a logistic,
* soft-maxes the class scores per anchor,
* decodes anchor-relative boxes into normalized image coordinates.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.ops import sigmoid, softmax
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.eval.boxes import Box, Detection
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload

#: The anchor priors of tiny-yolo-voc.cfg (width,height in 13x13 cell units).
TINY_YOLO_VOC_ANCHORS = [1.08, 1.19, 3.42, 4.41, 6.63, 11.38, 9.42, 5.11, 16.62, 10.52]


class RegionLayer(Layer):
    """The YOLOv2 ``[region]`` detection head (anchors, logistic, softmax)."""

    ltype = "region"

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.classes = section.get_int("classes", 20)
        self.num = section.get_int("num", 5)
        self.coords = section.get_int("coords", 4)
        self.anchors = section.get_float_list("anchors", TINY_YOLO_VOC_ANCHORS)
        if len(self.anchors) != 2 * self.num:
            raise ValueError(
                f"region layer expects {2 * self.num} anchor values, "
                f"got {len(self.anchors)}"
            )

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        expected = self.num * (self.coords + 1 + self.classes)
        if c != expected:
            raise ValueError(
                f"region layer expects {expected} channels "
                f"({self.num} anchors x ({self.coords}+1+{self.classes})), got {c}"
            )
        return in_shape

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        x = fmb.values().astype(np.float64)
        n, c, h, w = x.shape
        per_anchor = self.coords + 1 + self.classes
        blocks = x.reshape(n, self.num, per_anchor, h, w)
        out = blocks.copy()
        out[:, :, 0] = sigmoid(blocks[:, :, 0])  # tx
        out[:, :, 1] = sigmoid(blocks[:, :, 1])  # ty
        out[:, :, self.coords] = sigmoid(blocks[:, :, self.coords])  # objectness
        out[:, :, self.coords + 1 :] = softmax(
            blocks[:, :, self.coords + 1 :], axis=2
        )
        return FeatureMapBatch(out.reshape(n, c, h, w).astype(np.float32))

    def detections(self, fm: FeatureMap, threshold: float = 0.24) -> List[Detection]:
        """Decode a *forwarded* region map into thresholded detections."""
        self._require_initialized()
        x = fm.values().astype(np.float64)
        c, h, w = x.shape
        per_anchor = self.coords + 1 + self.classes
        blocks = x.reshape(self.num, per_anchor, h, w)
        results: List[Detection] = []
        for anchor in range(self.num):
            anchor_w = self.anchors[2 * anchor]
            anchor_h = self.anchors[2 * anchor + 1]
            objness = blocks[anchor, self.coords]
            probs = blocks[anchor, self.coords + 1 :] * objness[None, :, :]
            for row in range(h):
                for col in range(w):
                    best_class = int(np.argmax(probs[:, row, col]))
                    score = float(probs[best_class, row, col])
                    if score < threshold:
                        continue
                    bx = (col + blocks[anchor, 0, row, col]) / w
                    by = (row + blocks[anchor, 1, row, col]) / h
                    bw = anchor_w * np.exp(blocks[anchor, 2, row, col]) / w
                    bh = anchor_h * np.exp(blocks[anchor, 3, row, col]) / h
                    results.append(
                        Detection(
                            box=Box(bx, by, float(bw), float(bh)),
                            class_id=best_class,
                            score=score,
                            objectness=float(objness[row, col]),
                        )
                    )
        return results

    def workload(self) -> LayerWorkload:
        # Table I stops at the last convolution; the region transforms are
        # negligible and counted as zero, matching the paper's accounting.
        return LayerWorkload(self.ltype, 0)


__all__ = ["RegionLayer", "TINY_YOLO_VOC_ANCHORS"]
