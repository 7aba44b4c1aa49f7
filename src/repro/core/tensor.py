"""Feature-map containers used throughout the inference substrate.

Darknet passes raw ``float*`` buffers between layers; we pass a thin
:class:`FeatureMap` wrapper around a channel-major ``(C, H, W)`` numpy array.
The wrapper additionally carries a *scale* so that quantized maps can travel
through the network as integer level codes (``value = data * scale``), which
is exactly how the FINN accelerator of the paper streams 3-bit activations.

Batched inference uses :class:`FeatureMapBatch`, the same container with a
leading batch axis: ``data`` is ``(N, C, H, W)`` with frame ``i`` being
``data[i]``.  All batched layer paths are required (and tested) to produce
bit-identical per-frame results to the sequential single-frame paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


def _values(data: np.ndarray, scale: float) -> np.ndarray:
    """``data * scale`` as ``float32``, rounded exactly once.

    Unit-scale integer codes (the W1A1 ``int8`` ``+-1`` maps) widen
    directly: an integer of at most 32 bits is exact in float64 and
    ``* 1.0`` is the identity, so the direct cast and the float64 product
    round the same integer to float32 the same single time.  Every other
    scale keeps the float64 product, which is what pins the W1A3 values.
    """
    if scale == 1.0:
        if data.dtype == np.float32:
            return data
        if data.dtype.kind in "iu" and data.dtype.itemsize <= 4:
            return data.astype(np.float32)
    return (data.astype(np.float64) * scale).astype(np.float32)


@dataclass
class FeatureMap:
    """A ``(C, H, W)`` feature map with an optional quantization scale.

    ``data`` may be floating point (``scale == 1.0`` for plain float maps) or
    integer level codes, in which case the represented value of each element
    is ``data * scale``.
    """

    data: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"feature map must be (C, H, W), got {self.data.shape}")

    @property
    def channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def height(self) -> int:
        return int(self.data.shape[1])

    @property
    def width(self) -> int:
        return int(self.data.shape[2])

    @property
    def shape(self) -> tuple:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def values(self) -> np.ndarray:
        """Return the represented (dequantized) values as ``float32``."""
        return _values(self.data, self.scale)

    def copy(self) -> "FeatureMap":
        return FeatureMap(self.data.copy(), self.scale)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FeatureMap":
        """Wrap plain float values (scale 1) as a feature map."""
        return cls(np.asarray(values, dtype=np.float32), 1.0)


@dataclass
class FeatureMapBatch:
    """A batch of feature maps: ``(N, C, H, W)`` with one quantization scale.

    The batch axis is axis 0; every frame keeps the channel-major
    ``(C, H, W)`` layout of :class:`FeatureMap`.  A batch is homogeneous:
    all frames share the same geometry and the same scale (which is what the
    network's deterministic per-layer scales guarantee anyway).
    """

    data: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.data.ndim != 4:
            raise ValueError(
                f"feature map batch must be (N, C, H, W), got {self.data.shape}"
            )

    @property
    def batch(self) -> int:
        return int(self.data.shape[0])

    @property
    def channels(self) -> int:
        return int(self.data.shape[1])

    @property
    def height(self) -> int:
        return int(self.data.shape[2])

    @property
    def width(self) -> int:
        return int(self.data.shape[3])

    @property
    def shape(self) -> tuple:
        return tuple(self.data.shape)

    @property
    def frame_shape(self) -> tuple:
        """Shape of one frame: ``(C, H, W)``."""
        return tuple(self.data.shape[1:])

    @property
    def size(self) -> int:
        return int(self.data.size)

    def values(self) -> np.ndarray:
        """Return the represented (dequantized) values as ``float32``."""
        return _values(self.data, self.scale)

    def frame(self, index: int) -> FeatureMap:
        """Frame *index* as a :class:`FeatureMap` (a view, not a copy)."""
        return FeatureMap(self.data[index], self.scale)

    def frames(self) -> Iterator[FeatureMap]:
        for index in range(self.batch):
            yield self.frame(index)

    def copy(self) -> "FeatureMapBatch":
        return FeatureMapBatch(self.data.copy(), self.scale)

    @classmethod
    def from_maps(cls, maps: Sequence[FeatureMap]) -> "FeatureMapBatch":
        """Stack single-frame maps into a batch (shapes/scales must agree)."""
        if not maps:
            raise ValueError("cannot build a batch from zero frames")
        shapes = {tuple(fm.shape) for fm in maps}
        if len(shapes) != 1:
            raise ValueError(f"frames disagree on shape: {sorted(shapes)}")
        scales = {float(fm.scale) for fm in maps}
        if len(scales) != 1:
            raise ValueError(f"frames disagree on scale: {sorted(scales)}")
        return cls(np.stack([fm.data for fm in maps], axis=0), maps[0].scale)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FeatureMapBatch":
        """Wrap plain float values (scale 1) as a feature-map batch."""
        return cls(np.asarray(values, dtype=np.float32), 1.0)


def conv_output_size(size: int, ksize: int, stride: int, pad: int) -> int:
    """Darknet's convolutional output size: ``(size + 2*pad - ksize)/stride + 1``."""
    out = (size + 2 * pad - ksize) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output for size={size} ksize={ksize} "
            f"stride={stride} pad={pad}"
        )
    return out


def pool_output_size(size: int, ksize: int, stride: int, padding: int) -> int:
    """Darknet's maxpool output size: ``(size + padding - ksize)/stride + 1``.

    ``padding`` is the *total* padding (darknet defaults it to ``ksize - 1``
    and applies it at the bottom/right), which makes ``out = ceil(size/stride)``
    for the common 2x2 configurations of the YOLO family.
    """
    out = (size + padding - ksize) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive pool output for size={size} ksize={ksize} "
            f"stride={stride} padding={padding}"
        )
    return out


class BadFrame(ValueError):
    """A request frame the plan cannot take: refused before it is queued,
    so it never fails the batch it would have joined."""


def check_frame(frame, shape: Sequence[int]) -> None:
    """Raise :class:`BadFrame` unless *frame* is a float32 map of the
    plan's input *shape* with every value finite.

    Finiteness is read from ``x . x``, one BLAS dot that a NaN or an
    infinity makes non-finite; a sum that merely overflowed is settled by
    the exact elementwise test.  Unlike a numpy reduction, the dot holds
    the interpreter lock: a submit that let the batcher run mid-burst
    would cut a client's burst into smaller batches.
    """
    data = getattr(frame, "data", None)
    if not isinstance(data, np.ndarray):
        raise BadFrame(f"a frame is a FeatureMap, got {type(frame).__name__}")
    if data.shape != tuple(shape):
        raise BadFrame(
            f"frame shape {data.shape} is not the plan's input {tuple(shape)}"
        )
    if data.dtype != np.float32:
        raise BadFrame(f"frame dtype {data.dtype} is not float32")
    flat = data.ravel()
    with np.errstate(over="ignore"):
        square = flat @ flat
    if not math.isfinite(square) and not np.isfinite(flat).all():
        raise BadFrame("frame holds NaN or infinite values")


__all__ = [
    "BadFrame",
    "FeatureMap",
    "FeatureMapBatch",
    "check_frame",
    "conv_output_size",
    "pool_output_size",
]
