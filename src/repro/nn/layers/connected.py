"""Fully connected (Darknet ``[connected]``) layer.

Used by the MLP-4 and CNV-6 networks of Table II; supports the same
``binary=1`` / ``activation_bits`` quantization extensions as the
convolutional layer so that W1A1 classifiers can be expressed.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core.ops import (
    ACTIVATIONS,
    accumulates_exactly,
    as_map_dtype,
    batchnorm_inference,
    fully_connected_batch,
)
from repro.core.quantize import BinaryQuantizer, UnsignedUniformQuantizer
from repro.core.tensor import FeatureMapBatch
from repro.nn.config import Section
from repro.nn.layers.base import Layer, LayerWorkload, WeightSink, WeightSource
from repro.nn.layers.convolutional import BN_EPS


class ConnectedLayer(Layer):
    """Darknet ``[connected]`` (dense) layer with W1A1 quantization support."""

    ltype = "connected"

    def __init__(self, section: Section) -> None:
        super().__init__(section)
        self.output = section.get_int("output")
        activation = section.get_str("activation", "linear")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'")
        self.activation = activation
        self.batch_normalize = bool(section.get_int("batch_normalize", 0))
        self.binary = bool(section.get_int("binary", 0))
        bits = section.get_int("activation_bits", 0)
        if bits:
            scale = section.get_float("activation_scale", 1.0 / ((1 << bits) - 1))
            self.out_quant = UnsignedUniformQuantizer(bits=bits, scale=scale)
        else:
            self.out_quant = None
        self._binarizer = BinaryQuantizer()
        self._effective_cache = None
        self.weights: np.ndarray = None
        self.biases: np.ndarray = None
        self.scales: np.ndarray = None
        self.rolling_mean: np.ndarray = None
        self.rolling_var: np.ndarray = None

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        inputs = int(np.prod(in_shape))
        self.inputs = inputs
        self.weights = np.zeros((self.output, inputs), dtype=np.float32)
        self.biases = np.zeros(self.output, dtype=np.float32)
        if self.batch_normalize:
            self.scales = np.ones(self.output, dtype=np.float32)
            self.rolling_mean = np.zeros(self.output, dtype=np.float32)
            self.rolling_var = np.ones(self.output, dtype=np.float32)
        return (self.output, 1, 1)

    def initialize(self, rng: np.random.Generator) -> None:
        self._require_initialized()
        scale = np.sqrt(2.0 / self.inputs)
        self.weights = rng.normal(0.0, scale, size=self.weights.shape).astype(
            np.float32
        )

    def load_weights(self, source: WeightSource) -> None:
        self._require_initialized()
        self.biases = source.read(self.output)
        if self.batch_normalize:
            self.scales = source.read(self.output)
            self.rolling_mean = source.read(self.output)
            self.rolling_var = source.read(self.output)
        self.weights = source.read(self.weights.size).reshape(self.weights.shape)

    def save_weights(self, sink: WeightSink) -> None:
        self._require_initialized()
        sink.write(self.biases)
        if self.batch_normalize:
            sink.write(self.scales)
            sink.write(self.rolling_mean)
            sink.write(self.rolling_var)
        sink.write(self.weights)

    def effective_weights(self, out=None) -> np.ndarray:
        """The ``+-1`` weights of a binary layer (cached on the identity
        of ``self.weights``; a recomputed result is written into *out*
        when given), else the weights themselves."""
        if not self.binary:
            return self.weights
        cached = self._effective_cache
        if cached is not None and cached[0] is self.weights:
            return cached[1]
        effective = self._binarizer.quantize(self.weights, out=out)
        self._effective_cache = (self.weights, effective)
        return effective

    def constants_job(self, in_scales: Sequence[float]) -> Callable[[], None]:
        """This layer's constants as one bind item: the ``+-1`` weights,
        into an array allocated here on the binding thread (see
        :meth:`repro.nn.layers.convolutional.ConvolutionalLayer.
        constants_job`; a dense layer has no input-scale constants)."""
        cached = self._effective_cache
        effective = None
        if self.binary and (cached is None or cached[0] is not self.weights):
            effective = np.empty(self.weights.shape, dtype=np.float32)
        return lambda: self.effective_weights(out=effective)

    def forward_batch(self, fmb: FeatureMapBatch, history=None) -> FeatureMapBatch:
        self._require_initialized()
        self._check_history(history)
        # The epilogue (BN, activation, quantization) is elementwise and
        # vectorizes freely; the product is one GEMM only for +-1 weights
        # against integer codes (a sign layer's int8 output).
        z = fully_connected_batch(
            fmb.values().reshape(fmb.batch, -1),
            self.effective_weights(),
            exact=self.binary
            and accumulates_exactly(fmb.data.dtype, fmb.scale, self.inputs),
        )
        if self.batch_normalize:
            z = batchnorm_inference(
                z, self.scales, self.biases, self.rolling_mean, self.rolling_var,
                eps=BN_EPS, channel_axis=1,
            )
        else:
            z = z + self.biases[None, :]
        z = ACTIVATIONS[self.activation](z)
        z = z.reshape(fmb.batch, self.output, 1, 1)
        if self.out_quant is not None:
            levels = self.out_quant.to_levels(z)
            return FeatureMapBatch(levels, scale=self.out_quant.scale)
        return FeatureMapBatch(as_map_dtype(z))

    def workload(self) -> LayerWorkload:
        self._require_initialized()
        regime = "W1" if self.binary else "float/int8"
        return LayerWorkload(self.ltype, 2 * self.inputs * self.output, note=regime)

    def num_params(self) -> int:
        self._require_initialized()
        count = self.weights.size + self.biases.size
        if self.batch_normalize:
            count += 3 * self.output
        return count


__all__ = ["ConnectedLayer"]
