"""Fully connected MVTU stages — the W1A1 dataflow show cases of Table II.

The earlier FINN applications (MLP-4 for MNIST, CNV-6's dense tail) use
fully binarized layers: ``{-1,+1}`` weights *and* activations.  On the
MVTU this is the cheapest possible regime — a single XNOR-popcount pass
and one threshold per neuron ("the fully binarized 4-layer MLP and 6-layer
CNN lent themselves to an implementation of the inference engine with all
layers residing one after the other in a dataflow pipeline", §III-A).

:func:`derive_sign_thresholds` folds batch normalization + sign activation
into that single per-neuron threshold; :class:`MVTUDenseLayer` executes a
``[connected]`` layer bit-faithfully and carries the same folding-based
cycle model as the convolutional stages.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.ops import accumulator_bound
from repro.core.tensor import FeatureMap
from repro.core.thresholds import ThresholdActivation, bisect_thresholds
from repro.finn.mvtu import MVTU, Folding
from repro.nn.layers.connected import ConnectedLayer


def derive_sign_thresholds(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    in_scale: float = 1.0,
    eps: float = 1e-6,
    *,
    fan_in: int,
) -> ThresholdActivation:
    """Fold BN + sign into one integer threshold per neuron.

    Level 1 is the W1A1 activation's ``+1``: the table is the bisection
    (:func:`repro.core.thresholds.bisect_thresholds`) of the float64
    ``gamma * (acc * in_scale - mean) / sqrt(var + eps) + beta >= 0`` over
    ``|acc| <= accumulator_bound(int8, fan_in)``, every accumulator of a
    *fan_in*-input neuron on sign codes.
    """
    gamma, beta, mean, var = (
        np.asarray(a, dtype=np.float64)[:, np.newaxis]
        for a in (gamma, beta, mean, var)
    )
    sigma = np.sqrt(var + eps)

    def reaches(acc: np.ndarray) -> np.ndarray:
        return gamma * (acc * in_scale - mean) / sigma + beta >= 0.0

    signs = np.where(gamma[:, 0] < 0, -1, 1).astype(np.int8)
    bound = accumulator_bound(np.int8, fan_in)
    folded = bisect_thresholds(reaches, signs, 1, bound)
    return ThresholdActivation(folded * signs[:, np.newaxis], signs, bits=1)


class MVTUDenseLayer:
    """One W1A1 fully connected layer on the MVTU.

    Consumes a level-coded feature map whose levels encode ``{-1,+1}``
    activations as ``{0,1}`` bits; produces the same encoding.  The
    internal accumulator is evaluated in the bipolar domain exactly like
    the hardware: ``acc = 2*popcount_match - n`` over the packed inputs.
    """

    def __init__(self, mvtu: MVTU, inputs: int) -> None:
        if mvtu.thresholds.bits != 1:
            raise ValueError("dense W1A1 stages need 1-bit thresholds")
        if mvtu.geometry.cols != inputs:
            raise ValueError(
                f"MVTU matrix has {mvtu.geometry.cols} columns, layer has "
                f"{inputs} inputs"
            )
        self.mvtu = mvtu
        self.inputs = inputs

    @property
    def outputs(self) -> int:
        return self.mvtu.geometry.rows

    def forward(self, fm: FeatureMap) -> FeatureMap:
        bits = np.asarray(fm.data).reshape(-1)
        if bits.shape[0] != self.inputs:
            raise ValueError(
                f"expected {self.inputs} inputs, got {bits.shape[0]}"
            )
        if not set(np.unique(bits)).issubset({0, 1}):
            raise ValueError("W1A1 stage consumes {0,1} level codes")
        # Bipolar accumulator: sum w_i * (2 b_i - 1) = 2 * (w . b) - sum(w).
        bipolar = (2 * bits.astype(np.int64) - 1)
        acc = self.mvtu.weights_pm1 @ bipolar
        levels = self.mvtu.thresholds.apply(acc[:, None])[:, 0]
        return FeatureMap(levels.reshape(-1, 1, 1).astype(np.int32), scale=1.0)

    def cycles(self) -> int:
        return self.mvtu.cycles_per_vector()


class MVTUBipolarConvLayer:
    """A W1A1 convolution on the MVTU (the CNV-6 hidden-layer regime).

    Both weights and activations are bipolar ``{-1,+1}``; activations are
    encoded as ``{0,1}`` level codes on the wire.  Only *valid* (pad = 0)
    convolutions are supported: zero padding has no representation in the
    bipolar domain — which is exactly why FINN's CNV topology uses unpadded
    convolutions throughout.
    """

    def __init__(
        self, mvtu: MVTU, in_channels: int, ksize: int, stride: int = 1
    ) -> None:
        if mvtu.thresholds.bits != 1:
            raise ValueError("bipolar conv stages need 1-bit thresholds")
        expected = in_channels * ksize * ksize
        if mvtu.geometry.cols != expected:
            raise ValueError(
                f"MVTU matrix has {mvtu.geometry.cols} columns; conv geometry "
                f"needs {expected}"
            )
        self.mvtu = mvtu
        self.in_channels = in_channels
        self.ksize = ksize
        self.stride = stride

    def out_shape(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        from repro.core.tensor import conv_output_size

        c, h, w = in_shape
        return (
            self.mvtu.geometry.rows,
            conv_output_size(h, self.ksize, self.stride, 0),
            conv_output_size(w, self.ksize, self.stride, 0),
        )

    def forward(self, fm: FeatureMap) -> FeatureMap:
        from repro.core.im2col import im2col

        bits = np.asarray(fm.data)
        if bits.shape[0] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} channels, got {bits.shape[0]}"
            )
        if not set(np.unique(bits)).issubset({0, 1}):
            raise ValueError("W1A1 stage consumes {0,1} level codes")
        bipolar = 2 * bits.astype(np.int64) - 1
        cols = im2col(bipolar, self.ksize, self.stride, 0)
        acc = self.mvtu.weights_pm1 @ cols
        out_c, out_h, out_w = self.out_shape(bits.shape)
        levels = self.mvtu.thresholds.apply(acc).reshape(out_c, out_h, out_w)
        return FeatureMap(levels.astype(np.int32), scale=1.0)

    def cycles(self, in_shape: Tuple[int, int, int]) -> int:
        _, out_h, out_w = self.out_shape(in_shape)
        return self.mvtu.cycles_for(out_h * out_w)


def compile_bipolar_conv_stage(
    conv, folding: Folding
) -> MVTUBipolarConvLayer:
    """Compile a W1A1 Darknet convolution (CNV-6 style) onto the MVTU."""
    if not conv.binary:
        raise ValueError("bipolar fabric stages require binary=1")
    if conv.activation != "sign":
        raise ValueError("the W1A1 regime requires the sign activation")
    if not conv.batch_normalize:
        raise ValueError("bipolar fabric stages expect batch-normalized layers")
    if conv.pad != 0:
        raise ValueError(
            "bipolar convolutions must be unpadded (FINN CNV uses valid convs)"
        )
    weights = conv.effective_weights().reshape(conv.filters, -1)
    thresholds = derive_sign_thresholds(
        conv.scales,
        conv.biases,
        conv.rolling_mean,
        conv.rolling_var,
        in_scale=1.0,
        eps=1e-6,
        fan_in=weights.shape[1],
    )
    mvtu = MVTU(weights, thresholds, folding)
    return MVTUBipolarConvLayer(
        mvtu, in_channels=conv.in_shape[0], ksize=conv.size, stride=conv.stride
    )


def compile_dense_stage(
    layer: ConnectedLayer,
    folding: Folding,
    in_scale: float = 1.0,
) -> MVTUDenseLayer:
    """Compile a binarized Darknet ``[connected]`` layer into an MVTU stage."""
    if not layer.binary:
        raise ValueError("dense fabric stages require binary=1")
    if layer.activation != "sign":
        raise ValueError("the W1A1 regime requires the sign activation")
    if not layer.batch_normalize:
        raise ValueError("dense fabric stages expect batch-normalized layers")
    weights = layer.effective_weights()
    thresholds = derive_sign_thresholds(
        layer.scales,
        layer.biases,
        layer.rolling_mean,
        layer.rolling_var,
        in_scale=in_scale,
        eps=1e-6,
        fan_in=layer.inputs,
    )
    mvtu = MVTU(weights, thresholds, folding)
    return MVTUDenseLayer(mvtu, inputs=layer.inputs)


__all__ = [
    "derive_sign_thresholds",
    "MVTUDenseLayer",
    "compile_dense_stage",
    "MVTUBipolarConvLayer",
    "compile_bipolar_conv_stage",
]
