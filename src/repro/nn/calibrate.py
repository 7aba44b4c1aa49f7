"""Activation-range calibration for the fake-quantized network.

The zoo's default activation step (``1/(2**bits - 1)``, i.e. a [0, 1]
range) is right for normalized feature maps but wasteful when a layer's
activations concentrate well below 1 or overflow above it.  Calibration
runs representative inputs through the float network, records a high
percentile of each quantized layer's pre-quantization activations and
re-scales its quantizer so the observed range maps onto the available
levels — the standard post-training-quantization recipe, and the knob the
paper turns implicitly when it quantizes "the image data while arranging
the multiplicand matrix".
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.nn.network import Network


def calibrate_activation_scales(
    network: Network,
    inputs: Iterable[np.ndarray],
    percentile: float = 99.9,
    min_scale: float = 1e-6,
) -> Dict[int, float]:
    """Set each quantized conv layer's activation step from observed data.

    ``inputs`` are float images ``(C, H, W)``.  Returns the new scale per
    layer index.  The forward pass used for observation is the *quantized*
    one up to each layer (so downstream layers calibrate against the maps
    they will actually see), with the pre-quantization distribution
    recorded at every quantized layer.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    observed: Dict[int, List[float]] = {
        index: []
        for index, layer in enumerate(network.layers)
        if isinstance(layer, ConvolutionalLayer) and layer.out_quant is not None
    }
    if not observed:
        return {}

    count = 0
    for image in inputs:
        count += 1
        fmb = FeatureMapBatch(np.asarray(image, dtype=np.float32)[np.newaxis])
        # The VM's keep-everything traversal supplies every layer's
        # quantized input map; each observed layer's pre-quantization
        # activation is then its own first half on that input.
        outputs = network.forward_batch_all(fmb)
        for index in observed:
            layer_input = fmb if index == 0 else outputs[index - 1]
            values = network.layers[index].forward_batch_pre(layer_input).data
            observed[index].append(
                float(np.percentile(values, percentile))
            )
    if count == 0:
        raise ValueError("calibration needs at least one input")

    new_scales: Dict[int, float] = {}
    for index, peaks in observed.items():
        layer = network.layers[index]
        top = max(max(peaks), min_scale)
        scale = top / layer.out_quant.levels
        layer.out_quant.scale = scale
        layer.section.options["activation_scale"] = str(scale)
        new_scales[index] = scale
    return new_scales


def quantization_sqnr(
    network: Network, inputs: Iterable[np.ndarray]
) -> float:
    """Signal-to-quantization-noise ratio (dB) of the network output.

    Compares the quantized network against its float twin (quantizers and
    binarization disabled) on *inputs*; higher is better.  The calibration
    tests use this to show re-scaling recovers fidelity.
    """
    signal_power = 0.0
    noise_power = 0.0
    for image in inputs:
        fm = FeatureMap(np.asarray(image, dtype=np.float32))
        quantized = network.forward(fm).values()
        float_out = _float_forward(network, fm)
        signal_power += float(np.sum(float_out.astype(np.float64) ** 2))
        noise_power += float(
            np.sum((quantized.astype(np.float64) - float_out) ** 2)
        )
    if noise_power == 0.0:
        return float("inf")
    return 10.0 * np.log10(signal_power / noise_power)


def _float_forward(network: Network, fm: FeatureMap) -> np.ndarray:
    """Forward pass with all quantization disabled (binarization kept —
    binary weights are part of the topology, not the activation coding)."""
    saved = []
    for layer in network.layers:
        quant = getattr(layer, "out_quant", None)
        saved.append(quant)
        if quant is not None:
            layer.out_quant = None
    network._invalidate_vms()
    try:
        out = network.forward(fm).values().copy()
    finally:
        for layer, quant in zip(network.layers, saved):
            if quant is not None:
                layer.out_quant = quant
        network._invalidate_vms()
    return out


__all__ = [
    "calibrate_activation_scales",
    "quantization_sqnr",
]
