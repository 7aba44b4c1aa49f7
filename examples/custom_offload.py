#!/usr/bin/env python3
"""Writing a custom offload backend — the Fig. 3/4 extension mechanism.

Two demonstrations:

1. a tiny hand-written backend (a blur "accelerator") plugged into a
   Darknet cfg through ``[offload]`` + ``register_backend``;
2. the real flow: exporting a trained W1A3 sub-network with
   ``export_offload`` and running it on the simulated FINN fabric via
   ``library=fabric.so``, checking the hybrid network agrees with the
   original bit for bit.

Run:  python examples/custom_offload.py
"""

import tempfile

import numpy as np

import repro.finn  # noqa: F401  (registers fabric.so)
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.finn.offload_backend import export_offload
from repro.nn.network import Network
from repro.nn.registry import register_backend

# --- 1. a hand-written backend --------------------------------------------------


class BlurBackend:
    """A silly 'accelerator': 2x2 mean pooling (halves the geometry)."""

    def init(self, section, in_shape):
        c, h, w = in_shape
        self.out_shape = (c, h // 2, w // 2)
        return self.out_shape

    def load_weights(self):
        print("  BlurBackend.load_weights() called (nothing to load)")

    def forward_batch(self, fmb):
        d = fmb.data
        pooled = 0.25 * (d[:, :, ::2, ::2] + d[:, :, 1::2, ::2]
                         + d[:, :, ::2, 1::2] + d[:, :, 1::2, 1::2])
        return FeatureMapBatch(pooled.astype(np.float32), scale=fmb.scale)

    def destroy(self):
        print("  BlurBackend.destroy() called")


CUSTOM_CFG = """
[net]
width=32
height=32
channels=3

[offload]
library=blur.so
network=none
weights=none
height=16
width=16
channel=3
"""

# --- 2. the real fabric flow -----------------------------------------------------

QUANTIZED_CFG = """
[net]
width=32
height=32
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[convolutional]
batch_normalize=1
filters=16
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=16
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[convolutional]
filters=4
size=1
stride=1
pad=0
activation=linear
"""

HYBRID_CFG = """
[net]
width=32
height=32
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[offload]
library=fabric.so
network=hidden.cfg
weights={binparam}
height=8
width=8
channel=16

[convolutional]
filters=4
size=1
stride=1
pad=0
activation=linear
"""


def randomize(network, rng):
    for layer in network.layers:
        if layer.ltype != "convolutional":
            continue
        layer.initialize(rng)
        n = layer.filters
        layer.biases = rng.normal(size=n).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.5).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)


def main() -> None:
    rng = np.random.default_rng(42)

    print("=== 1. hand-written backend through [offload] ===")
    register_backend("blur.so", BlurBackend)
    network = Network.from_cfg(CUSTOM_CFG)
    network.load_weights_array(np.zeros(0, dtype=np.float32))
    x = FeatureMap(rng.uniform(size=(3, 32, 32)).astype(np.float32))
    out = network.forward(x)
    print(f"  blur offload: {x.shape} -> {out.shape}")
    network.destroy()

    print("\n=== 2. exporting a W1A3 sub-network to the FINN fabric ===")
    full = Network.from_cfg(QUANTIZED_CFG)
    randomize(full, rng)
    with tempfile.TemporaryDirectory() as tmp:
        binparam = f"{tmp}/binparam-example"
        export_offload(
            full.layers[1:4],  # conv / pool / conv (the W1A3 run)
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        print(f"  exported binparam bundle to {binparam}")
        hybrid = Network.from_cfg(HYBRID_CFG.format(binparam=binparam))
        # Copy the CPU layers' parameters (input + output convolutions).
        for src_index, dst_index in ((0, 0), (4, 2)):
            src, dst = full.layers[src_index], hybrid.layers[dst_index]
            dst.weights = src.weights.copy()
            dst.biases = src.biases.copy()
            if src.batch_normalize:
                dst.scales = src.scales.copy()
                dst.rolling_mean = src.rolling_mean.copy()
                dst.rolling_var = src.rolling_var.copy()
        hybrid.layers[1].backend.load_weights()

        frame = FeatureMap(rng.uniform(size=(3, 32, 32)).astype(np.float32))
        expected = full.forward(frame)
        got = hybrid.forward(frame)
        agree = np.allclose(got.data, expected.data, atol=1e-5)
        print(f"  hybrid (CPU + fabric) output equals float W1A3 network: {agree}")
        backend = hybrid.layers[1].backend
        print(f"  modeled fabric time for the offloaded run: "
              f"{backend.time_per_frame() * 1e3:.2f} ms")
        assert agree


if __name__ == "__main__":
    main()
