"""Fig. 3 / Fig. 4 — the generic offload mechanism.

Regenerates the Fig. 4 flow end to end: a W1A3 sub-network is exported to
a binparam bundle, an ``[offload]`` layer with ``library=fabric.so`` takes
its place, and the hybrid network must agree with the original exactly.
The benchmark times the offloaded forward pass (bit-faithful integer
emulation) and the report contrasts it against running the same layers on
the float path.
"""

import time

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so)
from repro.core.tensor import FeatureMap
from repro.finn.offload_backend import export_offload
from repro.nn.network import Network
from repro.util.tables import format_table

FULL_CFG = """
[net]
width=64
height=64
channels=3

[convolutional]
batch_normalize=1
filters=16
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[convolutional]
batch_normalize=1
filters=32
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
filters=32
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3

[convolutional]
filters=8
size=1
stride=1
pad=0
activation=linear
"""

HYBRID_CFG = """
[net]
width=64
height=64
channels=3

[convolutional]
batch_normalize=1
filters=16
size=3
stride=2
pad=1
activation=relu
activation_bits=3

[offload]
library=fabric.so
network=hidden.cfg
weights={binparam}
height=16
width=16
channel=32

[convolutional]
filters=8
size=1
stride=1
pad=0
activation=linear
"""


@pytest.fixture(scope="module")
def networks(tmp_path_factory):
    rng = np.random.default_rng(7)
    full = Network.from_cfg(FULL_CFG)
    full.initialize(rng)
    for layer in full.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.biases = rng.normal(size=n).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.5).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
    binparam = str(tmp_path_factory.mktemp("binparam"))
    export_offload(
        full.layers[1:4],
        input_scale=full.layers[0].out_quant.scale,
        input_shape=full.layers[0].out_shape,
        directory=binparam,
    )
    hybrid = Network.from_cfg(HYBRID_CFG.format(binparam=binparam))
    for src_index, dst_index in ((0, 0), (4, 2)):
        src, dst = full.layers[src_index], hybrid.layers[dst_index]
        dst.weights = src.weights.copy()
        dst.biases = src.biases.copy()
        if src.batch_normalize:
            dst.scales = src.scales.copy()
            dst.rolling_mean = src.rolling_mean.copy()
            dst.rolling_var = src.rolling_var.copy()
    hybrid.layers[1].backend.load_weights()
    return full, hybrid


def test_fig4_hybrid_forward(benchmark, networks, report):
    full, hybrid = networks
    rng = np.random.default_rng(1)
    x = FeatureMap(rng.uniform(size=(3, 64, 64)).astype(np.float32))

    got = benchmark(hybrid.forward, x)
    expected = full.forward(x)
    assert np.allclose(got.data, expected.data, atol=1e-5)

    t0 = time.perf_counter()
    full.forward(x)
    float_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    hybrid.forward(x)
    hybrid_time = time.perf_counter() - t0
    backend = hybrid.layers[1].backend
    report(
        "Fig. 3/4: generic offload mechanism (fabric.so)",
        format_table(
            ["Quantity", "Value"],
            [
                ("hybrid output == float W1A3 network", "exact (atol 1e-5)"),
                ("offloaded ops/frame", f"{backend.ops_per_frame():,}"),
                ("modeled fabric time", f"{backend.time_per_frame() * 1e3:.2f} ms"),
                ("host emulation: float path", f"{float_time * 1e3:.1f} ms"),
                ("host emulation: hybrid path", f"{hybrid_time * 1e3:.1f} ms"),
            ],
        ),
    )


def test_fig3_lifecycle_hooks(benchmark):
    """The init/load_weights/forward/destroy cycle itself (Fig. 3); the
    forward hook is ``forward_batch``, as Darknet's forward runs a batch."""
    from repro.nn.registry import register_backend, unregister_backend

    events = []

    class Probe:
        def init(self, section, in_shape):
            events.append("init")
            return in_shape

        def load_weights(self):
            events.append("load_weights")

        def forward_batch(self, fmb):
            events.append("forward_batch")
            return fmb

        def destroy(self):
            events.append("destroy")

    register_backend("probe.so", Probe)
    try:
        cfg = (
            "[net]\nwidth=4\nheight=4\nchannels=2\n"
            "[offload]\nlibrary=probe.so\nnetwork=x\nweights=x\n"
            "height=4\nwidth=4\nchannel=2\n"
        )

        def lifecycle():
            events.clear()
            net = Network.from_cfg(cfg)
            net.load_weights_array(np.zeros(0, dtype=np.float32))
            net.forward(FeatureMap(np.zeros((2, 4, 4), dtype=np.float32)))
            net.destroy()
            return list(events)

        sequence = benchmark(lifecycle)
        assert sequence == ["init", "load_weights", "forward_batch", "destroy"]
    finally:
        unregister_backend("probe.so")
