"""End-to-end demo-mode tests (Fig. 5 with a real network and camera)."""

import numpy as np
import pytest

from repro.nn.network import Network
from repro.pipeline.demo import run_demo
from repro.video.sink import CollectingSink
from repro.video.source import SyntheticCamera

DEMO_CFG = """
[net]
width=48
height=48
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=2
pad=1
activation=relu

[convolutional]
batch_normalize=1
filters=16
size=3
stride=2
pad=1
activation=relu

[maxpool]
size=2
stride=2

[convolutional]
filters=125
size=1
stride=1
pad=0
activation=linear

[region]
classes=20
num=5
"""


@pytest.fixture
def demo_network(rng):
    network = Network.from_cfg(DEMO_CFG)
    network.initialize(rng)
    return network


class TestDemoStages:
    def test_offload_layer_tagged_fabric(self, rng, tmp_path):
        # Reuse the offload round-trip fixture network from test_finn_offload.
        from repro.finn.offload_backend import export_offload
        from tests.test_finn_offload import FULL_CFG, HYBRID_CFG_TEMPLATE, _trained

        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        # A hybrid network without a region head is refused before any
        # frame is read.
        camera = SyntheticCamera(seed=0)
        sink = CollectingSink()
        with pytest.raises(ValueError, match="region"):
            run_demo(hybrid, camera, sink, n_frames=1)
        assert len(sink) == 0

    def test_requires_region_head(self, rng):
        network = Network.from_cfg(
            "[net]\nwidth=8\nheight=8\nchannels=3\n"
            "[convolutional]\nfilters=4\nsize=1\nstride=1\npad=0\nactivation=linear\n"
        )
        with pytest.raises(ValueError, match="region"):
            run_demo(network, SyntheticCamera(seed=0), CollectingSink(), n_frames=1)


class TestRunDemo:
    def test_processes_frames_in_order(self, demo_network):
        camera = SyntheticCamera(seed=1, height=48, width=64)
        sink = CollectingSink()
        payloads = run_demo(
            demo_network, camera, sink, n_frames=6, workers=4,
            detection_threshold=0.9,
        )
        assert len(payloads) == 6
        assert [p.frame.index for p in payloads] == list(range(6))
        assert len(sink) == 6
        for payload in payloads:
            assert payload.annotated.shape == (3, 48, 64)

    def test_single_worker_equivalent_output(self, demo_network):
        def run(workers):
            camera = SyntheticCamera(seed=2, height=48, width=64)
            sink = CollectingSink()
            payloads = run_demo(
                demo_network, camera, sink, n_frames=4, workers=workers,
                detection_threshold=0.5,
            )
            return [p.annotated for p in payloads]

        frames1 = run(1)
        frames4 = run(4)
        for a, b in zip(frames1, frames4):
            assert np.array_equal(a, b)

    def test_detections_attached_to_frames(self, demo_network):
        camera = SyntheticCamera(seed=3, height=48, width=64)
        sink = CollectingSink()
        payloads = run_demo(
            demo_network, camera, sink, n_frames=2, workers=2,
            detection_threshold=0.0,
        )
        # Threshold 0: the untrained network reports plenty of candidates.
        assert all(len(p.detections) > 0 for p in payloads)
        for payload in payloads:
            assert payload.frame.detections == payload.detections
