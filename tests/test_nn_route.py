"""[route] / [reorg] layer tests and the full YOLOv2 topology."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn.network import Network
from repro.nn.zoo import tiny_yolo_config, yolov2_config
from tests.batch_of_one import forward_frame

ROUTE_CFG = """
[net]
width=8
height=8
channels=2

[convolutional]
filters=3
size=3
stride=1
pad=1
activation=relu

[convolutional]
filters=4
size=3
stride=1
pad=1
activation=relu

[route]
layers=-1,-2

[convolutional]
filters=2
size=1
stride=1
pad=0
activation=linear
"""


class TestRouteLayer:
    def test_concatenates_channels(self, rng):
        net = Network.from_cfg(ROUTE_CFG)
        net.initialize(rng)
        route = net.layers[2]
        assert route.out_shape == (7, 8, 8)
        outputs = net.forward_batch_all(
            FeatureMapBatch(rng.normal(size=(1, 2, 8, 8)).astype(np.float32))
        )
        concat = outputs[2].frame(0).data
        assert np.array_equal(concat[:4], outputs[1].frame(0).data)
        assert np.array_equal(concat[4:], outputs[0].frame(0).data)

    def test_forward_shape(self, rng):
        net = Network.from_cfg(ROUTE_CFG)
        net.initialize(rng)
        out = net.forward(FeatureMap(rng.normal(size=(2, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 8)

    def test_absolute_reference(self, rng):
        cfg = ROUTE_CFG.replace("layers=-1,-2", "layers=0")
        net = Network.from_cfg(cfg)
        assert net.layers[2].out_shape == (3, 8, 8)

    def test_forward_reference_rejected(self):
        cfg = ROUTE_CFG.replace("layers=-1,-2", "layers=5")
        with pytest.raises(ValueError, match="outside"):
            Network.from_cfg(cfg)

    def test_mismatched_spatial_sizes_rejected(self):
        cfg = ROUTE_CFG.replace(
            "[route]\nlayers=-1,-2",
            "[maxpool]\nsize=2\nstride=2\n\n[route]\nlayers=-1,-3",
        )
        with pytest.raises(ValueError, match="spatial"):
            Network.from_cfg(cfg)

    def test_requires_history(self, rng):
        net = Network.from_cfg(ROUTE_CFG)
        with pytest.raises(ValueError, match="history"):
            forward_frame(net.layers[2], FeatureMap(np.zeros((4, 8, 8), np.float32)))


REORG_CFG = """
[net]
width=8
height=8
channels=3

[reorg]
stride=2
"""


class TestReorgLayer:
    def test_space_to_depth_shape(self):
        net = Network.from_cfg(REORG_CFG)
        assert net.output_shape == (12, 4, 4)

    def test_preserves_all_values(self, rng):
        net = Network.from_cfg(REORG_CFG)
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        out = net.forward(FeatureMap(x)).data
        assert sorted(out.ravel().tolist()) == sorted(x.ravel().tolist())

    def test_block_structure(self):
        # A checkerboard: each 2x2 block's corners land in distinct slices.
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        net = Network.from_cfg(
            "[net]\nwidth=4\nheight=4\nchannels=1\n[reorg]\nstride=2\n"
        )
        out = net.forward(FeatureMap(x)).data
        assert out.shape == (4, 2, 2)
        # slice (0,0): top-left corners of each block
        assert out[0].tolist() == [[0, 2], [8, 10]]

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            Network.from_cfg(
                "[net]\nwidth=5\nheight=5\nchannels=1\n[reorg]\nstride=2\n"
            )

    def test_scale_passthrough(self, rng):
        net = Network.from_cfg(REORG_CFG)
        fm = FeatureMap(rng.integers(0, 8, size=(3, 8, 8)), scale=1.0 / 7)
        assert forward_frame(net.layers[0], fm).scale == 1.0 / 7


class TestYoloV2:
    def test_topology_builds(self):
        net = Network(yolov2_config())
        assert net.output_shape == (125, 13, 13)
        assert len(net.find_layers("route")) == 2
        assert len(net.find_layers("reorg")) == 1

    def test_passthrough_concat_width(self):
        net = Network(yolov2_config())
        route = net.find_layers("route")[1]
        assert route.out_shape == (1280, 13, 13)  # 1024 + 64*4

    def test_much_heavier_than_tiny(self):
        """§III-A: the full YOLO poses an even bigger challenge."""
        full = Network(yolov2_config()).total_ops()
        tiny = Network(tiny_yolo_config()).total_ops()
        assert full > 4 * tiny

    def test_forward_at_reduced_scale(self, rng):
        """Functional check on a 4x-smaller input (same topology)."""
        config = yolov2_config()
        config.net.options["width"] = "160"
        config.net.options["height"] = "160"
        net = Network(config)
        net.initialize(rng)
        out = net.forward(
            FeatureMap(rng.uniform(size=(3, 160, 160)).astype(np.float32))
        )
        assert out.shape == (125, 5, 5)
