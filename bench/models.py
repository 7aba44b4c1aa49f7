"""Models on disk, seeded inputs and the oracle (see bench/README.md).

A model is what a deployment has: a cfg file and a Darknet ``.weights``
file (plus, for the heterogeneous net, the FINN binparam directory the
cfg's ``[offload]`` section points at).  Network seeds are fixed; the
``--seed`` argument drives only what the program is *fed*: the frames,
the duplicate pattern and the arrival schedule.

Expected outputs never come from the VM or server under test: they are
computed with :mod:`repro.engine.reference` (the frozen walk loops) on a
second ``Network`` object loaded from the same files, and the hybrid
net additionally has to reproduce the repository's pinned golden
detections checksum.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

import repro.finn  # noqa: F401  (registers fabric.so for [offload] cfgs)
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine.reference import legacy_forward_batch_all
from repro.finn.offload_backend import export_offload
from repro.nn.config import NetworkConfig, Section, serialize_config
from repro.nn.network import Network
from repro.nn.weights import load_weights, save_weights
from repro.nn.zoo import cnv6_config, mlp4_config, tincy_yolo_config

#: Pinned in tests/test_golden_e2e.py; bench/test_harness.py checks the
#: two stay equal.
GOLDEN_DETECTIONS_SHA256 = (
    "59d5ddd229cc6798a902697222f68596219faf434503ea0c6b4582d6510c78b5"
)
GOLDEN_THRESHOLD = 0.2
_GOLDEN_NETWORK_SEED = 20180621
_GOLDEN_FRAME_SEED = 20180622
_SMALL_NETWORK_SEED = 11


@dataclass
class Model:
    """A network as files: what every start in the benchmark begins from."""

    name: str
    cfg_path: str
    weights_path: str

    def load(self) -> Network:
        """A fresh ``Network`` from the files (no state shared with others)."""
        with open(self.cfg_path) as handle:
            network = Network.from_cfg(handle.read())
        load_weights(network, self.weights_path)
        return network


def _write(network: Network, directory: str, name: str) -> Model:
    model = Model(
        name,
        os.path.join(directory, name + ".cfg"),
        os.path.join(directory, name + ".weights"),
    )
    with open(model.cfg_path, "w") as handle:
        handle.write(serialize_config(network.config))
    save_weights(network, model.weights_path)
    return model


def _golden_tincy() -> Network:
    """The seeded all-CPU Tincy YOLO of tests/test_golden_e2e.py."""
    rng = np.random.default_rng(_GOLDEN_NETWORK_SEED)
    network = Network(tincy_yolo_config())
    network.initialize(rng)
    for layer in network.layers:
        if layer.ltype != "convolutional":
            continue
        n = layer.filters
        layer.biases = (rng.normal(size=n) * 0.1).astype(np.float32)
        if layer.batch_normalize:
            layer.scales = rng.uniform(0.5, 1.5, size=n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.2).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 1.5, size=n).astype(np.float32)
    return network


def write_tincy_cpu(directory: str) -> Model:
    """All-CPU W1A3 Tincy YOLO 416x416 (the golden test's source network)."""
    return _write(_golden_tincy(), directory, "tincy")


def write_tincy_hybrid(directory: str) -> Model:
    """First conv on CPU -> [offload] fabric.so -> last conv + region.

    Built as the golden test builds it: hidden layers exported to a
    binparam bundle, the CPU layers' parameters copied across.
    """
    network = _golden_tincy()
    binparam = os.path.join(directory, "binparam-tincy")
    export_offload(
        network.layers[1:-2],
        input_scale=network.layers[0].out_quant.scale,
        input_shape=network.layers[0].out_shape,
        directory=binparam,
    )
    sections = [network.config.sections[0], network.config.layers[0]]
    sections.append(
        Section(
            "offload",
            {
                "library": "fabric.so",
                "network": "tincy-yolo-offload.json",
                "weights": binparam,
                "height": "13",
                "width": "13",
                "channel": "512",
            },
        )
    )
    sections.extend(network.config.layers[-2:])
    hybrid = Network(NetworkConfig(sections))
    for src, dst in (
        (network.layers[0], hybrid.layers[0]),
        (network.layers[-2], hybrid.layers[2]),
    ):
        dst.weights = src.weights.copy()
        dst.biases = src.biases.copy()
        if src.batch_normalize:
            dst.scales = src.scales.copy()
            dst.rolling_mean = src.rolling_mean.copy()
            dst.rolling_var = src.rolling_var.copy()
    return _write(hybrid, directory, "tincy-hybrid")


def _write_small(config: NetworkConfig, directory: str, name: str) -> Model:
    network = Network(config)
    network.initialize(np.random.default_rng(_SMALL_NETWORK_SEED))
    return _write(network, directory, name)


def write_cnv6(directory: str) -> Model:
    """CNV-6 32x32 (W1A1 behind an 8-bit first layer)."""
    return _write_small(cnv6_config(), directory, "cnv6")


def write_mlp4(directory: str) -> Model:
    """MLP-4 28x28 (the --smoke stand-in for the all-CPU Tincy net)."""
    return _write_small(mlp4_config(), directory, "mlp4")


# -- inputs ------------------------------------------------------------------


def make_frames(shape: Sequence[int], count: int, seed: int) -> List[FeatureMap]:
    """*count* distinct float32 frames in [0, 1), a pure function of *seed*."""
    rng = np.random.default_rng([seed, 1])
    data = rng.random(size=(count,) + tuple(shape), dtype=np.float32)
    return [FeatureMap(data[i]) for i in range(count)]


def golden_frame() -> FeatureMap:
    """The seeded frame whose detections are pinned by checksum."""
    rng = np.random.default_rng(_GOLDEN_FRAME_SEED)
    return FeatureMap(rng.uniform(0, 1, size=(3, 416, 416)).astype(np.float32))


def duplicate_order(
    pool: int, length: int, seed: int, repeat_p: float = 0.75, recent: int = 16
) -> List[int]:
    """Camera-like traffic: repeat one of the last *recent* distinct frames
    with probability *repeat_p*, else send a new one."""
    rng = np.random.default_rng([seed, 2])
    repeats = rng.random(length) < repeat_p
    picks = rng.integers(0, recent, size=length)
    order: List[int] = []
    fresh = 0
    for position in range(length):
        if repeats[position] and fresh > 0:
            back = int(picks[position]) % min(recent, fresh)
            order.append((fresh - 1 - back) % pool)
        else:
            order.append(fresh % pool)
            fresh += 1
    return order


def arrival_offsets(rate_hz: float, seconds: float, seed: int) -> List[float]:
    """Due times of an open-loop phase: mean rate *rate_hz*, seeded gaps of
    0.5-1.5 periods (aperiodic, so arrivals do not lock step with the
    batcher's deadline)."""
    rng = np.random.default_rng([seed, 3])
    count = int(rate_hz * seconds)
    gaps = rng.uniform(0.5, 1.5, size=count) / rate_hz
    return [float(t) for t in np.cumsum(gaps) - gaps[0]]


def inputs_digest(
    frames: Sequence[FeatureMap], order: Sequence[int], offsets: Sequence[float]
) -> str:
    """sha256 over everything the seed generated (the determinism check)."""
    hasher = hashlib.sha256()
    for frame in frames:
        hasher.update(frame.data.tobytes())
    hasher.update(np.asarray(order, dtype=np.int64).tobytes())
    hasher.update(np.asarray(offsets, dtype=np.float64).tobytes())
    return hasher.hexdigest()


# -- the oracle --------------------------------------------------------------


class Oracle:
    """Expected outputs from the frozen reference walk on its own Network."""

    def __init__(self, model: Model) -> None:
        self.network = model.load()

    def outputs(self, frames: Sequence[FeatureMap]) -> List[FeatureMap]:
        batch = FeatureMapBatch.from_maps(list(frames))
        out = legacy_forward_batch_all(self.network, batch)[-1]
        return [frame.copy() for frame in out.frames()]

    def detections_digest(self, output: FeatureMap) -> str:
        """Canonical sha256 of the decoded detections (as the golden test)."""
        region = self.network.layers[-1]
        rows = [
            f"{det.class_id} {det.score:.3f} {det.objectness:.3f} "
            f"{det.box.x:.3f} {det.box.y:.3f} {det.box.w:.3f} {det.box.h:.3f}"
            for det in region.detections(output, threshold=GOLDEN_THRESHOLD)
        ]
        return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def well_formed(got, expected: FeatureMap) -> bool:
    """Shape/dtype check applied to every response (cheap, all requests)."""
    return (
        isinstance(got, FeatureMap)
        and got.data.dtype == expected.data.dtype
        and got.data.shape == expected.data.shape
    )


def same_output(got, expected: FeatureMap) -> bool:
    """Byte equality of one response against the oracle's."""
    return (
        well_formed(got, expected)
        and got.scale == expected.scale
        and np.array_equal(got.data, expected.data)
    )
