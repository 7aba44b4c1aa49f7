"""Failure-injection tests: corrupted artifacts and misuse must fail loudly.

"Errors should never pass silently" — these tests poke corrupted weight
files, mangled binparam bundles and mismatched offload declarations,
asserting that every one surfaces as a clear error rather than silently
wrong numbers.  (A batch that crashes mid-flight in the served pipeline
is covered by ``tests/test_serve_server.py``.)

*Runtime* failures are injected through the production seams of
:mod:`repro.faults` (never by monkeypatching internals): the same
``FaultPlan``/``install`` machinery the fault matrix and ``repro
serve-bench --faults`` use, exercised here against the raw network,
engine and demo paths below the serving stack.
"""

import json
import os

import numpy as np
import pytest

import repro.finn  # noqa: F401
from repro import faults
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.finn.offload_backend import FabricBackend, export_offload
from repro.nn.config import Section
from repro.nn.network import Network
from repro.nn.weights import load_binparam, load_weights, save_binparam, save_weights
from repro.pipeline.demo import run_demo
from repro.video.sink import CollectingSink
from repro.video.source import SyntheticCamera

SMALL_CFG = """
[net]
width=16
height=16
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
filters=8
size=3
stride=1
pad=1
activation=relu
binary=1
activation_bits=3
"""


@pytest.fixture
def exported_bundle(rng, tmp_path):
    network = Network.from_cfg(SMALL_CFG)
    network.initialize(rng)
    for layer in network.layers:
        layer.scales = rng.uniform(0.5, 2.0, size=8).astype(np.float32)
        layer.rolling_var = rng.uniform(0.5, 2.0, size=8).astype(np.float32)
    directory = str(tmp_path / "binparam")
    export_offload(
        network.layers[1:2],
        input_scale=network.layers[0].out_quant.scale,
        input_shape=network.layers[0].out_shape,
        directory=directory,
    )
    return network, directory


HYBRID_DEMO_CFG = """
[net]
width=16
height=16
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
channel=8

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
def small_hybrid(exported_bundle, rng):
    """CPU -> fabric -> CPU -> region mini network over the exported bundle."""
    network, directory = exported_bundle
    hybrid = Network.from_cfg(HYBRID_DEMO_CFG.format(binparam=directory))
    hybrid.initialize(rng)
    src, dst = network.layers[0], hybrid.layers[0]
    dst.weights = src.weights.copy()
    dst.biases = src.biases.copy()
    dst.scales = src.scales.copy()
    dst.rolling_mean = src.rolling_mean.copy()
    dst.rolling_var = src.rolling_var.copy()
    hybrid.layers[1].backend.load_weights()
    return hybrid


class TestCorruptedWeights:
    def test_truncated_payload(self, rng, tmp_path):
        network = Network.from_cfg(SMALL_CFG)
        network.initialize(rng)
        path = str(tmp_path / "net.weights")
        save_weights(network, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        # Depending on where the cut lands this is either a stream underrun
        # or a misaligned payload — both must be loud.
        with pytest.raises((EOFError, ValueError), match="exhausted|aligned"):
            load_weights(Network.from_cfg(SMALL_CFG), path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.weights"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated"):
            load_weights(Network.from_cfg(SMALL_CFG), str(path))


class TestCorruptedBinparam:
    def test_missing_manifest(self, exported_bundle):
        _, directory = exported_bundle
        os.remove(os.path.join(directory, "manifest.json"))
        with pytest.raises(FileNotFoundError):
            load_binparam(directory)

    def test_wrong_format_marker(self, exported_bundle):
        _, directory = exported_bundle
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["format"] = "something-else"
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(ValueError, match="binparam"):
            load_binparam(directory)

    def test_missing_array_file(self, exported_bundle):
        _, directory = exported_bundle
        victims = [f for f in os.listdir(directory) if f.endswith("-weights.npy")]
        os.remove(os.path.join(directory, victims[0]))
        with pytest.raises(FileNotFoundError):
            load_binparam(directory)

    def test_tampered_threshold_shape_detected(self, exported_bundle):
        network, directory = exported_bundle
        # Replace thresholds with a wrong-width array: ThresholdActivation
        # validation must reject it at backend build time.
        path = os.path.join(directory, "stage00-thresholds.npy")
        np.save(path, np.zeros((8, 3), dtype=np.int64))  # 3 != 7 for 3 bits
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": directory})
        with pytest.raises(ValueError, match="thresholds"):
            backend.init(section, network.layers[0].out_shape)

    def test_tampered_weights_detected(self, exported_bundle):
        network, directory = exported_bundle
        path = os.path.join(directory, "stage00-weights.npy")
        corrupt = np.load(path)
        corrupt[0, 0] = 3  # not a {-1,+1} weight
        np.save(path, corrupt)
        backend = FabricBackend()
        section = Section("offload", {"library": "fabric.so", "weights": directory})
        with pytest.raises(ValueError, match="binary"):
            backend.init(section, network.layers[0].out_shape)


class TestMisuse:
    def test_network_with_offload_but_no_finn_import(self, tmp_path):
        """A helpful LookupError, not an AttributeError, for unknown libs."""
        cfg = (
            "[net]\nwidth=8\nheight=8\nchannels=1\n"
            "[offload]\nlibrary=not-registered.so\nnetwork=x\nweights=x\n"
            "height=8\nwidth=8\nchannel=1\n"
        )
        with pytest.raises(LookupError, match="not-registered.so"):
            Network.from_cfg(cfg)

    def test_feature_map_must_be_3d(self):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            FeatureMap(np.zeros((4, 4)))

    def test_save_binparam_roundtrip_meta(self, tmp_path):
        directory = str(tmp_path / "bundle")
        save_binparam(directory, {"a": np.arange(4)}, meta={"k": 1})
        arrays, meta = load_binparam(directory)
        assert np.array_equal(arrays["a"], np.arange(4))
        assert meta == {"k": 1}


class TestInjectedRuntimeFaults:
    """Runtime faults, routed through the ``repro.faults`` seams."""

    def test_injected_backend_fault_fails_loudly(self, small_hybrid, rng):
        frame = FeatureMap(
            rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32)
        )
        plan = faults.FaultPlan.parse("fabric-raise/fabric.backend@0")
        with faults.install(plan) as injector:
            with pytest.raises(faults.FabricFault):
                small_hybrid.forward(frame)
            assert injector.events() == [
                (faults.FABRIC_BACKEND, faults.FABRIC_RAISE, 0, "")
            ]
        # With the plan gone the same call succeeds untouched.
        assert small_hybrid.forward(frame).shape == (125, 8, 8)

    def test_scrub_catches_injected_corruption(self, small_hybrid, rng):
        batch = FeatureMapBatch.from_maps(
            [
                FeatureMap(rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32))
                for _ in range(2)
            ]
        )
        vm = small_hybrid.vm()
        plan = faults.FaultPlan.parse("fabric-corrupt@0", seed=5)
        with faults.install(plan):
            with pytest.raises(faults.FabricCorruption):
                vm.run(batch, fabric_mode="scrub")
        # Without the scrub cross-check the corruption *would* be silent:
        # that is exactly why the serving stack can opt into scrub mode.
        with faults.install(plan):
            corrupted = vm.run(batch, fabric_mode="fabric")
        clean = vm.run(batch, fabric_mode="fabric")
        assert not np.array_equal(corrupted.data, clean.data)

    def test_reference_path_bypasses_fault_seams(self, small_hybrid, rng):
        batch = FeatureMapBatch.from_maps(
            [FeatureMap(rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32))]
        )
        clean = small_hybrid.forward_batch(batch)
        vm = small_hybrid.vm()
        # Every fabric invocation would fail — the reference path must not
        # even consult the seams (it is the degraded route of last resort).
        plan = faults.FaultPlan.parse(
            "fabric-raise%1.0;fabric-raise/fabric.backend%1.0", seed=1
        )
        with faults.install(plan) as injector:
            out = vm.run(batch, fabric_mode="reference")
            assert injector.events() == []
        assert out.scale == clean.scale
        assert np.array_equal(out.data, clean.data)

    def test_demo_degrades_and_banners_on_injected_fault(self, small_hybrid):
        def run(plan_spec):
            camera = SyntheticCamera(seed=5, height=24, width=32)
            sink = CollectingSink()
            if plan_spec is None:
                return run_demo(
                    small_hybrid, camera, sink, n_frames=2, workers=1,
                    detection_threshold=0.0,
                )
            with faults.install(faults.FaultPlan.parse(plan_spec)):
                return run_demo(
                    small_hybrid, camera, sink, n_frames=2, workers=1,
                    detection_threshold=0.0,
                )

        clean = run(None)
        faulted = run("fabric-raise/fabric.backend@0")
        # Frame 0 hit the injected fault and fell back; frame 1 did not.
        assert faulted[0].degraded and not faulted[1].degraded
        # Degraded output is bit-identical — only the banner differs.
        for got, want in zip(faulted, clean):
            assert np.array_equal(got.fm.data, want.fm.data)
            assert got.detections == want.detections
        banner = faulted[0].annotated
        assert np.all(banner[0, 0, :] == 1.0)  # top row: pure red
        assert np.all(banner[1:, 0, :] == 0.0)
        assert np.array_equal(faulted[1].annotated, clean[1].annotated)
