"""Golden end-to-end regression: Tincy YOLO detections, pinned by checksum.

One seeded 416x416 frame runs through the full hybrid (CPU -> fabric ->
CPU) Tincy YOLO network along every way the stack offers to reach the
one runtime (``PlanVM``):

1. in process (``Network.forward_batch``),
2. the serving path (``InferenceServer.infer``, fabric mode),
3. the degraded CPU-fallback path (an injected fabric fault with a zero
   retry budget forces the breaker's reference route),
4. the serialized artifact (compiled at ``-O0`` and ``-O2``, encoded,
   decoded and executed),
5. the 3-shard tier with a shard killed mid-run.

All outputs must be **byte-equal** to each other, and the decoded
detections (class ids, scores, box coordinates) must hash to the pinned
golden checksum.  The checksum is computed over values rounded to 1e-3,
so it survives the sub-1e-6 float noise of differing BLAS builds while
still pinning every detection, its ranking and its geometry.

The golden value was produced by this very test (run it with ``-v`` on a
mismatch to see the recomputed digest); update it only when an
intentional numerics change is being made, and say so in the commit.
"""

import hashlib

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
from repro import faults
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.finn.offload_backend import export_offload
from repro.nn.config import NetworkConfig, Section
from repro.nn.network import Network
from repro.nn.zoo import tincy_yolo_config
from repro.serve import InferenceServer, ServeConfig
from repro.util.clock import VirtualClock

pytestmark = pytest.mark.integration

#: sha256 of the decoded detections of the seeded golden frame.
GOLDEN_DETECTIONS_SHA256 = (
    "59d5ddd229cc6798a902697222f68596219faf434503ea0c6b4582d6510c78b5"
)

#: Decode threshold for the golden detections (high enough to keep the
#: set small and stable, low enough to retain a handful of boxes).
GOLDEN_THRESHOLD = 0.2


def golden_tincy_network() -> Network:
    """The seeded all-CPU Tincy YOLO the golden hybrid net is cut from."""
    rng = np.random.default_rng(20180621)
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


@pytest.fixture(scope="module")
def tincy_hybrid(tmp_path_factory):
    """Seeded full-scale Tincy YOLO with its hidden layers offloaded."""
    network = golden_tincy_network()

    binparam = str(tmp_path_factory.mktemp("binparam-golden"))
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
    hybrid.layers[1].backend.load_weights()
    return hybrid


@pytest.fixture(scope="module")
def golden_frame():
    rng = np.random.default_rng(20180622)
    return FeatureMap(
        rng.uniform(0, 1, size=(3, 416, 416)).astype(np.float32)
    )


def detections_digest(region, fm: FeatureMap) -> str:
    """Canonical sha256 of the decoded detections (rounded to 1e-3)."""
    rows = []
    for det in region.detections(fm, threshold=GOLDEN_THRESHOLD):
        rows.append(
            f"{det.class_id} {det.score:.3f} {det.objectness:.3f} "
            f"{det.box.x:.3f} {det.box.y:.3f} {det.box.w:.3f} {det.box.h:.3f}"
        )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _in_process(network, frame: FeatureMap) -> FeatureMap:
    return network.forward_batch(FeatureMapBatch.from_maps([frame])).frame(0)


class TestGoldenDetections:
    def test_three_paths_byte_equal_and_pinned(self, tincy_hybrid, golden_frame):
        # Path 1: in process.
        engine_out = _in_process(tincy_hybrid, golden_frame)

        # Path 2: the serving path (fabric mode).
        clock = VirtualClock()
        config = ServeConfig(max_batch=1, cpu_workers=1, warmup=False)
        with InferenceServer(tincy_hybrid, config, clock=clock) as server:
            served_out = server.infer(golden_frame, timeout_s=120)

        # Path 3: the degraded CPU-fallback path — a zero retry budget plus
        # one injected fabric fault forces the reference route.
        clock = VirtualClock()
        degraded_config = ServeConfig(
            max_batch=1,
            cpu_workers=1,
            warmup=False,
            max_retries=0,
            breaker_threshold=1,
            breaker_probe_after_s=1000.0,
        )
        plan = faults.FaultPlan.parse("fabric-raise@0")
        with faults.install(plan, clock=clock):
            with InferenceServer(
                tincy_hybrid, degraded_config, clock=clock
            ) as server:
                degraded_out = server.infer(golden_frame, timeout_s=120)
                resilience = server.metrics.snapshot()["resilience"]
        assert resilience["degraded_inferences"] == 1  # path 3 really degraded

        # One fixture, three paths, byte-equal.
        for other in (served_out, degraded_out):
            assert other.scale == engine_out.scale
            assert np.array_equal(other.data, engine_out.data)

        # And the detections match the pinned golden checksum.
        region = tincy_hybrid.layers[-1]
        digest = detections_digest(region, engine_out)
        detections = region.detections(engine_out, threshold=GOLDEN_THRESHOLD)
        assert len(detections) > 0  # the threshold keeps a non-empty set
        assert digest == GOLDEN_DETECTIONS_SHA256, (
            f"golden detections drifted: got sha256 {digest} over "
            f"{len(detections)} detections (expected "
            f"{GOLDEN_DETECTIONS_SHA256}); if the numerics change is "
            f"intentional, update GOLDEN_DETECTIONS_SHA256"
        )

    @pytest.mark.parametrize("level", [0, 2])
    def test_decoded_artifact_matches_golden(
        self, tincy_hybrid, golden_frame, level
    ):
        # Path 4: the serialized artifact — compile, encode, decode, run.
        # Neither the bytecode form nor the optimizer (fused chains, folded
        # requantization, embedded liveness at -O2) may perturb a single bit.
        from repro.isa import PlanVM, compile_network, decode, encode

        program, _stats = compile_network(
            tincy_hybrid, name="tincy", level=level
        )
        program = decode(encode(program))
        assert program.uses_fabric and program.opt_level == level
        batch = FeatureMapBatch.from_maps([golden_frame])
        out = PlanVM(program, tincy_hybrid).run(batch).frame(0)
        engine_out = _in_process(tincy_hybrid, golden_frame)
        assert out.scale == engine_out.scale
        assert np.array_equal(out.data, engine_out.data)
        region = tincy_hybrid.layers[-1]
        assert detections_digest(region, out) == GOLDEN_DETECTIONS_SHA256

    def test_shard_tier_survives_mid_run_kill_and_matches_golden(
        self, tincy_hybrid, golden_frame
    ):
        # Path 5: the multi-process shard tier.  Full-scale Tincy behind
        # a 3-shard router, with one shard SIGKILLed by the chaos plan
        # between the first and second request — every answer must still
        # be byte-equal to the in-process run and hash to the pinned checksum.
        from repro.serve import ShardTierConfig, ShardedServer
        from repro.serve.shard import fork_available

        if not fork_available():
            pytest.skip("shard tier needs the fork start method")

        engine_out = _in_process(tincy_hybrid, golden_frame)

        config = ShardTierConfig(
            shards=3,
            result_cache=0,  # force a real dispatch per request
            coalesce=False,
            heartbeat_timeout_s=60.0,  # a busy Tincy shard is not hung
        )
        plan = faults.FaultPlan.parse("shard-kill@1")
        with faults.install(plan) as injector:
            with ShardedServer(tincy_hybrid, config) as server:
                outputs = [
                    server.infer(golden_frame, timeout_s=300) for _ in range(3)
                ]
                tier = server.snapshot()["shard_tier"]
                alive = server.router.alive_shards()
            events = injector.events()

        assert events == [(faults.SHARD_KILL, "shard-kill", 1, "")]
        assert tier["shard_deaths"] == 1
        assert len(alive) == 2  # the survivors kept serving
        for out in outputs:
            assert out.scale == engine_out.scale
            assert np.array_equal(out.data, engine_out.data)

        region = tincy_hybrid.layers[-1]
        assert detections_digest(region, outputs[-1]) == GOLDEN_DETECTIONS_SHA256
