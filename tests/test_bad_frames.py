"""A bad frame fails alone, at the door (ROADMAP item 11(a)).

The probe: CNV-6 behind a server with ``max_batch=8`` and one CPU
worker, twelve good frames with one bad frame among them.  Before the
input contract, a wrong-shaped frame was admitted and failed 7 of the 12
good requests batched with it, and NaN and float64 frames were served
without a word.  Now ``submit`` refuses each with a typed
:class:`~repro.core.tensor.BadFrame`, counted in the metrics, and every
good request is served.
"""

import numpy as np
import pytest

from repro.core.tensor import BadFrame, FeatureMap, FeatureMapBatch, check_frame
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve import InferenceServer, ServeConfig, ShardedServer, ShardTierConfig
from repro.serve.shard import fork_available


@pytest.fixture(scope="module")
def cnv6():
    network = Network(zoo.cnv6_config())
    network.initialize(np.random.default_rng(11))
    return network


@pytest.fixture(scope="module")
def good(cnv6):
    rng = np.random.default_rng(12)
    return [
        FeatureMap(rng.uniform(0, 1, size=cnv6.input_shape).astype(np.float32))
        for _ in range(12)
    ]


def _bad(kind: str, shape) -> FeatureMap:
    if kind == "shape":
        return FeatureMap(np.zeros((3, 16, 16), dtype=np.float32))
    if kind == "float64":
        return FeatureMap(np.zeros(shape, dtype=np.float64))
    data = np.zeros(shape, dtype=np.float32)
    data.flat[7] = {"nan": np.nan, "inf": -np.inf}[kind]
    return FeatureMap(data)


KINDS = ["shape", "float64", "nan", "inf"]


@pytest.mark.parametrize("kind", KINDS)
def test_check_frame_names_what_is_wrong(cnv6, good, kind):
    check_frame(good[0], cnv6.input_shape)
    huge = np.full(cnv6.input_shape, 3e38, dtype=np.float32)  # x.x overflows
    check_frame(FeatureMap(huge), cnv6.input_shape)
    message = {"shape": "shape", "float64": "float32", "nan": "NaN", "inf": "infinite"}
    with pytest.raises(BadFrame, match=message[kind]):
        check_frame(_bad(kind, cnv6.input_shape), cnv6.input_shape)
    assert issubclass(BadFrame, ValueError)


def _probe(server, good, bad):
    """Submit 6 good, the bad one, 6 good; return the good results."""
    futures = [server.submit(frame) for frame in good[:6]]
    with pytest.raises(BadFrame):
        server.submit(bad)
    futures += [server.submit(frame) for frame in good[6:]]
    return [future.result(60) for future in futures]


def _assert_all_served(cnv6, good, results, snapshot):
    expected = cnv6.forward_batch(FeatureMapBatch.from_maps(good))
    for index, got in enumerate(results):
        assert np.array_equal(got.data, expected.frame(index).data)
    assert snapshot["bad_frames"] == 1
    assert snapshot["failed"] == 0


@pytest.mark.integration
@pytest.mark.parametrize("kind", KINDS)
def test_in_process_the_bad_frame_is_refused_and_twelve_are_served(
    cnv6, good, kind
):
    config = ServeConfig(max_batch=8, cpu_workers=1)
    with InferenceServer(cnv6, config) as server:
        results = _probe(server, good, _bad(kind, cnv6.input_shape))
        snapshot = server.metrics.snapshot()
    _assert_all_served(cnv6, good, results, snapshot)


@pytest.mark.integration
@pytest.mark.skipif(not fork_available(), reason="shards need fork")
def test_a_two_shard_tier_refuses_the_bad_frame_at_its_door(cnv6, good):
    config = ShardTierConfig(shards=2, max_batch=8, cpu_workers=2)
    with ShardedServer(cnv6, config) as server:
        results = _probe(server, good, _bad("shape", cnv6.input_shape))
        with pytest.raises(BadFrame):
            server.submit(_bad("nan", cnv6.input_shape))
        snapshot = server.snapshot()
    snapshot["bad_frames"] -= 1  # the NaN frame after the probe
    _assert_all_served(cnv6, good, results, snapshot)
