"""The weights start path: tree digest, all-or-nothing load, atomic save.

``weights_digest`` is a tree digest of the Darknet stream
``save_weights_array().tobytes()``: sha256 of each 1 MiB leaf, then one
sha256 over the stream length and the leaf digests.  Its value must not
depend on the lane count or on how the layers chunk the stream, or a plan
cache keyed by it would miss for no reason; ``load_weights`` must either
load everything or change nothing; ``save_weights`` must never leave a
torn file.
"""

import hashlib
import os

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
from repro.core import lanes
from repro.finn.offload_backend import export_offload
from repro.isa import weights_digest
from repro.isa.bind import tree_digest
from repro.nn import zoo
from repro.nn.network import Network
from repro.nn.weights import load_weights, save_weights

BN_CFG = """
[net]
width=8
height=8
channels=3

[convolutional]
batch_normalize=1
filters=4
size=3
stride=1
pad=1
activation=leaky

[convolutional]
filters=6
size=1
stride=1
pad=0
activation=linear

[connected]
batch_normalize=1
output=5
activation=linear
"""

HYBRID_CFG = """
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
"""

HIDDEN_CFG = """
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
binary=1
activation=relu
activation_bits=3
"""

#: weights_digest of ``Network(mlp4_config())`` initialized from
#: ``default_rng(0)``: the address format-3 plan caches are stored under.
MLP4_SEED0_DIGEST = (
    "079561004368f6c03886260ab039d5d4e745869be2bd94a35ca120e52b937a39"
)


def _tree_of(blob: bytes) -> str:
    """The tree definition, applied to the whole stream at once."""
    leaves = [
        hashlib.sha256(blob[start : start + (1 << 20)]).digest()
        for start in range(0, len(blob), 1 << 20)
    ]
    return hashlib.sha256(
        len(blob).to_bytes(8, "little") + b"".join(leaves)
    ).hexdigest()


def _reference_digest(network) -> str:
    return _tree_of(network.save_weights_array().tobytes())


def _seeded(network: Network, seed=0) -> Network:
    network.initialize(np.random.default_rng(seed))
    return network


def _hybrid(tmp_path) -> Network:
    hidden = _seeded(Network.from_cfg(HIDDEN_CFG))
    binparam = str(tmp_path / "binparam")
    export_offload(
        hidden.layers[1:2],
        input_scale=hidden.layers[0].out_quant.scale,
        input_shape=hidden.layers[0].out_shape,
        directory=binparam,
    )
    return _seeded(Network.from_cfg(HYBRID_CFG.format(binparam=binparam)))


def _params(network):
    """Every parameter array of the network, as (owner, name, array)."""
    return [
        (layer, name, getattr(layer, name))
        for layer in network.layers
        for name in ("biases", "scales", "rolling_mean", "rolling_var", "weights")
        if isinstance(getattr(layer, name, None), np.ndarray)
    ]


class TestDigestFormat:
    @pytest.mark.parametrize(
        "config",
        [zoo.mlp4_config, zoo.cnv6_config, zoo.tincy_yolo_config],
        ids=["mlp4", "cnv6", "tincy"],
    )
    def test_streamed_digest_equals_the_copy_then_hash_form(self, config):
        network = _seeded(Network(config()))
        assert weights_digest(network) == _reference_digest(network)

    def test_offload_layers_contribute_nothing(self, tmp_path):
        hybrid = _hybrid(tmp_path)
        assert hybrid.layers[1].num_params() == 0
        assert weights_digest(hybrid) == _reference_digest(hybrid)
        cpu_only = b""
        for index in (0, 2):
            layer = hybrid.layers[index]
            chunks = [layer.biases]
            if layer.batch_normalize:
                chunks += [layer.scales, layer.rolling_mean, layer.rolling_var]
            for chunk in chunks + [layer.weights]:
                cpu_only += np.ascontiguousarray(chunk, dtype=np.float32).tobytes()
        assert weights_digest(hybrid) == _tree_of(cpu_only)

    def test_float64_and_non_contiguous_parameters_hash_as_float32(self):
        network = _seeded(Network(zoo.mlp4_config()))
        expected = weights_digest(network)
        first, second = network.layers[0], network.layers[1]
        first.weights = first.weights.astype(np.float64)
        first.biases = np.repeat(first.biases, 2)[::2]  # strided view
        second.weights = np.asfortranarray(second.weights)  # transposed layout
        assert not first.biases.flags["C_CONTIGUOUS"]
        assert not second.weights.flags["C_CONTIGUOUS"]
        assert weights_digest(network) == expected == _reference_digest(network)

    def test_seeded_mlp4_digest_is_pinned(self):
        network = _seeded(Network(zoo.mlp4_config()))
        assert weights_digest(network) == MLP4_SEED0_DIGEST

    def test_the_digest_is_the_same_at_one_and_two_lanes(self, monkeypatch):
        network = _seeded(Network(zoo.cnv6_config()))
        assert network.save_weights_array().nbytes > 2 << 20  # 3+ leaves
        digests = []
        for count in (1, 2):
            monkeypatch.setattr(lanes, "_LANES", count)
            digests.append(weights_digest(network))
        assert digests[0] == digests[1] == _reference_digest(network)

    @pytest.mark.parametrize(
        "cuts",
        [(), (1,), (4096,), ((1 << 20) - 1, 1 << 20, (1 << 20) + 1),
         (3, 700_001, 2_500_000)],
        ids=["whole", "one-byte-head", "page", "around-a-leaf", "ragged"],
    )
    def test_the_digest_does_not_depend_on_the_chunking(self, cuts):
        blob = np.random.default_rng(5).bytes((3 << 20) + 12345)
        bounds = [0, *cuts, len(blob)]
        chunks = [blob[a:b] for a, b in zip(bounds, bounds[1:])]
        assert tree_digest(chunks) == _tree_of(blob)

    def test_an_empty_stream_hashes_its_length_alone(self):
        expected = hashlib.sha256((0).to_bytes(8, "little")).hexdigest()
        assert tree_digest([]) == tree_digest([b""]) == expected

    def test_num_params_is_exactly_what_the_stream_carries(self, tmp_path):
        networks = [
            _seeded(Network(zoo.mlp4_config())),
            _seeded(Network(zoo.cnv6_config())),
            _seeded(Network.from_cfg(BN_CFG)),
            _hybrid(tmp_path),
        ]
        for network in networks:
            assert network.num_params() == network.save_weights_array().size
            for layer in network.layers:
                assert layer.num_params() == sum(
                    array.size
                    for owner, _name, array in _params(network)
                    if owner is layer
                )


class TestAllOrNothingLoad:
    @pytest.fixture
    def saved(self, tmp_path):
        network = _seeded(Network.from_cfg(BN_CFG), seed=1)
        path = str(tmp_path / "net.weights")
        save_weights(network, path, seen=7)
        return network, path

    @staticmethod
    def _rewrite(path, edit):
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(edit(blob))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda blob: blob[:7], "truncated"),
            (lambda blob: blob[:15], "truncated"),  # header ok, counter cut
            (lambda blob: blob[:-2], "aligned"),
            (lambda blob: blob + b"\x00", "aligned"),
            (lambda blob: blob[:-8], "exhausted"),
            (lambda blob: blob[:20], "exhausted"),  # header only
            (lambda blob: blob + b"\x00" * 12, "3 unconsumed"),
        ],
        ids=[
            "header", "counter", "cut-misaligned", "pad-misaligned",
            "short", "empty-payload", "oversized",
        ],
    )
    def test_a_refused_file_changes_nothing(self, saved, edit, message):
        _network, path = saved
        self._rewrite(path, edit)
        target = _seeded(Network.from_cfg(BN_CFG), seed=2)
        before = [(array, array.copy()) for _o, _n, array in _params(target)]
        with pytest.raises(ValueError, match=message):
            load_weights(target, path)
        after = [array for _o, _n, array in _params(target)]
        assert len(after) == len(before)
        for (old, snapshot), new in zip(before, after):
            assert new is old
            assert np.array_equal(new, snapshot)

    def test_loaded_arrays_are_private_writable_and_disjoint(self, saved):
        network, path = saved
        target = Network.from_cfg(BN_CFG)
        assert load_weights(target, path) == 7
        arrays = [array for _o, _n, array in _params(target)]
        assert arrays and all(array.flags.writeable for array in arrays)
        assert all(array.dtype == np.float32 for array in arrays)
        for i, left in enumerate(arrays):
            for right in arrays[i + 1 :]:
                assert not np.shares_memory(left, right)
        assert weights_digest(target) == weights_digest(network)
        target.layers[1].weights[0, 0] += 1.0
        assert weights_digest(target) != weights_digest(network)

    def test_load_weights_array_still_copies_the_callers_array(self, saved):
        network, _path = saved
        values = network.save_weights_array()
        target = Network.from_cfg(BN_CFG)
        target.load_weights_array(values)
        expected = weights_digest(target)
        values += 1.0
        assert weights_digest(target) == expected == weights_digest(network)
        assert not any(
            np.shares_memory(array, values) for _o, _n, array in _params(target)
        )


class TestAtomicSave:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        network = _seeded(Network.from_cfg(BN_CFG), seed=3)
        first, second = str(tmp_path / "a.weights"), str(tmp_path / "b.weights")
        save_weights(network, first, seen=99)
        clone = Network.from_cfg(BN_CFG)
        assert load_weights(clone, first) == 99
        save_weights(clone, second, seen=99)
        with open(first, "rb") as a, open(second, "rb") as b:
            blob = a.read()
            assert blob == b.read()
        assert blob[20:] == network.save_weights_array().tobytes()
        assert sorted(os.listdir(tmp_path)) == ["a.weights", "b.weights"]

    def test_an_interrupted_save_leaves_the_old_file_intact(
        self, tmp_path, monkeypatch
    ):
        network = _seeded(Network.from_cfg(BN_CFG), seed=4)
        path = str(tmp_path / "net.weights")
        save_weights(network, path)
        with open(path, "rb") as handle:
            old = handle.read()

        class FullDisk:
            """A file whose third write fails, as on a full disk."""

            def __init__(self, *args):
                self.handle, self.writes = open(*args), 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(28, "No space left on device")
                return self.handle.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        network.layers[0].weights += 1.0
        monkeypatch.setattr("repro.nn.weights.open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_weights(network, path)
        monkeypatch.undo()
        with open(path, "rb") as handle:
            assert handle.read() == old
