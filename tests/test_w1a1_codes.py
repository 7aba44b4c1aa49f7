"""W1A1 feature maps are one-byte integer codes (docs/ENGINE.md, "W1A1").

A ``sign`` layer stores ``int8`` ``+-1`` codes at scale 1.0, and a binary
layer fed integer codes may run its whole batch as one GEMM because its
accumulators are exact.  Everything here pins that change as *invisible*
in values: the old float64 ``np.where`` select and the per-frame GEMM are
written out as the oracles.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ops as ops
from repro.analyze.dataflow import BIPOLAR, FLOAT, abstract_values
from repro.core.im2col import im2col
from repro.core.ops import (
    accumulates_exactly,
    batchnorm_inference,
    conv2d,
    conv2d_batch,
    fully_connected_batch,
    sign_codes,
)
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine.reference import legacy_forward_batch_all
from repro.isa import PlanVM, compile_network, decode, encode
from repro.nn.config import Section
from repro.nn.layers import connected as connected_module
from repro.nn.layers import convolutional as conv_module
from repro.nn.layers.connected import ConnectedLayer
from repro.nn.layers.convolutional import BN_EPS, ConvolutionalLayer
from repro.nn.network import Network
from repro.nn.zoo import cnv6_config, mlp4_config
from tests.batch_of_one import forward_frame

FIXED = dict(deadline=None, derandomize=True)


# -- values(): unit-scale integer codes widen without a float64 pass ----------


def _float64_values(data, scale):
    """``values()`` as it was computed before the change."""
    return (data.astype(np.float64) * scale).astype(np.float32)


@pytest.mark.parametrize(
    "data, scale",
    [
        (np.array([-1, 1, 1, -1, 1, -1], np.int8), 1.0),
        (np.arange(8, dtype=np.uint8), 1.0 / 7.0),
        (np.arange(8, dtype=np.uint8), 1.0),
        (np.array([0, 3, 7, 255, 1 << 24, (1 << 24) + 1, -(1 << 30) - 1], np.int32), 1.0),
        (np.array([0, 3, 7, 5, 1, 2], np.int32), 1.0 / 7.0),
        # int64 is not exact in float64: the direct cast would round once
        # where the old expression rounded twice, so it keeps the old route
        (np.array([(1 << 60) + (1 << 36) + 1, -7], np.int64), 1.0),
    ],
)
def test_values_is_the_float64_product_bit_for_bit(data, scale):
    expected = _float64_values(data, scale)
    single = FeatureMap(data.reshape(-1, 1, 1), scale).values()
    batched = FeatureMapBatch(data.reshape(1, -1, 1, 1), scale).values()
    for got in (single, batched):
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


def test_float32_unit_scale_values_is_the_array_itself():
    data = np.ones((2, 3, 4), np.float32)
    assert FeatureMap(data).values() is data


# -- (i) the sign epilogue -----------------------------------------------------

_SPECIALS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1e-39, -1e-39,
    1.0, -1.0, 3.4e38, -3.4e38, 1e-30, -1e-30,
]
_f32 = st.one_of(
    st.sampled_from(_SPECIALS),
    st.floats(width=32, allow_nan=True, allow_infinity=True),
)
_gains = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-38, -1e-38, 1e-20, -1.5, 1.5, 1.0, -1.0]),
    st.floats(-2.0, 2.0, width=32),
)


def _old_sign(x):
    """The expression both layers' activation tables carried."""
    return np.where(x >= 0, 1.0, -1.0)


@st.composite
def _preactivations(draw):
    n, c, h, w = (draw(st.integers(1, hi)) for hi in (3, 4, 3, 3))
    z = draw(st.lists(_f32, min_size=n * c * h * w, max_size=n * c * h * w))
    params = [
        draw(st.lists(kind, min_size=c, max_size=c))
        for kind in (_gains, _f32, _f32, st.floats(0.0, 4.0, width=32))
    ]
    return (
        np.array(z, np.float32).reshape(n, c, h, w),
        [np.array(p, np.float32) for p in params],
    )


def _set_bn(layer, params):
    layer.scales, layer.biases, layer.rolling_mean, layer.rolling_var = params


class TestSignEpilogue:
    def test_sign_codes_decides_like_the_old_select(self):
        x = np.array(_SPECIALS, np.float32)
        codes = sign_codes(x)
        assert codes.dtype == np.int8
        assert codes.tolist() == [1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
        assert np.array_equal(codes, _old_sign(x))

    @settings(max_examples=60, **FIXED)
    @given(_preactivations())
    def test_conv_layer_emits_the_old_select_as_int8(self, drawn):
        z, (gamma, beta, mean, var) = drawn
        n, c, h, w = z.shape
        layer = ConvolutionalLayer(
            Section(
                "convolutional",
                {"filters": str(c), "size": "1", "batch_normalize": "1",
                 "activation": "sign", "binary": "1"},
            )
        )
        layer.init((1, h, w))
        _set_bn(layer, (gamma, beta, mean, var))
        with np.errstate(all="ignore"):
            expected = _old_sign(
                batchnorm_inference(
                    z, gamma, beta, mean, var, eps=BN_EPS, channel_axis=1
                )
            ).astype(np.float32)
            x = FeatureMapBatch(np.zeros((n, 1, h, w), np.float32))
            with _gemm_returning(conv_module, "conv2d_batch", z):
                batched = layer.forward_batch(x)
            frames = []
            for i in range(n):
                with _gemm_returning(conv_module, "conv2d_batch", z[i : i + 1]):
                    frames.append(forward_frame(layer, x.frame(i)))
        assert batched.data.dtype == np.int8 and batched.scale == 1.0
        assert batched.values().tobytes() == expected.tobytes()
        for i, frame in enumerate(frames):
            assert frame.data.dtype == np.int8 and frame.scale == 1.0
            assert np.array_equal(frame.data, batched.data[i])
            assert frame.values().tobytes() == expected[i].tobytes()

    @settings(max_examples=60, **FIXED)
    @given(_preactivations())
    def test_connected_layer_emits_the_old_select_as_int8(self, drawn):
        z, (gamma, beta, mean, var) = drawn
        n, c = z.shape[:2]
        z = np.ascontiguousarray(z[:, :, 0, 0])
        layer = ConnectedLayer(
            Section(
                "connected",
                {"output": str(c), "batch_normalize": "1",
                 "activation": "sign", "binary": "1"},
            )
        )
        layer.init((3, 1, 1))
        _set_bn(layer, (gamma, beta, mean, var))
        with np.errstate(all="ignore"):
            expected = _old_sign(
                batchnorm_inference(
                    z, gamma, beta, mean, var, eps=BN_EPS, channel_axis=1
                )
            ).astype(np.float32).reshape(n, c, 1, 1)
            x = FeatureMapBatch(np.zeros((n, 3, 1, 1), np.float32))
            with _gemm_returning(connected_module, "fully_connected_batch", z):
                batched = layer.forward_batch(x)
            frames = []
            for i in range(n):
                with _gemm_returning(
                    connected_module, "fully_connected_batch", z[i : i + 1]
                ):
                    frames.append(forward_frame(layer, x.frame(i)))
        assert batched.data.dtype == np.int8 and batched.scale == 1.0
        assert batched.values().tobytes() == expected.tobytes()
        for i, frame in enumerate(frames):
            assert frame.data.dtype == np.int8
            assert np.array_equal(frame.data, batched.data[i])
            assert frame.values().tobytes() == expected[i].tobytes()


class _gemm_returning:
    """Make a layer module's GEMM entry return chosen pre-activations, so
    the epilogue sees exactly the float32 bit patterns under test."""

    def __init__(self, module, name, z):
        self.module, self.name, self.z = module, name, z

    def __enter__(self):
        self.saved = getattr(self.module, self.name)
        setattr(self.module, self.name, lambda *a, **k: self.z.copy())

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.saved)


# -- (ii) the exact batch-wide GEMM -------------------------------------------


def _pm1(rng, shape):
    return rng.choice(np.array([-1.0, 1.0], np.float32), size=shape)


@st.composite
def _exact_conv_cases(draw):
    ksize = draw(st.sampled_from([1, 3]))
    pad = draw(st.integers(0, 1)) if ksize == 3 else 0
    out = draw(st.integers(1, 12))
    side = out + ksize - 1 - 2 * pad
    # keep the lowered multiplicand small: deep layers get small maps
    c_in = draw(
        st.sampled_from([1, 3, 16, 64] if out > 4 else [1, 16, 128, 256, 512])
    )
    return dict(
        ksize=ksize, pad=pad, side=side, c_in=c_in,
        c_out=draw(st.integers(1, 6)),
        batch=draw(st.integers(1, 9)),
        unsigned=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


class _MatmulSpy:
    """Record the operand shapes of every ``np.matmul`` the kernels issue."""

    def __init__(self, monkeypatch):
        self.shapes = []
        real = np.matmul

        def spy(a, b, *args, **kwargs):
            self.shapes.append((a.shape, b.shape))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(ops.np, "matmul", spy)


class TestExactGemm:
    @settings(max_examples=80, **FIXED)
    @given(_exact_conv_cases())
    def test_batch_wide_gemm_is_the_per_frame_and_the_integer_product(self, case):
        rng = np.random.default_rng(case["seed"])
        shape = (case["batch"], case["c_in"], case["side"], case["side"])
        if case["unsigned"]:
            x = rng.integers(0, 256, size=shape, dtype=np.uint8)
        else:
            x = rng.integers(-1, 2, size=shape).astype(np.int8)
        k, pad = case["ksize"], case["pad"]
        weights = _pm1(rng, (case["c_out"], case["c_in"], k, k))
        assert case["c_in"] * k * k <= 4608
        assert accumulates_exactly(x.dtype, 1.0, case["c_in"] * k * k)
        wide = conv2d_batch(x, weights, None, 1, pad, exact=True)
        assert wide.dtype == np.float32
        w64 = weights.reshape(case["c_out"], -1).astype(np.int64)
        for i in range(case["batch"]):
            alone = conv2d(x[i], weights, None, 1, pad)
            assert wide[i].tobytes() == alone.tobytes()
            integer = w64 @ im2col(x[i].astype(np.int64), k, 1, pad)
            assert np.array_equal(wide[i].reshape(case["c_out"], -1), integer)
        # and the float32 view of the same codes, per frame, agrees too
        values = conv2d_batch(x.astype(np.float32), weights, None, 1, pad)
        assert values.tobytes() == wide.tobytes()

    @settings(max_examples=40, **FIXED)
    @given(
        st.integers(1, 9), st.integers(1, 600), st.integers(1, 12),
        st.booleans(), st.integers(0, 2**16),
    )
    def test_connected_batch_gemm_is_the_per_frame_gemv(
        self, batch, inputs, outputs, unsigned, seed
    ):
        rng = np.random.default_rng(seed)
        if unsigned:
            codes = rng.integers(0, 256, size=(batch, inputs), dtype=np.uint8)
        else:
            codes = rng.integers(-1, 2, size=(batch, inputs)).astype(np.int8)
        weights = _pm1(rng, (outputs, inputs))
        x = codes.astype(np.float32)
        one = fully_connected_batch(x, weights, exact=True)
        loop = fully_connected_batch(x, weights)
        assert one.flags["C_CONTIGUOUS"] and one.dtype == np.float32
        assert one.tobytes() == loop.tobytes()
        assert np.array_equal(
            one, codes.astype(np.int64) @ weights.astype(np.int64).T
        )

    def test_the_bound_reads_the_dtype_never_the_data(self):
        assert accumulates_exactly(np.int8, 1.0, 2304)
        assert accumulates_exactly(np.uint8, 1.0, 65793)  # 65793 * 255 = 2**24 - 1
        assert not accumulates_exactly(np.uint8, 1.0, 65794)
        assert accumulates_exactly(np.int16, 1.0, 511)
        assert not accumulates_exactly(np.int16, 1.0, 512)  # 512 * 2**15 = 2**24
        assert not accumulates_exactly(np.int32, 1.0, 1)
        assert not accumulates_exactly(np.float32, 1.0, 1)
        assert not accumulates_exactly(np.int8, 1.0 / 7.0, 9)

    def _conv(self, c_in, side, binary=True, filters=4):
        layer = ConvolutionalLayer(
            Section(
                "convolutional",
                {"filters": str(filters), "size": "3", "pad": "0",
                 "batch_normalize": "1", "activation": "sign",
                 "binary": "1" if binary else "0"},
            )
        )
        layer.init((c_in, side, side))
        layer.initialize(np.random.default_rng(5))
        return layer

    def test_only_integer_codes_reach_the_wide_route(self, monkeypatch, rng):
        layer = self._conv(c_in=8, side=5)  # 3x3 output: under the floor
        codes = rng.choice(np.array([-1, 1], np.int8), size=(6, 8, 5, 5))
        spy = _MatmulSpy(monkeypatch)
        from_codes = layer.forward_batch(FeatureMapBatch(codes))
        assert spy.shapes == [((4, 72), (72, 6 * 9))]  # one GEMM, frames side by side
        # the same map as float32 +-1.0: per-frame operands, same answer
        spy.shapes.clear()
        from_floats = layer.forward_batch(FeatureMapBatch(codes.astype(np.float32)))
        assert spy.shapes == [((4, 72), (6, 72, 9))]
        assert np.array_equal(from_codes.data, from_floats.data)
        assert from_codes.data.dtype == from_floats.data.dtype == np.int8

    def test_non_binary_wide_map_and_unbounded_layers_stay_per_frame(
        self, monkeypatch, rng
    ):
        spy = _MatmulSpy(monkeypatch)
        codes = rng.choice(np.array([-1, 1], np.int8), size=(3, 8, 5, 5))
        # float weights: integer inputs prove nothing about the accumulators
        self._conv(c_in=8, side=5, binary=False).forward_batch(
            FeatureMapBatch(codes)
        )
        assert spy.shapes == [((4, 72), (3, 72, 9))]
        # 12x12 output = 144 positions: past the GEMM-width floor a frame
        # fills the BLAS panels on its own
        spy.shapes.clear()
        wide_map = rng.choice(np.array([-1, 1], np.int8), size=(3, 8, 14, 14))
        self._conv(c_in=8, side=14).forward_batch(FeatureMapBatch(wide_map))
        assert spy.shapes == [((4, 72), (3, 72, 144))]
        # int16 codes against 64*9 = 576 taps: 576 * 2**15 >= 2**24
        spy.shapes.clear()
        deep = self._conv(c_in=64, side=3)
        big = rng.integers(-3, 4, size=(3, 64, 3, 3)).astype(np.int16)
        out = deep.forward_batch(FeatureMapBatch(big))
        assert spy.shapes == [((4, 576), (3, 576, 1))]
        alone = [forward_frame(deep, FeatureMap(big[i])).data for i in range(3)]
        assert np.array_equal(out.data, np.stack(alone))

    def test_connected_layer_loops_unless_the_codes_are_integers(
        self, monkeypatch, rng
    ):
        layer = ConnectedLayer(
            Section(
                "connected",
                {"output": "5", "batch_normalize": "1", "activation": "sign",
                 "binary": "1"},
            )
        )
        layer.init((12, 1, 1))
        layer.initialize(np.random.default_rng(6))
        calls = []
        real = ops.fully_connected
        monkeypatch.setattr(
            ops, "fully_connected",
            lambda x, w, b=None: calls.append(x.shape) or real(x, w, b),
        )
        codes = rng.choice(np.array([-1, 1], np.int8), size=(4, 12, 1, 1))
        from_codes = layer.forward_batch(FeatureMapBatch(codes))
        assert calls == []  # one GEMM
        from_floats = layer.forward_batch(FeatureMapBatch(codes.astype(np.float32)))
        assert calls == [(12,)] * 4  # a gemv per frame
        assert np.array_equal(from_codes.data, from_floats.data)
        layer.binary = False
        layer.forward_batch(FeatureMapBatch(codes))
        assert len(calls) == 8


# -- (iii) end to end, pinned on the parent commit ----------------------------

#: sha256 over the concatenated ``values()`` bytes of every layer output /
#: of the final output, recorded on the commit *before* sign emitted codes
#: (this host's OpenBLAS; the float first layers make them BLAS-specific).
PINNED = {
    "cnv6": (
        cnv6_config,
        "c655de1e7b5946f9028d79c6ddeda7244006e37d7200e34f081db2d1b1626154",
        "def5468cef44bb9c07306d27b54043b69ebedb20b296d037fafba14b7b3a74cd",
    ),
    "mlp4": (
        mlp4_config,
        "0f2a863db0a9d2010bf9ff3fef54ac60e924af3a7ee3b639b6d806dc709acfe6",
        "c00d4a1ff7e15ff16bd368c7cc8aaa927f1114827789dea119e87501a5ea0b7d",
    ),
}


def _pinned_network(config):
    network = Network(config())
    rng = np.random.default_rng(20180621)
    network.initialize(rng)
    for layer in network.layers:
        if getattr(layer, "batch_normalize", False):
            n = layer.biases.size
            layer.biases = (rng.normal(size=n) * 0.1).astype(np.float32)
            layer.scales = rng.uniform(-1.5, 1.5, n).astype(np.float32)
            layer.rolling_mean = (rng.normal(size=n) * 0.2).astype(np.float32)
            layer.rolling_var = rng.uniform(0.5, 1.5, n).astype(np.float32)
    frames = np.random.default_rng(20180622).random(
        (8,) + tuple(network.input_shape), np.float32
    )
    return network, FeatureMapBatch(frames)


def _digest(maps):
    sha = hashlib.sha256()
    for fm in maps:
        sha.update(np.ascontiguousarray(fm.values()))
    return sha.hexdigest()


def _stack(per_frame_outputs):
    """Per-frame lists of per-layer maps -> per-layer batches."""
    return [
        FeatureMapBatch.from_maps(list(layer_maps))
        for layer_maps in zip(*per_frame_outputs)
    ]


@pytest.mark.parametrize("name", sorted(PINNED))
class TestPinnedEndToEnd:
    def test_every_execution_path_reproduces_the_parent_digests(self, name):
        config, all_layers, final = PINNED[name]
        network, x = _pinned_network(config)

        reference = legacy_forward_batch_all(network, x)
        assert _digest(reference) == all_layers
        assert _digest(reference[-1:]) == final
        assert reference[-1].data.dtype == np.float32

        # eight batches of one through the same walk: same stored codes
        alone = _stack(
            [
                out.frame(0)
                for out in legacy_forward_batch_all(
                    network, FeatureMapBatch(x.data[i : i + 1], x.scale)
                )
            ]
            for i in range(8)
        )
        assert _digest(alone) == all_layers
        for one, many in zip(alone, reference):
            assert one.data.dtype == many.data.dtype
            assert np.array_equal(one.data, many.data)

        # the VM: -O0 keeps every layer, -O2 is what forward_batch runs
        at_o0 = network.forward_batch_all(x)
        assert _digest(at_o0) == all_layers
        for mine, ref in zip(at_o0, reference):
            assert mine.data.dtype == ref.data.dtype
        assert _digest([network.forward_batch(x)]) == final
        singles = [
            network.forward_batch(FeatureMapBatch(x.data[i : i + 1]))
            for i in range(8)
        ]
        assert _digest(
            [FeatureMapBatch(np.concatenate([s.data for s in singles]))]
        ) == final

        # encode -> decode -> run, both levels
        for level in (0, 2):
            program = compile_network(network, name=name, level=level)[0]
            vm = PlanVM(decode(encode(program)), network)
            out = vm.run(x)
            assert out.data.dtype == np.float32
            assert _digest([out]) == final
            if level == 0:
                assert _digest(vm.run_all(x)) == all_layers

    def test_stored_dtypes_are_what_the_verifier_types(self, name):
        config, _all_layers, _final = PINNED[name]
        network, x = _pinned_network(config)
        types = abstract_values(network.plan())
        bipolar = 0
        for level in (0, 2):
            vm = network.vm(level)
            produced = []
            vm.on_step = lambda stats: produced.append(stats.index)
            try:
                outputs = vm.run_all(x)
            finally:
                vm.on_step = None
            assert len(outputs) == len(set(produced))
            for index, out in zip(sorted(set(produced)), outputs):
                domain = types[index].domain
                if domain == BIPOLAR:
                    bipolar += 1
                    assert out.data.dtype == np.int8 and out.scale == 1.0
                    assert set(np.unique(out.data)) <= {-1, 1}
                else:
                    assert domain == FLOAT
                    assert out.data.dtype == np.float32
        assert bipolar >= 6  # three sign layers in MLP-4, nine maps in CNV-6
