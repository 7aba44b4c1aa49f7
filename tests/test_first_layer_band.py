"""The first layer's threshold kernel, ``uint8`` codes proved by dtype, and
``C_out`` lanes on one-band maps.

* Tincy YOLO's first layer (a float conv with BN + ReLU + a 3-bit output
  quantizer) runs at ``-O2`` as a float-input :class:`BandKernel` whose
  thresholds come from bisection over float32 bit patterns.  Its output
  must equal the ``-O0`` float pair (``CONV.pre`` then ``THRESHOLD.pre``,
  i.e. ``forward_batch_pre`` + ``forward_batch_to_levels``) bit for bit,
  on the golden frame and on random frames far outside ``[0, 1]``, on one
  lane and on two.
* Every W1A3 producer emits ``uint8`` codes, and the consumers read the
  dtype, not the data: with ``fits_uint8`` broken, ``uint8`` input still
  runs.
* A single frame whose map is one band, behind a large weight matrix,
  splits its output channels across lanes; the result equals the row
  split's.
"""

import numpy as np
import pytest

from repro.core import fused, lanes, quantize
from repro.core.tensor import FeatureMapBatch
from repro.nn.network import Network
from repro.nn.zoo import tincy_yolo_config


@pytest.fixture(scope="module")
def golden_first_layer():
    """Layer 0 of the seeded golden Tincy YOLO (tests/test_golden_e2e.py)."""
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
    return network.layers[0]


def _frames(shape):
    """The golden frame, then eight seeded frames, most outside [0, 1]."""
    golden = np.random.default_rng(20180622).uniform(0, 1, size=shape)
    rng = np.random.default_rng(35)
    frames = [
        golden,
        rng.uniform(0, 1, size=shape),
        rng.normal(size=shape) * 3,
        rng.uniform(-4, 5, size=shape),
        rng.normal(size=shape) * 1e3,
        rng.normal(size=shape) * 1e-3,
        rng.integers(-2, 3, size=shape) * 0.5,  # exact halves and zeros
        rng.standard_cauchy(size=shape),
        np.where(rng.random(shape) < 0.5, 0.0, rng.normal(size=shape) * 20),
    ]
    return [frame.astype(np.float32) for frame in frames]


def _float_pair(layer, fmb):
    """The -O0 float route: CONV.pre then THRESHOLD.pre."""
    return layer.forward_batch_to_levels(layer.forward_batch_pre(fmb)).data


class TestFirstLayerThresholds:
    """-O2 (float band kernel) == -O0 (float pair) on the first layer."""

    @pytest.mark.parametrize("lane_count", [1, 2])
    def test_golden_and_random_frames_bit_identical(
        self, golden_first_layer, monkeypatch, lane_count
    ):
        layer = golden_first_layer
        assert layer._float_band_kernel() is not None
        monkeypatch.setattr(lanes, "_LANES", lane_count)
        frames = _frames(layer.in_shape)
        for index, frame in enumerate(frames):
            fmb = FeatureMapBatch(frame[None])
            o2 = layer.forward_batch(fmb)
            o0 = _float_pair(layer, fmb)
            assert o2.data.dtype == o0.dtype == np.uint8
            assert o2.scale == layer.out_quant.scale
            assert o2.data.tobytes() == o0.tobytes(), f"frame {index}"
        # Three frames at once split by frames, not rows.
        batch = FeatureMapBatch(np.stack(frames[:3]))
        assert layer.forward_batch(batch).data.tobytes() == (
            _float_pair(layer, batch).tobytes()
        )

    def test_the_vm_runs_the_kernel_at_o2_and_the_pair_at_o0(
        self, golden_first_layer, monkeypatch
    ):
        from repro.core.fused import BandKernel

        layer = golden_first_layer
        calls = []
        run = BandKernel.run

        def counted(kernel, maps, pool=None):
            calls.append(kernel.codes)
            return run(kernel, maps, pool)

        monkeypatch.setattr(BandKernel, "run", counted)
        fmb = FeatureMapBatch(_frames(layer.in_shape)[3][None])
        layer.run_batch([fmb])
        assert calls == [False]
        calls.clear()
        _float_pair(layer, fmb)
        assert calls == []

    def test_table_follows_rebound_parameters(self, golden_first_layer):
        layer = golden_first_layer
        kernel = layer._float_band_kernel()
        assert layer._float_band_kernel() is kernel
        saved = layer.rolling_mean
        try:
            layer.rolling_mean = saved + np.float32(0.25)
            assert layer._float_band_kernel() is not kernel
            fmb = FeatureMapBatch(_frames(layer.in_shape)[2][None])
            assert layer.forward_batch(fmb).data.tobytes() == (
                _float_pair(layer, fmb).tobytes()
            )
        finally:
            layer.rolling_mean = saved

    def test_binary_and_float_output_layers_take_no_float_kernel(self):
        network = Network(tincy_yolo_config())
        network.initialize(np.random.default_rng(0))
        assert network.layers[1]._float_band_kernel() is None  # binary W1A3
        assert network.layers[-2]._float_band_kernel() is None  # float output


def _w1a3_layer(c_in, c_out, size):
    cfg = (
        f"[net]\nwidth={size}\nheight={size}\nchannels={c_in}\n\n"
        f"[convolutional]\nbatch_normalize=1\nfilters={c_out}\nsize=3\n"
        f"stride=1\npad=1\nactivation=relu\nbinary=1\nactivation_bits=3\n"
    )
    network = Network.from_cfg(cfg)
    network.initialize(np.random.default_rng(c_in + c_out))
    layer = network.layers[0]
    rng = np.random.default_rng(size)
    layer.scales = (rng.uniform(0.5, 2, c_out) * rng.choice([-1, 1], c_out)).astype(
        np.float32
    )
    layer.biases = rng.normal(size=c_out).astype(np.float32)
    layer.rolling_mean = (rng.normal(size=c_out) * 4).astype(np.float32)
    return layer


class TestCodesByDtype:
    """uint8 codes are proved narrow by their dtype: no data scan."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def scan(data):
            raise AssertionError("fits_uint8 scanned uint8 codes")

        monkeypatch.setattr(quantize, "fits_uint8", scan)
        monkeypatch.setattr(fused, "fits_uint8", scan)

    def test_band_kernel_and_mvtu_batch_path_on_uint8(self, no_scan):
        from repro.finn.accelerator import compile_stages

        layer = _w1a3_layer(8, 16, 9)
        scale = 1 / 7
        codes = np.random.default_rng(1).integers(0, 8, (2, 8, 9, 9)).astype(
            np.uint8
        )
        fmb = FeatureMapBatch(codes, scale=scale)
        cpu = layer.forward_batch(fmb)
        (stage,) = compile_stages([layer], scale, layer.in_shape)
        finn = stage.forward_batch(fmb)
        (serial,) = compile_stages([layer], scale, layer.in_shape, bitserial=True)
        fallback = serial.forward_batch(fmb)  # the MVTU's per-frame walk
        for result in (cpu, finn, fallback):
            assert result.data.dtype == np.uint8
            assert result.data.tobytes() == cpu.data.tobytes()
        assert quantize.narrow_codes(codes) is codes

    def test_threshold_producers_emit_uint8(self):
        from repro.core.thresholds import derive_thresholds

        activation = derive_thresholds(
            np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), 1.0, 1.0, bits=3,
            fan_in=1,
        )
        acc = np.arange(-6, 12).reshape(3, 6)
        assert activation.apply(acc).dtype == np.uint8
        wide = derive_thresholds(
            np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), 1.0, 1.0, bits=9,
            fan_in=3,
        )
        assert wide.apply(np.arange(600).reshape(1, -1)).dtype == np.int32


class TestChannelLanes:
    """One-band maps split their output channels, not their rows."""

    @pytest.mark.parametrize("pool", [None, (2, 2, 1), (2, 1, 1)])
    def test_channel_split_equals_row_split(self, monkeypatch, pool):
        layer = _w1a3_layer(64, 96, 13)
        kernel = layer._band_kernel(1 / 7)
        codes = np.random.default_rng(2).integers(0, 8, (1, 64, 13, 13)).astype(
            np.uint8
        )
        assert fused._band_rows(64 * 9, 13, 13, 2) >= 13  # one band
        monkeypatch.setattr(lanes, "_LANES", 2)
        spans = []
        finish = fused.BandKernel._finish

        def recorded(self, cols, first, last, *args):
            spans.append((first, last))
            finish(self, cols, first, last, *args)

        monkeypatch.setattr(fused.BandKernel, "_finish", recorded)
        monkeypatch.setattr(fused, "_CHANNEL_SPLIT_BYTES", 0)
        by_channel = kernel.run(codes, pool)
        assert sorted(spans) == [(0, 48), (48, 96)]
        spans.clear()
        monkeypatch.setattr(fused, "_CHANNEL_SPLIT_BYTES", 1 << 60)
        by_rows = kernel.run(codes, pool)
        assert set(spans) == {(0, 96)} and len(spans) == 2
        assert by_channel.tobytes() == by_rows.tobytes()
        monkeypatch.setattr(lanes, "_LANES", 1)
        assert kernel.run(codes, pool).tobytes() == by_rows.tobytes()

    def test_cuts_are_whole_simd_rows(self):
        assert fused._channel_cuts(512, 2) == [(0, 256), (256, 512)]
        assert fused._channel_cuts(20, 2) == [(0, 16), (16, 20)]
        assert fused._channel_cuts(6, 2) == [(0, 6)]
        assert fused._channel_cuts(96, 3) == [(0, 32), (32, 64), (64, 96)]

    def test_tincy_13x13_layers_split_by_channel(self):
        network = Network(tincy_yolo_config())
        weights = {
            index: network.layers[index].weights.nbytes
            for index in (7, 9, 11, 12)
        }
        assert weights[7] < fused._CHANNEL_SPLIT_BYTES
        assert min(weights[i] for i in (9, 11, 12)) >= fused._CHANNEL_SPLIT_BYTES
