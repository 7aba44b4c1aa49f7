"""MVTU functional and cycle-model tests."""

import numpy as np
import pytest

from repro.core.thresholds import ThresholdActivation, derive_thresholds
from repro.finn.mvtu import MVTU, Folding, MVTUConvLayer


def _random_mvtu(rng, rows=16, cols=144, bits=3, folding=Folding(4, 8), **kwargs):
    weights = rng.choice([-1, 1], size=(rows, cols))
    thresholds = derive_thresholds(
        gamma=rng.uniform(0.5, 2.0, size=rows) * rng.choice([-1, 1], size=rows),
        beta=rng.normal(size=rows),
        mean=rng.normal(size=rows) * 5,
        var=rng.uniform(0.5, 2.0, size=rows),
        in_scale=1.0 / 7.0,
        out_scale=1.0 / 7.0,
        bits=bits,
        fan_in=cols,
    )
    return MVTU(weights, thresholds, folding, **kwargs), weights


class TestFolding:
    def test_fold_exact_division(self):
        assert Folding(32, 32).fold(512, 4608) == 16 * 144

    def test_fold_ceil(self):
        assert Folding(32, 32).fold(64, 144) == 2 * 5

    def test_macs_per_cycle(self):
        assert Folding(32, 32).macs_per_cycle == 1024

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            Folding(0, 4)


class TestMVTUFunctional:
    def test_matvec_matches_reference(self, rng):
        mvtu, weights = _random_mvtu(rng)
        levels = rng.integers(0, 8, size=144)
        got = mvtu.matvec(levels)
        acc = weights @ levels
        expected = mvtu.thresholds.apply(acc[:, None])[:, 0]
        assert np.array_equal(got, expected)

    def test_matmat_equals_per_column_matvec(self, rng):
        mvtu, _ = _random_mvtu(rng)
        columns = rng.integers(0, 8, size=(144, 10))
        got = mvtu.matmat(columns)
        expected = np.stack(
            [mvtu.matvec(columns[:, i]) for i in range(10)], axis=1
        )
        assert np.array_equal(got, expected)

    def test_bitserial_and_matmul_paths_agree(self, rng):
        """The packed XNOR-popcount datapath is exactly the int matmul."""
        fast, weights = _random_mvtu(rng)
        slow = MVTU(weights, fast.thresholds, fast.folding, bitserial=True)
        columns = rng.integers(0, 8, size=(144, 25))
        assert np.array_equal(fast.matmat(columns), slow.matmat(columns))
        acc = slow.matmat_accumulate_bitserial(columns)
        assert np.array_equal(acc, weights @ columns)

    def test_rejects_non_binary_weights(self, rng):
        thresholds = ThresholdActivation(
            np.zeros((4, 7), dtype=np.int64), np.ones(4, dtype=np.int8), bits=3
        )
        with pytest.raises(ValueError, match="binary"):
            MVTU(rng.normal(size=(4, 9)), thresholds, Folding(1, 1))

    def test_rejects_channel_mismatch(self, rng):
        thresholds = ThresholdActivation(
            np.zeros((5, 7), dtype=np.int64), np.ones(5, dtype=np.int8), bits=3
        )
        with pytest.raises(ValueError, match="threshold channels"):
            MVTU(rng.choice([-1, 1], size=(4, 9)), thresholds, Folding(1, 1))

    def test_matvec_input_length_checked(self, rng):
        mvtu, _ = _random_mvtu(rng)
        with pytest.raises(ValueError, match="elements"):
            mvtu.matvec(np.zeros(10, dtype=np.int64))


class TestMVTUCycles:
    def test_cycles_per_vector_is_fold(self, rng):
        mvtu, _ = _random_mvtu(rng, rows=64, cols=144, folding=Folding(32, 32))
        assert mvtu.cycles_per_vector() == 10

    def test_layer13_cycle_count(self, rng):
        """Tincy layer 13: 512x4608 matrix, 13x13 pixels, 32x32 folding."""
        mvtu, _ = _random_mvtu(rng, rows=32, cols=64, folding=Folding(32, 32))
        # Scale-free check of the formula on the real geometry:
        fold = Folding(32, 32).fold(512, 4608)
        assert fold * 169 == 389_376


class TestMVTUConvLayer:
    def test_matches_quantized_conv_reference(self, rng):
        """MVTU conv on level codes == float conv + BN + ReLU + 3-bit quant,
        on both the band kernel and the matmat datapath."""
        from repro.core.ops import batchnorm_inference, conv2d, relu
        from repro.core.quantize import UnsignedUniformQuantizer
        from repro.core.tensor import FeatureMapBatch

        c_in, c_out, k = 8, 12, 3
        in_scale, out_scale = 1.0 / 7.0, 0.2
        weights = rng.choice([-1.0, 1.0], size=(c_out, c_in, k, k))
        gamma = rng.uniform(0.5, 2.0, size=c_out)
        beta = rng.normal(size=c_out)
        mean = rng.normal(size=c_out) * 3
        var = rng.uniform(0.5, 2.0, size=c_out)
        thresholds = derive_thresholds(
            gamma, beta, mean, var, in_scale, out_scale, bits=3, eps=1e-6,
            fan_in=c_in * k * k,
        )
        mvtu = MVTU(weights.reshape(c_out, -1), thresholds, Folding(4, 8))
        layer = MVTUConvLayer(
            mvtu, in_channels=c_in, ksize=k, stride=1, pad=1, out_scale=out_scale
        )
        levels = rng.integers(0, 8, size=(c_in, 9, 9))
        fmb = FeatureMapBatch(levels[np.newaxis], scale=in_scale)
        kernel, matmat = layer.forward_batch(fmb), layer.forward_batch_matmat(fmb)
        assert kernel.scale == matmat.scale == out_scale

        # Float reference in double precision.
        z = conv2d(levels.astype(np.float64) * in_scale, weights, None, 1, 1)
        z = batchnorm_inference(z, gamma, beta, mean, var, eps=1e-6)
        quant = UnsignedUniformQuantizer(bits=3, scale=out_scale)
        expected = quant.to_levels(relu(z))
        assert np.array_equal(kernel.frame(0).data, expected)
        assert np.array_equal(matmat.frame(0).data, expected)

    @pytest.mark.parametrize("pool", [None, (2, 2, 1)])
    def test_matmat_frame_chunks_equal_one_call(self, rng, monkeypatch, pool):
        """A batch past the column budget runs in frame chunks (one frame,
        then two with a ragged last chunk) with the same bytes as one
        call and as the band kernel."""
        from repro.core.tensor import FeatureMapBatch
        from repro.finn import mvtu as mvtu_module
        from repro.finn.accelerator import PoolStage

        mvtu, _ = _random_mvtu(rng, rows=16, cols=144)
        layer = MVTUConvLayer(
            mvtu, in_channels=16, ksize=3, stride=1, pad=1, out_scale=1.0 / 7
        )
        pool = pool and PoolStage(*pool)
        fmb = FeatureMapBatch(rng.integers(0, 8, size=(5, 16, 7, 7)), 1.0 / 7)
        whole = layer.forward_batch_matmat(fmb, pool)
        assert whole.data.tobytes() == layer.forward_batch(fmb, pool).data.tobytes()
        for frames_per_chunk in (1, 2):
            monkeypatch.setattr(
                mvtu_module, "_MATMAT_COL_BYTES", frames_per_chunk * 4 * 144 * 49
            )
            chunked = layer.forward_batch_matmat(fmb, pool)
            assert chunked.data.dtype == whole.data.dtype == np.uint8
            assert chunked.data.tobytes() == whole.data.tobytes()
            assert chunked.scale == whole.scale

    def test_stride_two_geometry(self, rng):
        mvtu, _ = _random_mvtu(rng, rows=16, cols=27)
        layer = MVTUConvLayer(
            mvtu, in_channels=3, ksize=3, stride=2, pad=1, out_scale=1.0
        )
        assert layer.out_shape((3, 416, 416)) == (16, 208, 208)

    def test_geometry_mismatch_rejected(self, rng):
        mvtu, _ = _random_mvtu(rng, rows=16, cols=144)
        with pytest.raises(ValueError, match="columns"):
            MVTUConvLayer(mvtu, in_channels=3, ksize=3, stride=1, pad=1, out_scale=1.0)

    def test_ops_follow_table1_convention(self, rng):
        mvtu, _ = _random_mvtu(rng, rows=16, cols=27)
        layer = MVTUConvLayer(
            mvtu, in_channels=3, ksize=3, stride=2, pad=1, out_scale=1.0
        )
        # Tincy layer 1 geometry: 2*27*16*208*208
        assert layer.ops((3, 416, 416)) == 37_380_096
