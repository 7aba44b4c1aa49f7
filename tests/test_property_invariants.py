"""Cross-module property-based tests (hypothesis) on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tensor import FeatureMap, conv_output_size
from repro.core.thresholds import derive_thresholds
from repro.eval.boxes import Box, Detection, nms
from repro.finn.mvtu import MVTU, Folding, MVTUConvLayer
from repro.video.letterbox import letterbox
from tests.batch_of_one import forward_frame


class TestFoldingInvariance:
    """The MVTU's PE/SIMD folding changes *time*, never *values*."""

    @given(
        pe=st.sampled_from([1, 2, 4, 16]),
        simd=st.sampled_from([1, 3, 8, 32]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_independent_of_folding(self, pe, simd, seed):
        rng = np.random.default_rng(seed)
        rows, cols = 8, 36
        weights = rng.choice([-1, 1], size=(rows, cols))
        thresholds = derive_thresholds(
            gamma=rng.uniform(0.5, 2.0, size=rows),
            beta=rng.normal(size=rows),
            mean=rng.normal(size=rows),
            var=rng.uniform(0.5, 2.0, size=rows),
            in_scale=1.0 / 7,
            out_scale=1.0 / 7,
            bits=3,
            fan_in=cols,
        )
        reference = MVTU(weights, thresholds, Folding(1, 1))
        folded = MVTU(weights, thresholds, Folding(pe, simd))
        columns = rng.integers(0, 8, size=(cols, 5))
        assert np.array_equal(reference.matmat(columns), folded.matmat(columns))
        # ...while the cycle count strictly follows the folding.
        assert folded.cycles_per_vector() == Folding(pe, simd).fold(rows, cols)


class TestGeometryProperties:
    @given(
        size=st.integers(4, 64),
        ksize=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2]),
    )
    @settings(max_examples=50, deadline=None)
    def test_conv_output_size_consistent_with_real_conv(self, size, ksize, stride):
        from repro.core.ops import conv2d

        pad = ksize // 2
        x = np.zeros((1, size, size), dtype=np.float32)
        w = np.zeros((2, 1, ksize, ksize), dtype=np.float32)
        out = conv2d(x, w, None, stride, pad)
        expected = conv_output_size(size, ksize, stride, pad)
        assert out.shape == (2, expected, expected)

    @given(
        stride=st.sampled_from([1, 2]),
        size=st.integers(8, 40).filter(lambda s: s % 2 == 0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stride_two_quarters_conv_ops(self, stride, size):
        """Modification (d)'s arithmetic: stride 2 divides ops by 4."""
        from repro.nn.config import Section
        from repro.nn.layers.convolutional import ConvolutionalLayer

        def ops(s):
            layer = ConvolutionalLayer(
                Section(
                    "convolutional",
                    {"filters": "4", "size": "3", "stride": str(s), "pad": "1",
                     "activation": "linear"},
                )
            )
            layer.init((3, size, size))
            return layer.workload().ops

        assert ops(1) == 4 * ops(2)


class TestNMSProperties:
    @st.composite
    def detections(draw):
        n = draw(st.integers(0, 12))
        dets = []
        for index in range(n):
            dets.append(
                Detection(
                    box=Box(
                        draw(st.floats(0.1, 0.9)),
                        draw(st.floats(0.1, 0.9)),
                        draw(st.floats(0.05, 0.5)),
                        draw(st.floats(0.05, 0.5)),
                    ),
                    class_id=draw(st.integers(0, 3)),
                    score=draw(st.floats(0.01, 1.0)),
                )
            )
        return dets

    @given(dets=detections())
    @settings(max_examples=50, deadline=None)
    def test_nms_idempotent(self, dets):
        once = nms(dets)
        twice = nms(once)
        assert once == twice

    @given(dets=detections())
    @settings(max_examples=50, deadline=None)
    def test_nms_subset_and_sorted(self, dets):
        kept = nms(dets)
        assert len(kept) <= len(dets)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        for det in kept:
            assert det in dets


class TestLetterboxProperties:
    @given(
        h=st.integers(20, 200),
        w=st.integers(20, 200),
        net=st.sampled_from([48, 96, 416]),
        x=st.floats(0.2, 0.8),
        y=st.floats(0.2, 0.8),
        bw=st.floats(0.05, 0.3),
        bh=st.floats(0.05, 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_box_mapping_roundtrip(self, h, w, net, x, y, bw, bh):
        image = np.zeros((3, h, w), dtype=np.float32)
        _, geometry = letterbox(image, net)
        box = Box(x, y, bw, bh)
        back = geometry.net_box_to_frame(geometry.frame_box_to_net(box))
        assert back.x == pytest.approx(box.x, abs=1e-6)
        assert back.w == pytest.approx(box.w, abs=1e-6)

    @given(h=st.integers(20, 120), w=st.integers(20, 120))
    @settings(max_examples=30, deadline=None)
    def test_canvas_always_square_and_gray_padded(self, h, w):
        image = np.ones((3, h, w), dtype=np.float32)
        boxed, geometry = letterbox(image, 64)
        assert boxed.shape == (3, 64, 64)
        # padding area (if any) is exactly 0.5
        if geometry.offset_y > 0:
            assert np.allclose(boxed[:, 0, :], 0.5)
        if geometry.offset_x > 0:
            assert np.allclose(boxed[:, :, 0], 0.5)


class TestQuantizedInferenceProperties:
    @given(seed=st.integers(0, 50), bits=st.sampled_from([1, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_mvtu_conv_levels_in_range(self, seed, bits):
        rng = np.random.default_rng(seed)
        c_in, c_out = 4, 6
        weights = rng.choice([-1, 1], size=(c_out, c_in * 9))
        thresholds = derive_thresholds(
            gamma=rng.uniform(0.5, 2.0, size=c_out),
            beta=rng.normal(size=c_out),
            mean=rng.normal(size=c_out),
            var=rng.uniform(0.5, 2.0, size=c_out),
            in_scale=1.0 / 7,
            out_scale=1.0 / 7,
            bits=bits,
            fan_in=c_in * 9,
        )
        layer = MVTUConvLayer(
            MVTU(weights, thresholds, Folding(2, 4)),
            in_channels=c_in, ksize=3, stride=1, pad=1, out_scale=1.0 / 7,
        )
        levels = rng.integers(0, 8, size=(c_in, 6, 6))
        out = forward_frame(layer, FeatureMap(levels, scale=1.0 / 7))
        assert out.data.min() >= 0
        assert out.data.max() <= (1 << bits) - 1


class TestDetectionLossDescent:
    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_gradient_step_reduces_loss(self, seed):
        from repro.eval.boxes import GroundTruth
        from repro.train.loss import DetectionLoss

        rng = np.random.default_rng(seed)
        loss_fn = DetectionLoss(n_classes=4)
        preds = rng.normal(size=(1, 9, 4, 4)).astype(np.float64)
        targets = [[GroundTruth(2, Box(0.4, 0.6, 0.3, 0.2))]]
        loss0, grad = loss_fn(preds, targets)
        loss1, _ = loss_fn(preds - 0.01 * grad, targets)
        assert loss1 <= loss0 + 1e-9
