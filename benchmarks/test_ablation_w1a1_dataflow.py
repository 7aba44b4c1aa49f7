"""Table II show-case ablation — a W1A1 classifier on the dataflow fabric.

§III-A: "the fully binarized 4-layer MLP ... lent themselves to an
implementation of the inference engine with all layers residing one after
the other in a dataflow pipeline".  We train a miniature MLP-4 (W1A1 end
to end), export it onto simulated MVTU dense stages and verify (1) the
fabric classifier predicts identically to the trained network, (2) the
dataflow initiation interval supports far more than camera rate, and
(3) accuracy degrades gracefully versus the float twin.
"""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.data.classify import mnist_like
from repro.finn.dense import MVTUDenseLayer, derive_sign_thresholds
from repro.finn.mvtu import MVTU, Folding
from repro.train.classify import binarize_images, mini_mlp, train_classifier
from repro.train.dense_layers import BatchNorm1d, QLinear
from repro.util.tables import format_table

FMAX_HZ = 100e6


@pytest.fixture(scope="module")
def trained():
    dataset = mnist_like(seed=5)
    binary = mini_mlp(hidden=64, n_hidden_layers=3, binary=True, seed=3)
    float_twin = mini_mlp(hidden=64, n_hidden_layers=3, binary=False, seed=3)
    binary_result = train_classifier(binary, dataset, steps=200, batch_size=32)
    float_result = train_classifier(float_twin, dataset, steps=200, batch_size=32)
    return dataset, binary, binary_result, float_result


def _export(model, folding=Folding(8, 8)):
    modules = model.modules
    linears = [m for m in modules if isinstance(m, QLinear)]
    bns = [m for m in modules if isinstance(m, BatchNorm1d)]
    stages = []
    for linear, bn in zip(linears[:-1], bns):
        thresholds = derive_sign_thresholds(
            bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var,
            eps=bn.eps, fan_in=linear.weight.value.shape[1],
        )
        mvtu = MVTU(linear.effective_weights(), thresholds, folding)
        stages.append(MVTUDenseLayer(mvtu, inputs=linear.weight.value.shape[1]))
    head = linears[-1]
    return stages, head.effective_weights().astype(np.int64), head.bias.value


def _fabric_predict(stages, head_w, head_b, bipolar_image):
    bits = ((bipolar_image.reshape(-1) + 1) / 2).astype(np.int64)
    fm = FeatureMap(bits.reshape(-1, 1, 1))
    for stage in stages:
        fm = stage.forward(fm)
    hidden = 2 * fm.data.ravel().astype(np.int64) - 1
    return int(np.argmax(head_w @ hidden + head_b))


def test_w1a1_dataflow_classifier(benchmark, trained, report):
    dataset, binary_model, binary_result, float_result = trained
    stages, head_w, head_b = _export(binary_model)

    images, labels = dataset.batch(20_000, 48)
    bipolar = binarize_images(images)
    expected = binary_model.forward(bipolar, training=False).argmax(axis=1)

    def run_fabric():
        return [
            _fabric_predict(stages, head_w, head_b, image) for image in bipolar
        ]

    got = benchmark.pedantic(run_fabric, rounds=1, iterations=1)
    assert np.array_equal(np.asarray(got), expected)

    # Dataflow timing: II = slowest stage; head folded like the others.
    stage_cycles = [stage.cycles() for stage in stages]
    head_cycles = Folding(8, 8).fold(head_w.shape[0], head_w.shape[1])
    ii = max(stage_cycles + [head_cycles])
    fps = FMAX_HZ / ii
    assert fps > 1000  # trivially real-time, as the paper's show cases were

    report(
        "Table II show case: mini MLP-4 (W1A1) on the dataflow fabric",
        format_table(
            ["Quantity", "Value"],
            [
                ("fabric predictions == trained network", "48/48 exact"),
                ("float twin accuracy", f"{float_result.accuracy * 100:.1f}%"),
                ("W1A1 accuracy", f"{binary_result.accuracy * 100:.1f}%"),
                ("dataflow II", f"{ii} cycles"),
                ("modeled frame rate", f"{fps:,.0f} fps @ 100 MHz"),
            ],
        ),
    )
    # The W1A1 retreat costs little here (simple task) but never wins.
    assert binary_result.accuracy <= float_result.accuracy + 0.02
    assert binary_result.accuracy > 0.6
