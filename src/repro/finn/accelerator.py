"""Fabric accelerators: the iterated single engine and dataflow pipelines.

§III-A: for the earlier FINN show cases (MLP-4, CNV-6) every layer gets its
own engine and the whole network forms a *dataflow pipeline* in the fabric.
Tincy YOLO's hidden layers are orders of magnitude heavier, so on the small
XCZU3EG "the layers of the network must be run one after the other on the
same accelerator" — an *iterated* schedule with no cross-layer concurrency
and full feature maps materialized between layers.

Both schedules are modeled here over the same :class:`~repro.finn.mvtu.MVTU`
stages: functionally (bit-faithful level arithmetic) and in time (cycle
counts divided by the fabric clock, plus per-layer invocation overhead for
the iterated engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import workspace
from repro.core.tensor import FeatureMapBatch
from repro.core.thresholds import derive_thresholds
from repro.finn.mvtu import MVTU, Folding, MVTUConvLayer
from repro.finn.resources import (
    ResourceEstimate,
    mvtu_compute_resources,
    pool_resources,
    swu_resources,
    total_estimate,
    weight_storage_resources,
)
from repro.nn.layers.convolutional import BN_EPS, ConvolutionalLayer
from repro.nn.layers.maxpool import MaxpoolLayer

#: Defaults calibrated in EXPERIMENTS.md (the "fabric folding / clock"
#: row): a 32x32 engine at 100 MHz in the XCZU3EG fabric with ~1 ms of
#: invocation overhead per offloaded layer reproduces the paper's "30 ms
#: for all hidden layers".
DEFAULT_FOLDING = Folding(pe=32, simd=32)
DEFAULT_FMAX_HZ = 100e6
DEFAULT_LAYER_OVERHEAD_S = 1.0e-3


@dataclass
class PoolStage:
    """A maxpool executed on the fabric right after its convolution."""

    size: int
    stride: int
    padding: int

    def out_shape(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        from repro.core.tensor import pool_output_size

        c, h, w = in_shape
        return (
            c,
            pool_output_size(h, self.size, self.stride, self.padding),
            pool_output_size(w, self.size, self.stride, self.padding),
        )

    def cycles(self, in_shape: Tuple[int, int, int]) -> int:
        _, out_h, out_w = self.out_shape(in_shape)
        return out_h * out_w


@dataclass
class FabricStage:
    """One offloaded convolution with its optional trailing pool."""

    conv: MVTUConvLayer
    pool: Optional[PoolStage]
    in_shape: Tuple[int, int, int]

    @property
    def out_shape(self) -> Tuple[int, int, int]:
        shape = self.conv.out_shape(self.in_shape)
        if self.pool is not None:
            shape = self.pool.out_shape(shape)
        return shape

    def forward_batch(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        return self.conv.forward_batch(fmb, pool=self.pool)

    def forward_batch_matmat(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """The stage on the MVTU matmat datapath (the CPU reference)."""
        return self.conv.forward_batch_matmat(fmb, pool=self.pool)

    def cycles(self) -> int:
        total = self.conv.cycles(self.in_shape)
        if self.pool is not None:
            total += self.pool.cycles(self.conv.out_shape(self.in_shape))
        return total

    def ops(self) -> int:
        return self.conv.ops(self.in_shape)


def _stage_from_conv(
    conv: ConvolutionalLayer,
    input_scale: float,
    folding: Folding,
    bitserial: bool,
) -> MVTUConvLayer:
    """Compile a W1A3 Darknet convolution into an MVTU stage."""
    if not conv.binary:
        raise ValueError("fabric offload requires binarized weights (binary=1)")
    if conv.out_quant is None:
        raise ValueError("fabric offload requires activation_bits on the layer")
    if not conv.batch_normalize:
        raise ValueError("fabric offload expects batch-normalized layers")
    if conv.activation not in ("relu", "linear"):
        raise ValueError(
            f"fabric threshold derivation supports relu/linear, "
            f"not '{conv.activation}'"
        )
    weights = conv.effective_weights().reshape(conv.filters, -1)
    thresholds = derive_thresholds(
        conv.scales,
        conv.biases,
        conv.rolling_mean,
        conv.rolling_var,
        in_scale=input_scale,
        out_scale=conv.out_quant.scale,
        bits=conv.out_quant.bits,
        eps=BN_EPS,
        fan_in=weights.shape[1],
    )
    mvtu = MVTU(weights, thresholds, folding, bitserial=bitserial)
    return MVTUConvLayer(
        mvtu,
        in_channels=conv.in_shape[0],
        ksize=conv.size,
        stride=conv.stride,
        pad=conv.pad,
        out_scale=conv.out_quant.scale,
    )


def compile_stages(
    layers: Sequence,
    input_scale: float,
    input_shape: Tuple[int, int, int],
    folding: Folding = DEFAULT_FOLDING,
    per_layer_folding: Optional[Sequence[Folding]] = None,
    bitserial: bool = False,
) -> List[FabricStage]:
    """Compile a conv/maxpool Darknet layer run into fabric stages.

    Maxpool layers attach to the preceding convolution (the paper's
    "convolutional layer together with its subsequent pooling layer").
    """
    stages: List[FabricStage] = []
    scale = input_scale
    shape = tuple(input_shape)
    conv_index = 0
    index = 0
    while index < len(layers):
        layer = layers[index]
        if not isinstance(layer, ConvolutionalLayer):
            raise ValueError(
                f"offloaded subgraph must start each stage with a convolution, "
                f"found {layer.ltype}"
            )
        fold = (
            per_layer_folding[conv_index]
            if per_layer_folding is not None
            else folding
        )
        conv_stage = _stage_from_conv(layer, scale, fold, bitserial)
        pool_stage = None
        if index + 1 < len(layers) and isinstance(layers[index + 1], MaxpoolLayer):
            pool = layers[index + 1]
            pool_stage = PoolStage(pool.size, pool.stride, pool.padding)
            index += 1
        stage = FabricStage(conv=conv_stage, pool=pool_stage, in_shape=shape)
        stages.append(stage)
        shape = stage.out_shape
        scale = layer.out_quant.scale
        conv_index += 1
        index += 1
    return stages


class IteratedAccelerator:
    """One folded engine serving every stage, one layer at a time.

    "Note that this precludes concurrency across layers and implies a higher
    latency compared to a pipeline as the feature maps between layers are
    computed in full before the computation of the next layer can be
    triggered." (§III-A)
    """

    def __init__(
        self,
        stages: Sequence[FabricStage],
        fmax_hz: float = DEFAULT_FMAX_HZ,
        layer_overhead_s: float = DEFAULT_LAYER_OVERHEAD_S,
    ) -> None:
        if not stages:
            raise ValueError("accelerator needs at least one stage")
        foldings = {
            (s.conv.mvtu.folding.pe, s.conv.mvtu.folding.simd) for s in stages
        }
        if len(foldings) != 1:
            raise ValueError("the iterated engine is shared: one folding for all")
        self.stages = list(stages)
        self.fmax_hz = fmax_hz
        self.layer_overhead_s = layer_overhead_s

    @property
    def folding(self) -> Folding:
        return self.stages[0].conv.mvtu.folding

    @property
    def in_shape(self) -> Tuple[int, int, int]:
        return self.stages[0].in_shape

    @property
    def out_shape(self) -> Tuple[int, int, int]:
        return self.stages[-1].out_shape

    def forward_batch(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        current = fmb
        for stage in self.stages:
            produced = stage.forward_batch(current)
            if current is not fmb:
                # The engine is iterated: a stage's input map is dead the
                # moment the stage has run.
                workspace.release(current.data)
            current = produced
        return current

    def cycles_per_frame(self) -> int:
        return sum(stage.cycles() for stage in self.stages)

    def time_per_frame(self) -> float:
        compute = self.cycles_per_frame() / self.fmax_hz
        return compute + len(self.stages) * self.layer_overhead_s

    def ops_per_frame(self) -> int:
        return sum(stage.ops() for stage in self.stages)

    def resources(self) -> ResourceEstimate:
        geometries = [stage.conv.mvtu.geometry for stage in self.stages]
        abits = max(g.activation_bits for g in geometries)
        # One engine: compute sized once, all weight matrices resident,
        # the SWU line buffer sized for the widest layer.
        swu_bits = max(
            stage.conv.ksize
            * stage.in_shape[2]
            * stage.in_shape[0]
            * stage.conv.mvtu.geometry.activation_bits
            for stage in self.stages
        )
        widest = max(
            self.stages,
            key=lambda s: s.conv.ksize
            * s.in_shape[2]
            * s.in_shape[0]
            * s.conv.mvtu.geometry.activation_bits,
        )
        parts = [
            mvtu_compute_resources(self.folding, abits),
            weight_storage_resources(geometries, self.folding),
            swu_resources(
                widest.conv.ksize,
                widest.in_shape[2],
                widest.in_shape[0],
                abits,
                self.folding,
            ),
            pool_resources(),
        ]
        return total_estimate(parts)


class DataflowAccelerator:
    """Per-layer engines forming a fabric pipeline (the FINN show-case style).

    Throughput is set by the slowest stage (the initiation interval);
    latency is the sum of all stage times.  Resources are the sum over all
    stages — which is why this schedule "quickly fails on resource
    constraints for Tincy YOLO" on an XCZU3EG.
    """

    def __init__(self, stages: Sequence[FabricStage], fmax_hz: float = DEFAULT_FMAX_HZ):
        if not stages:
            raise ValueError("accelerator needs at least one stage")
        self.stages = list(stages)
        self.fmax_hz = fmax_hz

    def forward_batch(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        for stage in self.stages:
            fmb = stage.forward_batch(fmb)
        return fmb

    def initiation_interval_cycles(self) -> int:
        return max(stage.cycles() for stage in self.stages)

    def time_per_frame(self) -> float:
        return self.initiation_interval_cycles() / self.fmax_hz

    def latency_s(self) -> float:
        return sum(stage.cycles() for stage in self.stages) / self.fmax_hz

    def ops_per_frame(self) -> int:
        return sum(stage.ops() for stage in self.stages)

    def resources(self) -> ResourceEstimate:
        parts: List[ResourceEstimate] = []
        for stage in self.stages:
            geometry = stage.conv.mvtu.geometry
            folding = stage.conv.mvtu.folding
            parts.append(mvtu_compute_resources(folding, geometry.activation_bits))
            parts.append(weight_storage_resources([geometry], folding))
            parts.append(
                swu_resources(
                    stage.conv.ksize,
                    stage.in_shape[2],
                    stage.in_shape[0],
                    geometry.activation_bits,
                    folding,
                )
            )
            if stage.pool is not None:
                parts.append(pool_resources())
        return total_estimate(parts)


def balanced_dataflow_foldings(
    stages_cycles_unit: Sequence[int], target_cycles: int
) -> List[Folding]:
    """Pick per-stage PE/SIMD so each stage meets *target_cycles* per frame.

    ``stages_cycles_unit`` holds each stage's cycles at PE=SIMD=1; the
    parallelization factor needed is their ratio, split evenly (powers of
    two) between PE and SIMD.
    """
    foldings = []
    for unit_cycles in stages_cycles_unit:
        factor = max(1, math.ceil(unit_cycles / target_cycles))
        # Split the factor into PE * SIMD as evenly as possible in powers of 2.
        exponent = max(0, math.ceil(math.log2(factor)))
        pe = 2 ** (exponent // 2)
        simd = 2 ** (exponent - exponent // 2)
        foldings.append(Folding(pe=pe, simd=simd))
    return foldings


__all__ = [
    "DEFAULT_FOLDING",
    "DEFAULT_FMAX_HZ",
    "DEFAULT_LAYER_OVERHEAD_S",
    "PoolStage",
    "FabricStage",
    "compile_stages",
    "IteratedAccelerator",
    "DataflowAccelerator",
    "balanced_dataflow_foldings",
]
