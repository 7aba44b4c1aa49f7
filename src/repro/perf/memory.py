"""Memory-footprint accounting — the §I motivation for quantization.

"The challenges that must be addressed by a CNN inference engine are the
storage of and timely access to the network parameters as well as the
enormous dot-product compute.  Both challenges can be defused by
quantization.  Eliminating unnecessary precision from the network
parameters reduces their memory footprint accordingly."

This module prices a network's parameter and feature-map storage under a
precision regime: float32, int8, or the layer-specific quantization flags
of the topology itself (binary weights where ``binary=1``, thresholds in
place of BN parameters, level-coded activations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.nn.network import Network


@dataclass
class LayerMemory:
    """Storage of one layer under a given regime (bits)."""

    name: str
    weight_bits: int
    aux_bits: int            # biases / BN params or thresholds
    activation_bits: int     # output feature map

    @property
    def total_bits(self) -> int:
        return self.weight_bits + self.aux_bits + self.activation_bits


@dataclass
class MemoryReport:
    layers: List[LayerMemory]

    @property
    def weight_bytes(self) -> int:
        return sum(l.weight_bits for l in self.layers) // 8

    @property
    def aux_bytes(self) -> int:
        return sum(l.aux_bits for l in self.layers) // 8

    @property
    def activation_bytes(self) -> int:
        return sum(l.activation_bits for l in self.layers) // 8

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.aux_bytes + self.activation_bytes


def _conv_like_memory(layer, regime: str) -> LayerMemory:
    out_elems = int(layer.out_shape[0] * layer.out_shape[1] * layer.out_shape[2])
    n_out = layer.out_shape[0]
    n_weights = int(layer.weights.size)
    bn_params = 4 * n_out if layer.batch_normalize else n_out

    if regime == "float32":
        return LayerMemory(layer.ltype, 32 * n_weights, 32 * bn_params, 32 * out_elems)
    if regime == "int8":
        # int8 weights + float scale/zero-point per layer; BN folded or int32.
        return LayerMemory(layer.ltype, 8 * n_weights, 32 * bn_params, 8 * out_elems)
    if regime == "quantized":
        binary = getattr(layer, "binary", False)
        quant = getattr(layer, "out_quant", None)
        weight_bits = (1 if binary else 8) * n_weights
        if binary and quant is not None:
            # FINN: BN+activation folded into integer thresholds
            # (2**bits - 1 thresholds per output channel, 24-bit each).
            aux_bits = 24 * ((1 << quant.bits) - 1) * n_out
        else:
            aux_bits = 32 * bn_params
        if quant is not None:
            act_bits = quant.bits
        else:  # W1A1 (MLP-4 / CNV-6, Table II): a sign activation is 1 bit
            act_bits = 1 if layer.activation == "sign" else 8
        return LayerMemory(
            layer.ltype, weight_bits, aux_bits, act_bits * out_elems
        )
    raise ValueError(f"unknown memory regime '{regime}'")


def network_memory(network: Network, regime: str = "quantized") -> MemoryReport:
    """Price every parameterized layer of *network* under *regime*.

    ``regime``: ``float32`` (Darknet's native storage), ``int8`` (the
    conservative TPU-style quantization of §II), or ``quantized`` (the
    layer flags of the topology itself — Tincy YOLO's W1A3 regime).
    """
    layers = []
    for layer in network.layers:
        if layer.ltype in ("convolutional", "connected"):
            layers.append(_conv_like_memory(layer, regime))
    return MemoryReport(layers=layers)


def activation_high_water(
    network: Network, bytes_per_element: Optional[int] = None
) -> int:
    """Peak simultaneously-live activation bytes per frame.

    Reconciles this module's keep-everything activation pricing with the
    compiled schedule's buffer liveness: the compiled plan releases every
    intermediate feature map after its last consumer, so the true working
    set is the *high-water mark* of the schedule, not the sum over layers.
    Each map is priced at the dtype its producer emits (one byte for W1A3
    level codes and W1A1 sign codes) unless *bytes_per_element* prices
    them all alike.
    """
    return network.plan().peak_live_bytes(bytes_per_element=bytes_per_element)


def arena_reconciliation(network: Network, report) -> dict:
    """Reconcile a run's measured arena high-water with the plan accounting.

    *report* is the :class:`~repro.isa.vm.ExecutionReport` of a batched
    run on the one-instruction-per-layer ``-O1`` VM (``network.vm(1)``; its
    ``arena`` field holds the allocator snapshot).  The
    plan side of the ledger is :meth:`ExecutionPlan.arena_budget` — peak
    live activation bytes per frame, each map at the dtype its producer
    emits, times the batch.  The arena additionally
    holds transient kernel scratch (im2col multiplicands, padded maps,
    level-code buffers), so its high-water normally *exceeds* the plan
    figure; ``scratch_bytes`` is that excess and ``ratio`` the relative
    overshoot.  A ratio far above the im2col inflation of the heaviest
    layer indicates buffers are escaping reuse.
    """
    if report.arena is None:
        raise ValueError("report carries no arena snapshot (zero-frame run?)")
    plan_bytes = network.plan().arena_budget(report.batch)
    measured = int(report.arena["high_water_bytes"])
    return {
        "batch": report.batch,
        "plan_bytes": plan_bytes,
        "arena_high_water_bytes": measured,
        "scratch_bytes": max(0, measured - plan_bytes),
        "ratio": (measured / plan_bytes) if plan_bytes else float("inf"),
        "hits": int(report.arena["hits"]),
        "misses": int(report.arena["misses"]),
        "recycled": int(report.arena["recycled"]),
    }


def compression_factor(network: Network) -> float:
    """Weight-storage compression of the topology's regime vs float32."""
    full = network_memory(network, "float32").weight_bytes
    quant = network_memory(network, "quantized").weight_bytes
    return full / quant


__all__ = [
    "LayerMemory",
    "MemoryReport",
    "network_memory",
    "activation_high_water",
    "arena_reconciliation",
    "compression_factor",
]
