"""Network construction and inference — the Darknet substrate's spine.

A :class:`Network` is built from a parsed :class:`~repro.nn.config.NetworkConfig`;
layer sections instantiate through a type registry so user extensions (and
the tests) can add layer kinds without touching this module.

Inference is *compiled, then executed*: the layer stack lowers once into
an ISA program and every ``forward*`` method below is a thin wrapper over
a cached in-process :class:`~repro.isa.vm.PlanVM` — the same runtime that
serves decoded artifacts.  Single-frame inference is a batch of 1,
bit-identical to the historical sequential walk (pinned by the
equivalence tests and ``make opt-check``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple  # noqa: F401

import numpy as np

from repro.core.resources import CPU, FABRIC
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn.config import NetworkConfig, parse_config
from repro.nn.layers.base import ArraySink, ArraySource, Layer, LayerWorkload
from repro.nn.layers.connected import ConnectedLayer
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.nn.layers.maxpool import MaxpoolLayer
from repro.nn.layers.offload import OffloadLayer
from repro.nn.layers.region import RegionLayer
from repro.nn.layers.route import ReorgLayer, RouteLayer
from repro.nn.layers.softmax import SoftmaxLayer

LAYER_TYPES: Dict[str, Callable[..., Layer]] = {
    "convolutional": ConvolutionalLayer,
    "conv": ConvolutionalLayer,
    "maxpool": MaxpoolLayer,
    "connected": ConnectedLayer,
    "region": RegionLayer,
    "softmax": SoftmaxLayer,
    "offload": OffloadLayer,
    "route": RouteLayer,
    "reorg": ReorgLayer,
}


class Network:
    """An ordered stack of layers with Darknet-compatible weight handling."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.input_shape = config.input_shape()
        self.layers: List[Layer] = []
        shape = self.input_shape
        shapes: List[Tuple[int, int, int]] = []
        for index, section in enumerate(config.layers):
            layer_type = LAYER_TYPES.get(section.name)
            if layer_type is None:
                raise ValueError(f"unknown layer type [{section.name}]")
            layer = layer_type(section)
            if hasattr(layer, "resolve"):
                layer.resolve(index, shapes)
            layer.init(shape)
            shape = layer.out_shape
            shapes.append(shape)
            self.layers.append(layer)
        self.output_shape = shape
        self._plan = None
        self._vms: Dict[int, object] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_cfg(cls, text: str) -> "Network":
        return cls(parse_config(text))

    def initialize(self, rng: np.random.Generator) -> None:
        """Randomly initialize every parameterized layer."""
        for layer in self.layers:
            if hasattr(layer, "initialize"):
                layer.initialize(rng)

    # -- inference --------------------------------------------------------------
    #
    # All three forward paths are thin wrappers over the one
    # runtime (repro.isa.PlanVM) on an in-process compile.

    def plan(self):
        """The compiled :class:`~repro.engine.plan.ExecutionPlan` (cached).

        The layer stack is fixed at construction, so compilation happens at
        most once per network; only weights may change afterwards, and the
        plan carries none.
        """
        if self._plan is None:
            from repro.engine import compile_plan

            self._plan = compile_plan(self)
        return self._plan

    def vm(self, level: Optional[int] = None):
        """The cached in-process :class:`~repro.isa.vm.PlanVM` at ``-O`` *level*.

        ``None`` is the compiler default (``-O2``, what ``forward`` runs);
        ``-O0`` is the keep-everything schedule behind
        ``forward_batch_all``;
        ``-O1`` is one whole instruction per layer with liveness, for
        per-layer accounting.  The program never leaves the process, so it
        carries no content digests and the weights are never hashed; it
        binds to the live layer objects, so weight updates are picked up.
        """
        from repro.isa import DEFAULT_OPT_LEVEL, build_vm

        level = DEFAULT_OPT_LEVEL if level is None else level
        vm = self._vms.get(level)
        if vm is None:
            vm, _hit = build_vm(self, None, opt_level=level)
            self._vms[level] = vm
        return vm

    def _invalidate_vms(self) -> None:
        """Drop the cached VMs: a compiled program bakes in each layer's
        ``out_quant`` structure, so code that swaps quantizers on live
        layers calls this around the swap."""
        self._vms.clear()

    def forward(self, x: FeatureMap) -> FeatureMap:
        """Run all layers in sequence and return the final feature map.

        A batch of 1 through the VM, bit-identical to the historical
        sequential walk.
        """
        if tuple(x.shape) != tuple(self.input_shape):
            raise ValueError(
                f"input shape {tuple(x.shape)} does not match network input "
                f"{tuple(self.input_shape)}"
            )
        fmb = FeatureMapBatch(x.data[np.newaxis, ...], x.scale)
        return self.vm().run(fmb).frame(0)

    def forward_batch(
        self, x: FeatureMapBatch, offload_guard=None
    ) -> FeatureMapBatch:
        """Run a batch of frames (batch axis 0) through all layers.

        Per-frame outputs are bit-identical to sequential :meth:`forward`
        calls — batching changes throughput, never results.  A zero-frame
        batch returns a well-formed empty output.

        *offload_guard*, when given, is a context manager entered around
        every FABRIC-tagged step (the program's resource tag — any
        offload-style layer, registered subclasses included).  The serving
        subsystem passes its fabric gate here: the FINN engine is a single
        serialized resource, so concurrent batch executions must queue on
        it rather than overlap (the guard asserts and accounts for exactly
        that).
        """
        if tuple(x.frame_shape) != tuple(self.input_shape):
            raise ValueError(
                f"input frames {tuple(x.frame_shape)} do not match network "
                f"input {tuple(self.input_shape)}"
            )
        return self.vm().run(x, offload_guard=offload_guard)

    def forward_batch_all(
        self, x: FeatureMapBatch, offload_guard=None
    ) -> List[FeatureMapBatch]:
        """Run a batch keeping every intermediate batch.

        The keep-everything traversal (the ``-O0`` program, which has no
        liveness) for the callers that genuinely need all intermediates:
        quantization calibration and backward-looking layer tests.
        """
        if tuple(x.frame_shape) != tuple(self.input_shape):
            raise ValueError(
                f"input frames {tuple(x.frame_shape)} do not match network "
                f"input {tuple(self.input_shape)}"
            )
        return self.vm(0).run_all(x, offload_guard=offload_guard)

    # -- weights ------------------------------------------------------------------

    def load_weights_array(self, values: np.ndarray) -> None:
        """Load a flat float32 parameter array in Darknet file order."""
        source = ArraySource(values)
        for layer in self.layers:
            layer.load_weights(source)
        if source.remaining:
            raise ValueError(f"{source.remaining} unconsumed weight floats")

    def save_weights_array(self) -> np.ndarray:
        sink = ArraySink()
        for layer in self.layers:
            layer.save_weights(sink)
        return sink.concatenated()

    def num_params(self) -> int:
        return sum(layer.num_params() for layer in self.layers)

    # -- accounting ------------------------------------------------------------------

    def workloads(self) -> List[LayerWorkload]:
        """Per-layer operation counts (the rows of Table I)."""
        return [layer.workload() for layer in self.layers]

    def total_ops(self) -> int:
        return sum(item.ops for item in self.workloads())

    def find_layers(self, ltype: str) -> List[Layer]:
        return [layer for layer in self.layers if layer.ltype == ltype]

    @property
    def uses_fabric(self) -> bool:
        """True when any layer occupies the FINN fabric engine.

        Such a network holds the platform's single serialized fabric
        resource while its offload runs.  Keyed off the layers'
        ``resource`` tag (the same tag the plan compiler uses), so
        registered offload-style layer kinds count too.
        """
        return any(
            getattr(layer, "resource", CPU) == FABRIC for layer in self.layers
        )

    def destroy(self) -> None:
        for layer in self.layers:
            layer.destroy()

    def __repr__(self) -> str:
        return (
            f"<Network {len(self.layers)} layers, "
            f"{self.input_shape} -> {self.output_shape}>"
        )


def register_layer_type(name: str, factory: Callable[..., Layer]) -> None:
    """Add a layer type to the cfg vocabulary (the tests register fakes)."""
    LAYER_TYPES[name] = factory


__all__ = ["Network", "LAYER_TYPES", "register_layer_type"]
