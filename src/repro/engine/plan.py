"""Plan compilation: lower a layer stack into an explicit dataflow plan.

The paper's demo mode works by *disintegrating* the sequential forward
pass into individually schedulable layer invocations (§III-F); FINN-R
generalizes the idea into a compile-then-execute split — derive a
dataflow graph from the model once, then run it.  :func:`compile_plan`
performs that lowering for our substrate:

* every layer becomes one :class:`PlanStep` with **explicit input edges**
  (``inputs``), resolving backward-looking ``[route]`` dependencies at
  compile time instead of threading a grow-forever history list through
  the runtime;
* each step carries the **resource tag** of the layer that backs it
  (:data:`~repro.core.resources.FABRIC` for offload-style layers —
  keyed off ``Layer.resource``, never off an ``ltype`` string compare);
* a **buffer liveness analysis** records, per step, which intermediate
  buffers die after it runs (``release_after``), plus a compile-time
  high-water memory estimate that reconciles with the
  :mod:`repro.perf.memory` activation accounting.

The plan is a compile-time table about *what* to run in *what* order with
*which* buffers — it is not executable.  The ISA frontend
(:func:`repro.isa.compiler.frontend`) reads it to emit the program that
:class:`repro.isa.vm.PlanVM` runs; the static analyzers and the memory
model read it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.quantize import level_dtype
from repro.core.resources import CPU, FABRIC

#: Pseudo buffer id of the network input (the video source's output).
INPUT = -1


@dataclass(frozen=True)
class PlanStep:
    """One compiled layer invocation of an :class:`ExecutionPlan`.

    ``inputs`` are producer step indices (``INPUT`` = the network input):
    ``inputs[0]`` is always the chain predecessor, any further entries are
    the resolved history dependencies of backward-looking layers, in the
    layer's declaration order.  ``ops`` is the per-frame operation count
    (the Table I accounting), so instrumented runs can report ops/s.
    """

    index: int
    ltype: str
    name: str
    resource: str
    inputs: Tuple[int, ...]
    out_shape: Tuple[int, int, int]
    ops: int
    layer: object = field(compare=False, repr=False, default=None)
    #: The dtype the step's output map travels in (:func:`emitted_dtype`).
    out_dtype: np.dtype = np.dtype(np.float32)

    @property
    def out_elements(self) -> int:
        """Output elements per frame."""
        c, h, w = self.out_shape
        return int(c) * int(h) * int(w)


def emitted_dtype(layer, in_dtypes: Sequence[np.dtype]) -> np.dtype:
    """The dtype *layer* emits its output map in, read from its config.

    A quantized output is level codes (``uint8`` up to 8 bits), a ``sign``
    activation ``int8`` codes; a pool or reorg moves its input's elements
    as they are, and an offload emits what its backend declares
    (``out_dtype``).  Everything else — float maps, and a route, which
    concatenates in the value domain when its inputs' scales differ — is
    priced as float32, the widest map dtype.
    """
    quant = getattr(layer, "out_quant", None)
    if quant is not None:
        return level_dtype(quant.bits)
    if getattr(layer, "activation", None) == "sign":
        return np.dtype(np.int8)
    if layer.ltype in ("maxpool", "reorg"):
        return np.dtype(in_dtypes[0])
    declared = getattr(getattr(layer, "backend", None), "out_dtype", None)
    return np.dtype(declared or np.float32)


@dataclass
class ExecutionPlan:
    """A compiled network: steps, dataflow edges, and buffer lifetimes.

    ``release_after[j]`` lists the buffer ids (step indices or ``INPUT``)
    whose *last* consumer is step ``j`` — dead right after ``j`` runs.
    The final step's output is the plan output and is never released.
    """

    input_shape: Tuple[int, int, int]
    output_shape: Tuple[int, int, int]
    steps: List[PlanStep]
    release_after: Dict[int, Tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def uses_fabric(self) -> bool:
        """True when any step occupies the serialized fabric engine."""
        return any(step.resource == FABRIC for step in self.steps)

    # -- read-only metadata (the static analyzer's view) ---------------------

    def edges(self) -> List[Tuple[int, int]]:
        """All dataflow edges as ``(producer, consumer)`` buffer-id pairs.

        ``INPUT`` (= -1) appears as the producer of the network input's
        edges.  The order is the consumption order: step by step, each
        step's ``inputs`` tuple in declaration order.
        """
        return [
            (producer, step.index)
            for step in self.steps
            for producer in step.inputs
        ]

    def consumers(self, buffer_id: int) -> Tuple[int, ...]:
        """Step indices that read *buffer_id* (``INPUT`` for the net input)."""
        return tuple(
            step.index for step in self.steps if buffer_id in step.inputs
        )

    def buffer_shape(self, buffer_id: int) -> Tuple[int, int, int]:
        """Frame shape of a buffer: the input shape or a step's out shape."""
        if buffer_id == INPUT:
            return tuple(self.input_shape)
        return tuple(self.steps[buffer_id].out_shape)

    # -- memory accounting -------------------------------------------------

    def _buffer_bytes(self, buffer_id: int, bytes_per_element: Optional[int]) -> int:
        if buffer_id == INPUT:
            c, h, w = self.input_shape
            elements, itemsize = int(c) * int(h) * int(w), 4
        else:
            step = self.steps[buffer_id]
            elements, itemsize = step.out_elements, step.out_dtype.itemsize
        return elements * (itemsize if bytes_per_element is None else bytes_per_element)

    def peak_live_bytes(self, bytes_per_element: Optional[int] = None) -> int:
        """Compile-time high-water estimate of live buffer bytes per frame.

        Walks the schedule: while step ``j`` runs, its output coexists with
        every buffer still live (inputs are released only *after* their
        last consumer finishes).  By default each slot is priced at the
        dtype its producer emits (``PlanStep.out_dtype``): one byte for
        ``int8`` sign codes and ``uint8`` level codes, four for float32
        maps (the network input is float32) — the maps the numpy substrate
        actually passes, so the estimate reconciles with the VM's measured
        ``nbytes`` high-water.  A *bytes_per_element* prices every slot
        alike instead.
        """
        live: Dict[int, int] = {INPUT: self._buffer_bytes(INPUT, bytes_per_element)}
        peak = sum(live.values())
        for step in self.steps:
            live[step.index] = self._buffer_bytes(step.index, bytes_per_element)
            peak = max(peak, sum(live.values()))
            for victim in self.release_after.get(step.index, ()):
                live.pop(victim, None)
        return peak

    def arena_budget(
        self, batch: int, bytes_per_element: Optional[int] = None
    ) -> int:
        """Arena sizing hint for a batch-``batch`` run.

        The VM's arena reuses buffers as the liveness schedule frees
        them, so its steady-state footprint tracks the *live* working set —
        :meth:`peak_live_bytes` scaled by the batch — not the
        keep-everything total.  ``perf.memory.arena_reconciliation``
        compares a measured arena high-water against this figure.
        """
        if batch < 0:
            raise ValueError("batch must be non-negative")
        return self.peak_live_bytes(bytes_per_element) * int(batch)


def compile_plan(network) -> ExecutionPlan:
    """Lower *network*'s layer stack into an :class:`ExecutionPlan`.

    *network* only needs ``layers`` (initialized, in execution order) and
    ``input_shape`` — the plan compiler is duck-typed so tests can compile
    fakes.  Dependency resolution, resource tagging, and liveness all
    happen here, once; nothing downstream inspects layer types again.
    """
    steps: List[PlanStep] = []
    dtypes: Dict[int, np.dtype] = {INPUT: np.dtype(np.float32)}
    for index, layer in enumerate(network.layers):
        chain = index - 1 if index > 0 else INPUT
        edges: Tuple[int, ...] = (chain,)
        if getattr(layer, "needs_history", False):
            dependencies = layer.history_dependencies()
            bad = [d for d in dependencies if not 0 <= d < index]
            if bad:
                raise ValueError(
                    f"layer {index} [{layer.ltype}] depends on {bad}, "
                    f"outside [0, {index})"
                )
            edges = (chain,) + tuple(int(d) for d in dependencies)
        dtypes[index] = emitted_dtype(layer, [dtypes[e] for e in edges])
        steps.append(
            PlanStep(
                index=index,
                ltype=layer.ltype,
                name=f"#{index:02d} {layer.ltype}",
                resource=getattr(layer, "resource", CPU),
                inputs=edges,
                out_shape=tuple(layer.out_shape),
                ops=int(layer.workload().ops),
                layer=layer,
                out_dtype=dtypes[index],
            )
        )
    if not steps:
        raise ValueError("cannot compile a plan for an empty network")

    # Liveness: a buffer dies right after its last consumer runs.  The
    # final step's output is the plan result and has no release point.
    last_consumer: Dict[int, int] = {}
    for step in steps:
        for buffer_id in step.inputs:
            last_consumer[buffer_id] = step.index
    output_id = steps[-1].index
    release_after: Dict[int, List[int]] = {}
    for buffer_id, consumer in last_consumer.items():
        if buffer_id == output_id:
            continue
        release_after.setdefault(consumer, []).append(buffer_id)
    return ExecutionPlan(
        input_shape=tuple(network.input_shape),
        output_shape=steps[-1].out_shape,
        steps=steps,
        release_after={
            consumer: tuple(sorted(buffers))
            for consumer, buffers in release_after.items()
        },
    )


__all__ = ["INPUT", "PlanStep", "ExecutionPlan", "compile_plan", "emitted_dtype"]
