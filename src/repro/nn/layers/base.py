"""Layer life cycle — the function-hook abstraction of Fig. 3.

Darknet virtualizes layer functionality through function pointers; the
paper's offload mechanism works precisely because a layer is nothing more
than the four hooks ``init`` / ``load_weights`` / ``forward`` / ``destroy``.
Our base class mirrors that contract so that *any* layer — including ones
backed by the simulated FPGA fabric — plugs into the network identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from typing import List

from repro.core.resources import CPU
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn.config import Section


@dataclass
class LayerWorkload:
    """Operation count of one layer for one frame (Table I accounting)."""

    ltype: str
    ops: int
    note: str = ""


def slice_frame_history(
    history: Sequence[Optional[FeatureMapBatch]], index: int
) -> List[Optional[FeatureMap]]:
    """Frame *index* of every batch in *history*.

    The history may be sparse (the execution engine materializes only the
    entries a layer actually declared as dependencies); ``None`` slots stay
    ``None``.
    """
    return [item.frame(index) if item is not None else None for item in history]


def forward_frame_loop(
    layer: "Layer",
    fmb: FeatureMapBatch,
    history: Optional[Sequence[Optional[FeatureMapBatch]]] = None,
) -> FeatureMapBatch:
    """The shared always-correct batched fallback: loop ``layer.forward``.

    One frame at a time, slicing per-frame histories for backward-looking
    layers — used by :meth:`Layer.forward_batch` (the default when a layer
    has no vectorized batch kernel), by the execution engine, and by the
    ``Network.forward*`` compatibility wrappers.  A zero-frame batch
    short-circuits to a well-formed empty output of the layer's geometry.
    """
    layer._require_initialized()
    layer._check_history(history)
    if fmb.batch == 0:
        return FeatureMapBatch(
            np.zeros((0,) + tuple(layer.out_shape), dtype=np.float32)
        )
    outputs = []
    for index in range(fmb.batch):
        if layer.needs_history:
            outputs.append(
                layer.forward(
                    fmb.frame(index), history=slice_frame_history(history, index)
                )
            )
        else:
            outputs.append(layer.forward(fmb.frame(index)))
    return FeatureMapBatch.from_maps(outputs)


class Layer:
    """Base layer implementing the Fig. 3 life cycle.

    Construction only records the section; :meth:`init` configures geometry
    (``Initialize Layer with access to Configuration``), then
    :meth:`load_weights` pulls parameters from a weight source (the
    ``Weight File`` of Fig. 3), :meth:`forward` performs layer inference and
    :meth:`destroy` releases resources.
    """

    ltype: str = "layer"
    #: Execution resource this layer occupies while it runs.  The engine's
    #: plan compiler tags each step with it: :data:`~repro.core.resources.
    #: FABRIC` layers (the FINN offload, or any registered fabric-backed
    #: subclass) funnel through the single serialized fabric engine and get
    #: wrapped in the offload guard; CPU layers fan out freely.
    resource: str = CPU
    #: True for backward-looking layers (``[route]``) that read earlier
    #: layer outputs; such layers must also implement
    #: :meth:`history_dependencies`.
    needs_history: bool = False

    def __init__(self, section: Section) -> None:
        self.section = section
        self.in_shape: Optional[Tuple[int, int, int]] = None
        self.out_shape: Optional[Tuple[int, int, int]] = None
        self._initialized = False

    # -- life cycle hooks (Fig. 3) ------------------------------------------

    def init(self, in_shape: Tuple[int, int, int]) -> None:
        """Configure the layer for an input of ``(C, H, W)``."""
        self.in_shape = tuple(in_shape)
        self.out_shape = self._configure(self.in_shape)
        self._initialized = True

    def load_weights(self, source: "WeightSource") -> None:
        """Pull this layer's parameters from *source* (may be a no-op)."""

    def save_weights(self, sink: "WeightSink") -> None:
        """Push this layer's parameters to *sink* (may be a no-op)."""

    def forward(self, fm: FeatureMap) -> FeatureMap:
        raise NotImplementedError

    def forward_batch(
        self,
        fmb: FeatureMapBatch,
        history: Optional[List[FeatureMapBatch]] = None,
    ) -> FeatureMapBatch:
        """Batched forward over ``(N, C, H, W)``; batch axis is axis 0.

        The default loops :meth:`forward` over the frames — always correct,
        never fast.  Layers with vectorized batched kernels override this;
        every override must stay bit-identical per frame to the sequential
        path (the batched-equivalence tests enforce it).

        Passing a *history* to a layer that does not declare
        ``needs_history`` is a caller bug and raises :class:`TypeError`;
        omitting it for a layer that does is a :class:`ValueError`.
        """
        return forward_frame_loop(self, fmb, history)

    def run_batch(
        self, inputs: Sequence[FeatureMapBatch]
    ) -> FeatureMapBatch:
        """Execute this layer on explicit dataflow *inputs* (engine entry).

        The execution engine resolves dependencies at plan-compile time and
        hands every step exactly the buffers it consumes: ``inputs[0]`` is
        always the chain predecessor's output, and backward-looking layers
        additionally receive one buffer per :meth:`history_dependencies`
        entry, in declaration order.  The default adapts those explicit
        edges back onto :meth:`forward_batch` (reconstructing a sparse
        history for ``needs_history`` layers), so existing layer kinds work
        unchanged; layers may override for a direct multi-input kernel.
        """
        self._require_initialized()
        if not self.needs_history:
            if len(inputs) != 1:
                raise ValueError(
                    f"[{self.ltype}] consumes exactly one input, got {len(inputs)}"
                )
            return self.forward_batch(inputs[0])
        dependencies = self.history_dependencies()
        if len(inputs) != 1 + len(dependencies):
            raise ValueError(
                f"[{self.ltype}] consumes {1 + len(dependencies)} inputs "
                f"(chain + {len(dependencies)} history), got {len(inputs)}"
            )
        history: List[Optional[FeatureMapBatch]] = (
            [None] * (max(dependencies) + 1) if dependencies else []
        )
        for slot, fmb in zip(dependencies, inputs[1:]):
            history[slot] = fmb
        return self.forward_batch(inputs[0], history=history)

    def forward_reference(self, fm: FeatureMap) -> FeatureMap:
        """Single-frame forward on the CPU reference path.

        For CPU layers this *is* :meth:`forward`; offload layers override it
        to bypass the fabric backend so degraded-mode serving never touches
        a tripped (or fault-injected) fabric engine.
        """
        return self.forward(fm)

    def run_batch_reference(
        self, inputs: Sequence[FeatureMapBatch]
    ) -> FeatureMapBatch:
        """Engine entry for the CPU reference path (degraded mode).

        Identical to :meth:`run_batch` for CPU layers; offload layers
        override it to route around the fabric backend while staying
        bit-identical to the fabric output (the repo's core invariant).
        """
        return self.run_batch(inputs)

    def history_dependencies(self) -> Tuple[int, ...]:
        """Absolute indices of earlier layers this layer reads, in order.

        Non-empty only for ``needs_history`` layers; the plan compiler turns
        these into explicit dataflow edges so the schedule keeps alive
        exactly the buffers that are still needed.
        """
        if self.needs_history:
            raise NotImplementedError(
                f"[{self.ltype}] declares needs_history but does not expose "
                f"history_dependencies()"
            )
        return ()

    def destroy(self) -> None:
        """Release resources (buffers, backend handles)."""

    # -- introspection -------------------------------------------------------

    def _configure(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        raise NotImplementedError

    def workload(self) -> LayerWorkload:
        """Per-frame operation count; zero for layers Table I does not count."""
        return LayerWorkload(self.ltype, 0)

    def num_params(self) -> int:
        return 0

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise RuntimeError(f"{self.ltype} layer used before init()")

    def _check_history(self, history) -> None:
        """Enforce the history contract at the batch-call boundary.

        A history handed to a layer that never looks backwards is a wiring
        bug upstream — fail loudly (``TypeError``) instead of silently
        ignoring it; a backward-looking layer invoked without one is an
        incomplete call (``ValueError``).
        """
        if self.needs_history:
            if history is None:
                raise ValueError(f"[{self.ltype}] needs the layer history")
        elif history is not None:
            raise TypeError(
                f"[{self.ltype}] does not consume a layer history"
            )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.in_shape} -> {self.out_shape}>"
        )


class WeightSource:
    """Sequential float-array reader (Darknet weight files are flat floats)."""

    def read(self, count: int) -> np.ndarray:
        raise NotImplementedError


class WeightSink:
    """Sequential float-array writer."""

    def write(self, values: np.ndarray) -> None:
        raise NotImplementedError


class ArraySource(WeightSource):
    """In-memory weight source over a flat float32 array.

    ``read`` copies, because *values* normally belongs to the caller.
    The file loader passes ``owned=True`` for the private buffer it just
    read, and layers then keep disjoint writable slices of it.
    """

    def __init__(self, values: np.ndarray, owned: bool = False) -> None:
        self._values = np.asarray(values, dtype=np.float32).ravel()
        self._owned = owned
        self._cursor = 0

    def read(self, count: int) -> np.ndarray:
        end = self._cursor + count
        if end > self._values.size:
            raise EOFError(
                f"weight stream exhausted: wanted {count}, "
                f"{self._values.size - self._cursor} left"
            )
        chunk = self._values[self._cursor : end]
        self._cursor = end
        return chunk if self._owned else chunk.copy()

    @property
    def remaining(self) -> int:
        return self._values.size - self._cursor


class ArraySink(WeightSink):
    """In-memory weight sink collecting flat float32 chunks."""

    def __init__(self) -> None:
        self._chunks = []

    def write(self, values: np.ndarray) -> None:
        self._chunks.append(np.asarray(values, dtype=np.float32).ravel())

    def concatenated(self) -> np.ndarray:
        if not self._chunks:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(self._chunks)


class StreamSink(WeightSink):
    """Weight sink handing each chunk's float32 buffer to *consume*.

    *consume* is a hasher's ``update`` or a file's ``write``: the Darknet
    byte stream reaches it chunk by chunk, never concatenated, and a
    chunk that is already contiguous float32 is passed without a copy.
    The bytes equal ``ArraySink.concatenated().tobytes()``.
    """

    def __init__(self, consume) -> None:
        self._consume = consume

    def write(self, values: np.ndarray) -> None:
        self._consume(np.ascontiguousarray(values, dtype=np.float32))


__all__ = [
    "Layer",
    "LayerWorkload",
    "WeightSource",
    "WeightSink",
    "ArraySource",
    "ArraySink",
    "StreamSink",
    "forward_frame_loop",
    "slice_frame_history",
]
