"""Layer life cycle — the function-hook abstraction of Fig. 3.

Darknet virtualizes layer functionality through function pointers; the
paper's offload mechanism works precisely because a layer is nothing more
than the four hooks ``init`` / ``load_weights`` / ``forward`` / ``destroy``.
Our base class mirrors that contract so that *any* layer — including ones
backed by the simulated FPGA fabric — plugs into the network identically.
Fig. 3's ``forward`` is :meth:`Layer.forward_batch`: Darknet's forward
already runs ``l.batch`` frames, and one frame is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import CPU
from repro.core.tensor import FeatureMapBatch
from repro.nn.config import Section


@dataclass
class LayerWorkload:
    """Operation count of one layer for one frame (Table I accounting)."""

    ltype: str
    ops: int
    note: str = ""


class Layer:
    """Base layer implementing the Fig. 3 life cycle.

    Construction only records the section; :meth:`init` configures geometry
    (``Initialize Layer with access to Configuration``), then
    :meth:`load_weights` pulls parameters from a weight source (the
    ``Weight File`` of Fig. 3), :meth:`forward_batch` performs layer
    inference and :meth:`destroy` releases resources.
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

    def forward_batch(
        self,
        fmb: FeatureMapBatch,
        history: Optional[List[FeatureMapBatch]] = None,
    ) -> FeatureMapBatch:
        """Layer inference over ``(N, C, H, W)``; batch axis is axis 0.

        The one forward of the life cycle: a single frame is a batch of
        one, and every frame of the output depends on its own input frame
        only.

        Passing a *history* to a layer that does not declare
        ``needs_history`` is a caller bug and raises :class:`TypeError`;
        omitting it for a layer that does is a :class:`ValueError`.
        """
        raise NotImplementedError

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
]
