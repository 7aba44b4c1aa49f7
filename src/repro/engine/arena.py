"""Liveness-driven arena allocator for the batched execution path.

A compiled program already knows buffer liveness: its release points name
the instruction after which each intermediate dies, and the plan's
``peak_live_bytes`` bounds the simultaneously-live working set.  The
:class:`Arena` turns that knowledge into buffer *reuse*: the
:class:`~repro.isa.vm.PlanVM` installs the arena as the thread's
:mod:`repro.core.workspace` allocator, so the hot kernels (im2col
multiplicands, conv outputs, pool outputs, level-code scratch) draw from
a recycled pool instead of hitting ``np.empty`` — and its page-fault
churn — on every step of every run.

Design notes:

* Buffers are flat ``uint8`` arrays; ``empty(shape, dtype)`` hands out a
  leading-slice **view** reshaped to the request.  Best-fit keeps slack low.
* ``release(array, guard=...)`` walks the array's ``base`` chain back to
  the owning buffer and recycles it — unless any *guard* array still shares
  its memory.  The VM passes the currently-live feature maps as the
  guard, so a buffer is only ever recycled once nothing downstream can see
  it.  Releasing foreign (non-arena) arrays is a safe no-op.
* ``begin_run()`` forgets in-use buffers without recycling them: a run's
  escaped outputs own their memory from then on (ordinary GC applies), so
  a recycled buffer can never alias a result a caller still holds.
* The free list is bounded by the high-water mark.  Runs at growing batch
  sizes would otherwise keep one buffer set per size (a 1..8 sweep on
  CNV-6 kept 3x its high-water).  Only a miss that must grow the arena
  trims it: the smallest free buffers go until the bytes the arena owns
  fit ``max(high-water, live + request)``.  A hit never evicts, so runs
  of one size settle with no per-run reallocation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


def _owning_base(array: np.ndarray) -> np.ndarray:
    """The root ndarray whose memory *array* is a view of."""
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


@dataclass
class Arena:
    """A pool of recyclable byte buffers behind ``workspace.empty``."""

    #: never pool buffers smaller than this — tiny arrays are cheap and
    #: pooling them just bloats the free-list scan.
    min_bytes: int = 4096

    _free: List[np.ndarray] = field(default_factory=list)
    _in_use: Dict[int, np.ndarray] = field(default_factory=dict)
    _free_bytes: int = 0
    _live_bytes: int = 0

    # -- statistics -----------------------------------------------------
    hits: int = 0
    misses: int = 0
    recycled: int = 0
    evicted: int = 0
    allocated_bytes: int = 0
    high_water_bytes: int = 0

    def begin_run(self) -> None:
        """Start a fresh run: outstanding buffers escape to their owners."""
        self._in_use.clear()
        self._live_bytes = 0

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialized array of *shape*/*dtype*, recycled if possible."""
        dtype = np.dtype(dtype)
        # math.prod, not np.prod: ~6 us a call, ~30 calls per small frame
        count = math.prod(shape) if isinstance(shape, (tuple, list)) else shape
        nbytes = int(count) * dtype.itemsize
        if nbytes < self.min_bytes:
            return np.empty(shape, dtype=dtype)
        best = -1
        for i, buf in enumerate(self._free):
            if buf.nbytes >= nbytes and (
                best < 0 or buf.nbytes < self._free[best].nbytes
            ):
                best = i
                if buf.nbytes == nbytes:
                    break
        if best >= 0:
            buf = self._free.pop(best)
            self._free_bytes -= buf.nbytes
            self.hits += 1
        else:
            self._trim(nbytes)
            buf = np.empty(nbytes, dtype=np.uint8)
            self.misses += 1
            self.allocated_bytes += nbytes
        self._in_use[id(buf)] = buf
        self._live_bytes += buf.nbytes
        if self._live_bytes > self.high_water_bytes:
            self.high_water_bytes = self._live_bytes
        return buf[:nbytes].view(dtype).reshape(shape)

    def _trim(self, nbytes: int) -> None:
        """Evict the smallest free buffers before a *nbytes* miss.

        Stops once the arena owns no more than ``max(high-water, live +
        nbytes)``, so the free list never outgrows the largest working set.
        """
        live = self._live_bytes + nbytes
        excess = self._free_bytes + live - max(self.high_water_bytes, live)
        if excess <= 0:
            return
        self._free.sort(key=lambda buf: buf.nbytes)
        dropped = 0
        while excess > 0:
            buf = self._free[dropped]
            excess -= buf.nbytes
            self._free_bytes -= buf.nbytes
            dropped += 1
        del self._free[:dropped]
        self.evicted += dropped

    def release(
        self, array, guard: Optional[Sequence[np.ndarray]] = None
    ) -> bool:
        """Recycle the buffer backing *array* if it is arena-owned and safe.

        *guard* arrays that share memory with the buffer veto the recycle
        (the buffer stays checked out until a later release succeeds or the
        next ``begin_run`` lets it escape).
        """
        if not isinstance(array, np.ndarray):
            return False
        base = _owning_base(array)
        buf = self._in_use.get(id(base))
        if buf is None:
            return False
        if guard is not None:
            for held in guard:
                if held is None:
                    continue
                held_base = _owning_base(held)
                if held_base is buf or np.shares_memory(held_base, buf):
                    return False
        del self._in_use[id(base)]
        self._live_bytes -= buf.nbytes
        self._free.append(buf)
        self._free_bytes += buf.nbytes
        self.recycled += 1
        return True

    def stats(self) -> Dict[str, int]:
        """A plain-dict snapshot for reports and reconciliation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "recycled": self.recycled,
            "evicted": self.evicted,
            "allocated_bytes": self.allocated_bytes,
            "high_water_bytes": self.high_water_bytes,
            "free_buffers": len(self._free),
            "free_bytes": self._free_bytes,
        }


class ArenaPool:
    """A small thread-safe pool of warm :class:`Arena` instances.

    Each :class:`~repro.isa.vm.PlanVM` keeps a handful of arenas warm
    for reuse across runs: the serving worker pool executes a few
    concurrent inferences, so beyond *cap* fresh arenas are built on
    demand and the surplus is dropped on return.
    """

    def __init__(self, cap: int = 4) -> None:
        self.cap = cap
        self._arenas: List[Arena] = []
        self._lock = threading.Lock()

    def acquire(self) -> Arena:
        with self._lock:
            if self._arenas:
                return self._arenas.pop()
        return Arena()

    def release(self, arena: Arena) -> None:
        with self._lock:
            if len(self._arenas) < self.cap:
                self._arenas.append(arena)


__all__ = ["Arena", "ArenaPool"]
