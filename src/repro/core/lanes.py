"""Lanes: the host's cores as helpers for one kernel call.

The paper's CPU side uses every core it has (§III-F pins its worker pool
to all four A53 cores).  A kernel that can cut one call into independent
items hands them to :func:`run`: the calling thread is lane 0 and starts
taking items at once, and the call is offered to the process's helper
threads — a helper that is idle joins as the next lane and takes items
from the same counter.  Once no item is left to take, the caller closes
the call to helpers that have not joined and waits only for the items
joined helpers are still running.  So callers that share the helpers
never deadlock on them, a busy helper costs nothing (the caller simply
runs every item), and a helper slowed by a contended core holds the
caller up by at most the item in its hands.

The lane count is the number of cores this process may run on
(``os.sched_getaffinity``), not a knob; on a one-core host :func:`count`
is 1 and kernels keep their one-lane path.  The ``count() - 1`` helpers
are daemon threads started on first use in each process: a forked child
(the shard tier forks) starts its own instead of inheriting threads that
do not exist in it.  Helpers never allocate — a kernel draws every lane's
scratch from its own :mod:`repro.core.workspace` arena before dispatch
and the *lane* argument says which set an item may use, and a bind item
fills arrays the binding thread allocated.

The cores are the lanes' and the serving workers', so importing this
module sets the OpenBLAS that numpy bundles to one thread: a BLAS call
inside a lane item must not start threads of its own on the same cores.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from typing import Callable, Optional, Tuple

import numpy as np  # noqa: F401  (loads the bundled OpenBLAS pinned below)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


_LANES = _usable_cores()

#: ``(set, get)`` thread-count entry points, newest OpenBLAS naming first.
_OPENBLAS_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


def _openblas() -> Optional[Tuple[Callable, Callable]]:
    """The loaded OpenBLAS's ``(set_num_threads, get_num_threads)``, or
    ``None`` when no loaded library exports them (or the process map
    cannot be read)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and "/" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_CALLS:
            if hasattr(library, setter) and hasattr(library, getter):
                return getattr(library, setter), getattr(library, getter)
    return None


def _pin_blas() -> None:
    """One BLAS thread (a no-op when no OpenBLAS entry point is found)."""
    calls = _openblas()
    if calls is not None:
        calls[0](1)


_pin_blas()


def count() -> int:
    """Lanes one kernel call may split across: this process's cores."""
    return _LANES


class _Call:
    """One :func:`run` call: an item counter its lanes take from."""

    def __init__(self, work: Callable[[int, int], None], items: int, lanes: int):
        self._work = work
        self._items = items
        self._lanes = lanes
        self._state = threading.Condition()
        self._next_item = 0
        self._next_lane = 1  # lane 0 is the caller
        self._helping = 0
        self.error: Optional[BaseException] = None

    def _take(self) -> Optional[int]:
        with self._state:
            if self._next_item >= self._items:
                return None
            self._next_item += 1
            return self._next_item - 1

    def drain(self, lane: int) -> None:
        """Run items as *lane* until none is left; the first error stops
        every lane from taking more."""
        while True:
            item = self._take()
            if item is None:
                return
            try:
                self._work(lane, item)
            except BaseException as exc:  # noqa: BLE001 — re-raised by the caller
                with self._state:
                    self._next_item = self._items
                    if self.error is None:
                        self.error = exc
                return

    def help(self) -> None:
        """A helper's entry: join as the next lane if the call is open."""
        with self._state:
            if self._next_lane >= self._lanes or self._next_item >= self._items:
                return
            lane = self._next_lane
            self._next_lane += 1
            self._helping += 1
        try:
            self.drain(lane)
        finally:
            with self._state:
                self._helping -= 1
                self._state.notify_all()

    def close(self) -> None:
        """Refuse helpers that have not joined; wait for those that have."""
        with self._state:
            self._next_lane = self._lanes
            while self._helping:
                self._state.wait()


class _Helpers:
    """The process's helper threads, all serving one queue of offers."""

    def __init__(self, threads: int) -> None:
        self._offers: "queue.SimpleQueue[_Call]" = queue.SimpleQueue()
        for index in range(threads):
            threading.Thread(
                target=self._serve, name=f"repro-lane-{index + 1}", daemon=True
            ).start()

    def offer(self, call: _Call) -> None:
        """Queue *call* for the first idle helper."""
        self._offers.put(call)

    def _serve(self) -> None:
        while True:
            self._offers.get().help()


_helpers: Optional[_Helpers] = None
_helpers_lock = threading.Lock()


def _process_helpers() -> _Helpers:
    """This process's helpers, started on first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = _Helpers(max(1, _LANES - 1))
        return _helpers


def _forget_helpers() -> None:
    """In a forked child: the parent's helper threads do not exist here."""
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def run(work: Callable[[int, int], None], items: int, lanes: int) -> None:
    """``work(lane, item)`` for every item in ``range(items)``.

    Items run on up to *lanes* lanes, numbered from 0 (this thread); two
    items on the same lane never overlap, so per-lane scratch is safe.
    Returns once every item has run; re-raises the first exception an
    item raised (items not yet started when it happened are skipped).
    """
    lanes = min(lanes, items)
    call = _Call(work, items, lanes)
    if lanes > 1:
        helpers = _process_helpers()
        for _ in range(lanes - 1):
            helpers.offer(call)
    call.drain(0)
    call.close()
    if call.error is not None:
        raise call.error


__all__ = ["count", "run"]
