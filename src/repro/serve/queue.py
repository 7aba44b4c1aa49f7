"""Bounded admission queue of the serving front door.

The paper's demo mode pulls frames from a camera that can always be
throttled; a request-driven server cannot throttle its clients, so the
first line of defense is *admission control*: a bounded queue that sheds
load with a typed :class:`Overloaded` error once its depth limit is
reached.  A shed request costs the server almost nothing — the expensive
failure mode this prevents is an unbounded backlog whose tail latency
grows without limit while every client times out anyway.

Each accepted request carries a :class:`RequestFuture` that the client
blocks on (or polls); the dispatch pipeline resolves it with the output
:class:`~repro.core.tensor.FeatureMap` or an exception.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro import faults
from repro.core.tensor import FeatureMap


class Overloaded(RuntimeError):
    """Admission control rejected a request: the queue is at its limit."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"server overloaded: queue depth {depth} at limit {limit}"
        )
        self.depth = depth
        self.limit = limit


class RequestCancelled(RuntimeError):
    """The client cancelled the request before it was dispatched."""


class RequestTimeout(TimeoutError):
    """The request's deadline expired before it could be executed."""


class ServerClosed(RuntimeError):
    """The server stopped before the request could be executed."""


class RequestFuture:
    """A minimal thread-safe future for one inference request.

    ``concurrent.futures.Future`` almost fits, but its cancellation
    semantics are tied to executor state we do not have; this future adds
    an explicit *claim* step — once the dispatcher claims a request for
    execution, :meth:`cancel` can no longer win the race.
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._cancelled = False
        self._claimed = False
        self._callbacks: List[Callable[["RequestFuture"], None]] = []
        #: True when the request's FABRIC stage ran on the CPU reference
        #: path (set before the result; in-process only, not on the wire).
        self.degraded = False

    # -- dispatcher side ---------------------------------------------------

    def claim(self) -> bool:
        """Dispatcher takes ownership; returns False if already cancelled."""
        with self._lock:
            if self._cancelled:
                return False
            self._claimed = True
            return True

    def set_result(self, value: Any) -> None:
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._resolve(None, exc)

    def _resolve(
        self, value: Any, exc: Optional[BaseException], cancel: bool = False
    ) -> bool:
        """First resolution wins; fires the done-callbacks outside the lock."""
        with self._lock:
            if self._done.is_set() or (cancel and self._claimed):
                return False
            self._cancelled = cancel
            self._result = value
            self._exception = exc
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return True

    def add_done_callback(self, callback: Callable[["RequestFuture"], None]) -> None:
        """Call ``callback(self)`` once resolved (at once if it is), on the
        resolving thread — so it must be quick."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- client side -------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel if not yet claimed by the dispatcher; True on success."""
        return self._resolve(
            None, RequestCancelled("request cancelled by client"), cancel=True
        )

    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("timed out waiting for the request result")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._done.wait(timeout):
            raise TimeoutError("timed out waiting for the request result")
        return self._exception


class InferenceRequest:
    """One admitted request: the input frame plus its bookkeeping."""

    __slots__ = ("id", "frame", "future", "submitted_at", "deadline_at")

    def __init__(
        self,
        request_id: int,
        frame: FeatureMap,
        submitted_at: float,
        deadline_at: Optional[float] = None,
    ) -> None:
        self.id = request_id
        self.frame = frame
        self.future = RequestFuture()
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at

    def __repr__(self) -> str:
        return f"<InferenceRequest #{self.id}>"


class BoundedRequestQueue:
    """FIFO request queue with a hard depth limit (admission control)."""

    def __init__(
        self, limit: int, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if limit < 1:
            raise ValueError("queue limit must be positive")
        self.limit = limit
        self.clock = clock
        self._items: Deque[InferenceRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._ids = itertools.count()
        self._closed = False
        self._wakeups = 0
        self.accepted = 0
        self.shed = 0

    # -- producer (client) side --------------------------------------------

    def submit(
        self, frame: FeatureMap, timeout_s: Optional[float] = None
    ) -> InferenceRequest:
        """Admit *frame* or raise :class:`Overloaded` / :class:`ServerClosed`.

        *timeout_s* sets a per-request deadline measured from admission; an
        expired request is failed with :class:`RequestTimeout` instead of
        being executed.
        """
        now = self.clock()
        with self._not_empty:
            if self._closed:
                raise ServerClosed("the request queue is closed")
            if len(self._items) >= self.limit:
                self.shed += 1
                raise Overloaded(len(self._items), self.limit)
            deadline = None if timeout_s is None else now + timeout_s
            request = InferenceRequest(next(self._ids), frame, now, deadline)
            self._items.append(request)
            self.accepted += 1
            self._not_empty.notify()
            return request

    # -- consumer (batcher) side -------------------------------------------

    def pop(
        self, timeout: Optional[float] = None, wakeups: Optional[int] = None
    ) -> Optional[InferenceRequest]:
        """Oldest pending request, waiting up to *timeout*; None on timeout.

        Returns None immediately when the queue is closed and drained, and
        — when *wakeups* is given — when :meth:`wake` was called since the
        caller read that value from :attr:`wakeups`.  A consumer that
        reads the generation, checks some outside condition and then pops
        can therefore never sleep through a ``wake`` that raced the check.
        """
        if faults.stall(faults.QUEUE_POP):
            # An injected stalled tick: behave exactly like a timed-out wait.
            return None
        with self._not_empty:
            if not self._items:
                if self._closed:
                    return None
                if wakeups is None or wakeups == self._wakeups:
                    self._not_empty.wait(timeout)
            if not self._items:
                return None
            return self._items.popleft()

    def wake(self) -> None:
        """End the consumer's current (or next stale) wait without a request."""
        with self._not_empty:
            self._wakeups += 1
            self._not_empty.notify_all()

    @property
    def wakeups(self) -> int:
        """Generation counter of :meth:`wake` calls (see :meth:`pop`)."""
        with self._lock:
            return self._wakeups

    def drain(self) -> List[InferenceRequest]:
        """Remove and return every pending request (used at shutdown)."""
        with self._not_empty:
            items = list(self._items)
            self._items.clear()
            return items

    def close(self) -> None:
        """Refuse new submissions and wake any blocked consumer."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def __len__(self) -> int:
        return self.depth


__all__ = [
    "Overloaded",
    "RequestCancelled",
    "RequestTimeout",
    "ServerClosed",
    "RequestFuture",
    "InferenceRequest",
    "BoundedRequestQueue",
]
