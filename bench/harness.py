"""Measurement primitives of the layered benchmark (see bench/README.md).

Everything here is independent of the program under test: statistics
that refuse what the sample cannot support, an in-memory span tracer,
the two load generators (closed loop with a fixed window, open loop on
a schedule timed from the *due* time), and the process-level readings
(peak RSS, environment record).  Clocks and waits are injectable so the
generators can be unit-tested on a fake clock.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import resource
import statistics
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(
    samples: Sequence[float], fraction: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank percentile; refuses one with < *min_beyond* samples above it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(samples)
    rank = max(1, math.ceil(fraction * count))  # 1-based nearest rank
    if count == 0 or count - rank < min_beyond:
        raise TooFewSamples(
            f"p{fraction * 100:g} needs {min_beyond} samples beyond it; "
            f"{count} samples leave {max(0, count - rank)}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one: a bypassed layer)."""
    return float(statistics.median(samples)) if samples else 0.0


def windowed_rate(
    stamps: Sequence[float], start: float, end: float, windows: int = 5
) -> float:
    """Events per second: median over *windows* equal slices of [start, end).

    Inside a slice the rate is taken between its first and last event,
    so a slice boundary falling mid-frame does not quantize the count.
    Slices with fewer than two events fall back to count / width.
    """
    width = (end - start) / windows
    buckets: List[List[float]] = [[] for _ in range(windows)]
    for stamp in stamps:
        index = int((stamp - start) / width)
        if 0 <= index < windows:
            buckets[index].append(stamp)
    rates = []
    for bucket in buckets:
        if len(bucket) >= 2 and bucket[-1] > bucket[0]:
            rates.append((len(bucket) - 1) / (bucket[-1] - bucket[0]))
        else:
            rates.append(len(bucket) / width)
    return median(rates)


# -- tracing ---------------------------------------------------------------


class Tracer:
    """Spans kept in memory: [id, name, start, end, parent id, request id].

    Recorded by the harness around each call into a layer; written out
    once, at the end of the run.  ``enabled`` is flipped per slice of the
    closed-loop phase so one run yields traced and untraced throughput.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[list] = []

    def add(
        self, name: str, start: float, end: float, parent: int = -1, rid: int = -1
    ) -> int:
        """Record one finished span; returns its id (-1 when disabled)."""
        if not self.enabled:
            return -1
        self.spans.append([len(self.spans), name, start, end, parent, rid])
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1, rid: int = -1) -> int:
        """Start a span now; :meth:`close` ends it (children name it as parent)."""
        return self.add(name, self.clock(), float("nan"), parent, rid)

    def close(self, span_id: int) -> None:
        if span_id >= 0:
            self.spans[span_id][3] = self.clock()

    def dump(self) -> List[Dict]:
        keys = ("id", "name", "start", "end", "parent", "rid")
        return [dict(zip(keys, span)) for span in self.spans]


# -- load generators -------------------------------------------------------


class Completed:
    """What a load phase observed (times in seconds on the phase clock)."""

    def __init__(self) -> None:
        self.start = 0.0
        self.end = 0.0
        self.indices: List[int] = []  # input index of every sent request
        self.due: List[float] = []  # when each was due (== sent, closed loop)
        self.sent: List[float] = []  # when submit() was entered
        self.submit_s: List[float] = []  # time spent inside submit()
        self.done: List[Optional[float]] = []  # completion stamp (None: failed)
        self.results: List[object] = []  # output or the exception
        self.immediate: List[bool] = []  # resolved before submit() returned

    @property
    def attempted(self) -> int:
        return len(self.indices)

    def latencies_ms(self, only: Optional[Sequence[bool]] = None) -> List[float]:
        """Completion minus *due* time, per successful request."""
        return [
            (done - due) * 1e3
            for position, (done, due) in enumerate(zip(self.done, self.due))
            if done is not None and (only is None or only[position])
        ]

    def completion_stamps(self) -> List[float]:
        return [done for done in self.done if done is not None]


def _wait(future, timeout: Optional[float]) -> bool:
    """Block until *future* resolves (True) or *timeout* elapses (False)."""
    try:
        future.exception(timeout)
    except TimeoutError:
        return False
    return True


class _Outstanding:
    """Requests in flight, oldest first; stamps completions as seen."""

    def __init__(self, record: Completed, clock, result_timeout_s: float) -> None:
        self.record = record
        self.clock = clock
        self.result_timeout_s = result_timeout_s
        self.pending: deque = deque()  # (position, future)

    def add(self, position: int, future) -> None:
        if future.done():
            self._resolve(position, future)
            self.record.immediate[position] = True
        else:
            self.pending.append((position, future))

    def _resolve(self, position: int, future) -> None:
        now = self.clock()
        error = future.exception(0)
        if error is None:
            self.record.done[position] = now
            self.record.results[position] = future.result(0)
        else:
            self.record.results[position] = error

    def sweep(self) -> None:
        """Stamp every request that has resolved (not only the oldest)."""
        if not any(future.done() for _, future in self.pending):
            return
        still = deque()
        for position, future in self.pending:
            if future.done():
                self._resolve(position, future)
            else:
                still.append((position, future))
        self.pending = still

    def wait_oldest(self, timeout: Optional[float], wait=_wait) -> None:
        """Sleep on the oldest request (at most *timeout*), then sweep."""
        if self.pending:
            wait(self.pending[0][1], timeout)
        self.sweep()

    def drain(self, wait=_wait) -> None:
        deadline = self.clock() + self.result_timeout_s
        while self.pending and self.clock() < deadline:
            self.wait_oldest(max(0.0, deadline - self.clock()), wait)
        for position, _future in self.pending:  # timed out: counted as failed
            self.record.results[position] = TimeoutError("no result")
        self.pending.clear()


def _send(
    record: Completed, submit, item, index: int, due: Optional[float], clock
) -> Tuple[int, object]:
    """One timed submit() call; returns (position, future or None).

    *due* None means "due now" (closed loop).  A refusal (shed, closed)
    is recorded as the request's result and counted as failed.
    """
    position = record.attempted
    sent = clock()
    try:
        future = submit(item)
        outcome: object = None
    except Exception as exc:  # noqa: BLE001 — counted, not fatal
        future = None
        outcome = exc
    record.indices.append(index)
    record.due.append(sent if due is None else due)
    record.sent.append(sent)
    record.submit_s.append(clock() - sent)
    record.done.append(None)
    record.results.append(outcome)
    record.immediate.append(False)
    return position, future


def closed_loop(
    submit: Callable,
    items: Sequence,
    order: Sequence[int],
    window: int,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    wait: Callable = _wait,
    result_timeout_s: float = 30.0,
    on_slice: Optional[Callable[[int], None]] = None,
    slices: int = 5,
) -> Completed:
    """One generator keeping *window* requests outstanding for *seconds*.

    The next request is sent only when the oldest outstanding one has
    completed, so a slower system receives less load.  *on_slice* is
    called with the slice number each time the run enters a new fifth of
    the phase (the traced run flips the tracer there).
    """
    record = Completed()
    outstanding = _Outstanding(record, clock, result_timeout_s)
    record.start = clock()
    stop_at = record.start + seconds
    current_slice = -1
    sent = 0
    while True:
        now = clock()
        if now >= stop_at:
            break
        slice_now = min(slices - 1, int((now - record.start) / seconds * slices))
        if slice_now != current_slice:
            current_slice = slice_now
            if on_slice is not None:
                on_slice(slice_now)
        if len(outstanding.pending) < window:
            index = order[sent % len(order)]
            position, future = _send(record, submit, items[index], index, None, clock)
            sent += 1
            if future is not None:
                outstanding.add(position, future)
        else:
            outstanding.wait_oldest(stop_at - now, wait)
    record.end = clock()
    outstanding.drain(wait)
    return record


#: The open-loop sender stops sleeping this long before a request is due
#: and yields in a loop instead, so timer wake-up lag (~0.1 ms, as large
#: as a result-cache hit) stays out of the latencies.  (A fake clock that
#: only advances when slept on passes ``yield_s=0``.)
_YIELD_S = 0.0005


def open_loop(
    submit: Callable,
    items: Sequence,
    order: Sequence[int],
    due_offsets: Sequence[float],
    clock: Callable[[], float] = time.perf_counter,
    wait: Callable = _wait,
    sleep: Callable[[float], None] = time.sleep,
    result_timeout_s: float = 30.0,
    yield_s: float = _YIELD_S,
) -> Completed:
    """Send on a schedule regardless of completions; time from the due time.

    Request *i* is due at ``start + due_offsets[i]``.  A sender that runs
    late (a stalled submit, a slow wake-up) sends immediately, and the
    request's latency still counts from when it was due — the wait a
    stall imposes on later requests is measured, not hidden.  While idle
    the one generator thread sleeps on the oldest outstanding request so
    completions are stamped as they happen.
    """
    record = Completed()
    outstanding = _Outstanding(record, clock, result_timeout_s)
    record.start = clock()
    for number, offset in enumerate(due_offsets):
        due = record.start + offset
        while True:
            remaining = due - clock()
            if remaining <= 0:
                break
            if remaining <= yield_s:
                sleep(0)  # yield the GIL, stay runnable: no timer wake-up lag
            elif outstanding.pending:
                outstanding.wait_oldest(remaining - yield_s, wait)
            else:
                sleep(remaining - yield_s)
        index = order[number % len(order)]
        position, future = _send(record, submit, items[index], index, due, clock)
        if future is not None:
            outstanding.add(position, future)
        outstanding.sweep()
    outstanding.drain(wait)
    record.end = clock()
    return record


def generator_lag_ms(record: Completed) -> List[float]:
    """How late each request left the generator, against its due time."""
    return [(sent - due) * 1e3 for sent, due in zip(record.sent, record.due)]


# -- process-level readings ------------------------------------------------


def settle_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS (glibc).

    Called before every timed start.  Whether a start in a process that
    has already run one finds its arena's pages still mapped is down to
    what the allocator happened to keep: without this, whole runs read
    Tincy's warm start as 190 ms or as 260 ms.  After it every start
    faults its memory in afresh, as the first start of a process does.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc: nothing to hand back
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def git_commit(root: str) -> str:
    """HEAD of the checkout at *root*, read from .git ("unknown" outside one)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, blas_threads: int) -> Dict:
    """What the numbers were measured on (recorded with every result)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }
