"""Heterogeneous batch-execution pool: N CPU workers + one fabric executor.

The paper's platform has many interchangeable CPU/NEON cores but exactly
*one* FINN dataflow engine on the programmable fabric — a serialized
resource (§III-F tags its pipeline stage with the ``FABRIC`` resource so
the scheduler never runs two offload jobs at once).  The serving pool
models the same constraint with the same tags from
:mod:`repro.core.resources`: CPU jobs fan out over N workers, and all
FABRIC jobs funnel through the single fabric executor thread.

A batch is a chain of stage jobs (the plan's
:class:`~repro.isa.vm.Stage` list: CPU → FABRIC → CPU for a hybrid
network, one CPU job otherwise).  When a job's stage finishes, the pool
queues it for the next stage's resource.  Each queue is most mature
first, as §III-F's scheduler picks the most mature ready job: a job at a
later stage goes ahead of jobs at earlier stages, and jobs at the same
stage keep their arrival order.

The pool also counts, per resource, the workers a job submitted now would
start on (:meth:`HeterogeneousWorkerPool.free`).  The server's batcher
reads that count to keep every free worker busy: a burst queued while two
CPU workers are free goes out as two half-size batches that run at once,
as the paper's demo mode hands every free core a ready job.  The single
fabric executor never counts more than one.

Belt and suspenders, the :class:`FabricGate` context manager wraps each
offload execution (the VM enters it around every FABRIC instruction) and
records the maximum observed concurrency, so the serialization invariant
is asserted — not assumed — by the test suite.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro import faults
from repro.core.resources import CPU, FABRIC

from repro.serve.queue import InferenceRequest, ServerClosed


def join_threads(
    threads: Sequence[threading.Thread], timeout: Optional[float] = None
) -> bool:
    """Join *threads* against one shared deadline.

    Unlike a naive loop of ``thread.join(timeout)`` calls, the *total* wait
    is bounded by *timeout*, not ``timeout * len(threads)``.  Returns True
    iff every thread exited before the deadline.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        if deadline is None:
            thread.join()
        else:
            thread.join(max(0.0, deadline - time.monotonic()))
    return not any(thread.is_alive() for thread in threads)


class FabricGate:
    """Serialized access to the single FINN fabric engine.

    A context manager around each offload execution.  Beyond mutual
    exclusion it keeps an auditable record: ``max_in_flight`` must never
    exceed 1 (the acceptance invariant of the serving subsystem) and
    ``acquisitions`` counts fabric dispatches for the metrics snapshot.
    """

    def __init__(self) -> None:
        self._engine = threading.Lock()
        self._stats = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.acquisitions = 0

    def __enter__(self) -> "FabricGate":
        self._engine.acquire()
        with self._stats:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.acquisitions += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._stats:
            self.in_flight -= 1
        self._engine.release()


class BatchJob:
    """One flushed batch bound for a worker: requests + required resource.

    ``stage`` counts the stages the job has finished (its maturity);
    ``state`` is the executor's carried run state and ``degraded`` its
    note that a stage ran on the CPU reference path.
    """

    __slots__ = ("requests", "resource", "cause", "stage", "state", "degraded")

    def __init__(
        self,
        requests: Sequence[InferenceRequest],
        resource: str = CPU,
        cause: str = "",
    ) -> None:
        if resource not in (CPU, FABRIC):
            raise ValueError(f"unknown resource tag {resource!r}")
        self.requests = list(requests)
        self.resource = resource
        self.cause = cause
        self.stage = 0
        self.state = None
        self.degraded = False

    def fail(self, exc: BaseException) -> None:
        for request in self.requests:
            request.future.set_exception(exc)

    def __len__(self) -> int:
        return len(self.requests)


class HeterogeneousWorkerPool:
    """Per-resource job queues drained by CPU workers and 1 fabric executor.

    *execute* is called with each :class:`BatchJob` on a worker thread and
    runs the job's current stage.  It returns the resource of the job's
    next stage, and the pool queues the job there one stage more mature;
    it returns ``None`` once the job is done.  Any exception it raises is
    routed to the job's request futures (one bad batch never kills the
    pool).  The pool knows how many workers of each
    resource hold no job: :meth:`free` counts the workers a job submitted
    now would start on, and *on_idle* is told when a finishing worker
    frees one — the serving layer's work-conserving batcher splits what
    is queued over the free workers and flushes on the wake-up.
    """

    def __init__(
        self,
        execute: Callable[[BatchJob], Optional[str]],
        cpu_workers: int = 2,
        name: str = "serve",
        breaker=None,
        watchdog=None,
        on_worker_death: Optional[Callable[[str], None]] = None,
        on_idle: Optional[Callable[[str], None]] = None,
    ) -> None:
        if cpu_workers < 1:
            raise ValueError("need at least one CPU worker")
        self._execute = execute
        self._name = name
        self._lock = threading.Lock()
        # One condition per resource on the one pool lock: a submitted job
        # wakes one worker of its own resource, not the whole pool.
        self._work_ready = {
            resource: threading.Condition(self._lock) for resource in (CPU, FABRIC)
        }
        self._queues: Dict[str, Deque[BatchJob]] = {CPU: deque(), FABRIC: deque()}
        self._workers: Dict[str, int] = {CPU: cpu_workers, FABRIC: 1}
        #: Workers per resource that hold no job (parked, or about to park).
        self._free: Dict[str, int] = dict(self._workers)
        self._stopping = False
        self._drain = True
        self._threads: List[threading.Thread] = []
        self._specs = [(CPU, i) for i in range(cpu_workers)] + [(FABRIC, 0)]
        self.executed = 0
        #: Fabric resilience policy, owned by the pool (the serving layer
        #: consults these when executing FABRIC jobs); None = no policy.
        self.breaker = breaker
        self.watchdog = watchdog
        #: Called with the dead worker's resource tag after each respawn.
        self.on_worker_death = on_worker_death
        #: Called (outside the pool lock) with the resource tag each time a
        #: worker finishes a job and leaves :meth:`free` above 0.
        self.on_idle = on_idle
        self.worker_deaths = 0

    @property
    def cpu_workers(self) -> int:
        return sum(1 for resource, _ in self._specs if resource == CPU)

    def start(self) -> None:
        with self._lock:
            if self._threads:
                raise RuntimeError("worker pool already started")
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    args=(resource,),
                    name=f"{self._name}-{resource}-{index}",
                    daemon=True,
                )
                for resource, index in self._specs
            ]
        for thread in self._threads:
            thread.start()

    def submit(self, job: BatchJob) -> None:
        with self._lock:
            if self._stopping:
                raise ServerClosed("worker pool is shutting down")
            self._enqueue(job)

    def _enqueue(self, job: BatchJob) -> None:
        """Queue *job* behind every job at its stage or later (lock held)."""
        queue = self._queues[job.resource]
        index = len(queue)
        while index and queue[index - 1].stage < job.stage:
            index -= 1
        queue.insert(index, job)
        self._work_ready[job.resource].notify()

    def pending(self) -> int:
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def free(self, resource: str) -> int:
        """How many *resource* workers a job submitted now would start on.

        Workers holding no job, less the queued jobs already claiming
        them.  At 0 a new job waits behind another, the one condition
        under which holding requests back for a larger batch pays; above
        1 the batcher splits a queued burst over the free workers.
        """
        with self._lock:
            return self._free_now(resource)

    def _free_now(self, resource: str) -> int:
        return max(0, self._free[resource] - len(self._queues[resource]))

    def _worker(self, resource: str) -> None:
        queue = self._queues[resource]
        work_ready = self._work_ready[resource]
        while True:
            with work_ready:  # the pool lock, through this resource's condition
                while not queue:
                    # A job held by any worker, or queued for the other
                    # resource, may still come back here.
                    if self._stopping and self._idle_everywhere():
                        return
                    work_ready.wait()
                if self._stopping and not self._drain:
                    return
                job = queue.popleft()
                self._free[resource] -= 1
            if job.stage == 0:  # one worker seam per batch, not per stage
                try:
                    faults.fire(faults.WORKER)
                except faults.WorkerDeath:
                    if self._die(resource, job):
                        return
                    # Dying during shutdown would strand the drain; the
                    # injected death is recorded in the transcript but
                    # this thread lives.
            try:
                following = self._execute(job)
            except Exception as exc:  # noqa: BLE001 — routed to the futures
                following = None
                job.fail(exc)
            with self._lock:
                self.executed += 1
                self._free[resource] += 1
                closed = following is not None and self._stopping and not self._drain
                if following is not None and not closed:
                    job.stage += 1
                    job.resource = following
                    self._enqueue(job)
                elif self._stopping and self._idle_everywhere():
                    self._notify_everyone()  # nothing can come back: exit
                went_idle = self._free_now(resource) > 0
            if closed:
                job.fail(ServerClosed("worker pool shut down mid-batch"))
            if went_idle and self.on_idle is not None:
                self.on_idle(resource)

    def _die(self, resource: str, job: BatchJob) -> bool:
        """Injected worker death: requeue the job, respawn a replacement.

        Returns True when the calling thread must exit.  The job goes back
        to the *front* of its queue (no request is ever dropped or
        reordered) and the replacement thread is tracked in ``_threads``
        before it starts, so a concurrent ``shutdown`` always joins it.
        During shutdown the death is a no-op — exiting mid-drain would
        strand queued jobs forever.
        """
        with self._lock:
            if self._stopping:
                return False
            self._queues[resource].appendleft(job)
            self._free[resource] += 1
            self.worker_deaths += 1
            replacement = threading.Thread(
                target=self._worker,
                args=(resource,),
                name=f"{self._name}-{resource}-respawn-{self.worker_deaths}",
                daemon=True,
            )
            self._threads.append(replacement)
            # Start while still holding the lock: a concurrent shutdown()
            # then either sees a started, joinable replacement or none at
            # all — never a tracked-but-unstarted thread.
            replacement.start()
            self._notify_everyone()
        if self.on_worker_death is not None:
            self.on_worker_death(resource)
        return True

    def _idle_everywhere(self) -> bool:
        """No worker holds a job and no queue holds one (lock held)."""
        return self._free == self._workers and not any(self._queues.values())

    def _notify_everyone(self) -> None:
        for work_ready in self._work_ready.values():
            work_ready.notify_all()

    def shutdown(self, timeout: Optional[float] = None, drain: bool = True) -> bool:
        """Stop the workers; True iff all exited before *timeout*.

        With ``drain=True`` (default) queued jobs are executed before the
        workers exit; with ``drain=False`` they are failed with
        :class:`ServerClosed` immediately.
        """
        failed: List[BatchJob] = []
        with self._lock:
            self._stopping = True
            self._drain = drain
            if not drain:
                for queue in self._queues.values():
                    failed.extend(queue)
                    queue.clear()
            self._notify_everyone()
        for job in failed:
            job.fail(ServerClosed("worker pool shut down before execution"))
        ok = join_threads(self._threads, timeout)
        if ok:
            # start() assigns the thread list under the lock; reset it under
            # the same lock so a concurrent start() never races the clear.
            with self._lock:
                self._threads = []
        return ok


__all__ = ["FabricGate", "BatchJob", "HeterogeneousWorkerPool", "join_threads"]
