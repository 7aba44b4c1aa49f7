"""HeterogeneousWorkerPool: free-worker accounting, wake-ups, stage jobs.

The batcher's idle trigger rests on two promises of the pool: ``free``
counts exactly the workers a job submitted now would start on, and
``on_idle`` fires whenever a finishing worker frees one.  A job with
stages left comes back to the queue of its next resource, most mature
first, and shutdown neither strands nor loses it.  Jobs here are gated
on events, so every state is observed without sleeping.
"""

import sys
import threading
import types

import pytest

from repro.core.resources import CPU, FABRIC
from repro.serve.queue import RequestFuture, ServerClosed
from repro.serve.workers import BatchJob, HeterogeneousWorkerPool, join_threads


class Gated:
    """An ``execute`` that parks each job until the test lets it go."""

    def __init__(self):
        self.entered = threading.Semaphore(0)
        self.release = threading.Semaphore(0)
        self.went_idle = threading.Semaphore(0)
        self.idle_calls = []

    def execute(self, job):
        self.entered.release()
        assert self.release.acquire(timeout=60)

    def on_idle(self, resource):
        self.idle_calls.append(resource)
        self.went_idle.release()


@pytest.fixture
def gated():
    return Gated()


@pytest.fixture
def pool(gated):
    pool = HeterogeneousWorkerPool(
        gated.execute, cpu_workers=2, on_idle=gated.on_idle
    )
    pool.start()
    yield pool
    for _ in range(16):  # let any job still parked finish
        gated.release.release()
    assert pool.shutdown(timeout=30)


def _submit(pool, gated, resource=CPU):
    pool.submit(BatchJob([], resource=resource))
    assert gated.entered.acquire(timeout=60)


class TestFreeWorkerAccounting:
    def test_idle_before_any_worker_thread_ran(self, gated):
        pool = HeterogeneousWorkerPool(gated.execute, cpu_workers=1)
        assert pool.free(CPU) == 1 and pool.free(FABRIC) == 1

    def test_queued_jobs_claim_free_workers_before_they_start(self):
        pool = HeterogeneousWorkerPool(lambda job: None, cpu_workers=2)
        assert pool.free(CPU) == 2
        pool.submit(BatchJob([]))
        assert pool.free(CPU) == 1
        pool.submit(BatchJob([]))
        pool.submit(BatchJob([]))  # waits behind the other two
        assert pool.free(CPU) == 0 and pool.free(FABRIC) == 1
        pool.start()
        assert pool.shutdown(timeout=30)
        assert pool.executed == 3 and pool.free(CPU) == 2

    def test_idle_until_every_worker_holds_a_job(self, pool, gated):
        _submit(pool, gated)
        assert pool.free(CPU) == 1
        _submit(pool, gated)
        assert pool.free(CPU) == 0
        gated.release.release()
        assert gated.went_idle.acquire(timeout=60)
        assert pool.free(CPU) == 1

    def test_a_queued_job_claims_the_next_free_worker(self, pool, gated):
        _submit(pool, gated)
        _submit(pool, gated)
        pool.submit(BatchJob([]))  # waits behind the two
        assert pool.pending() == 1
        # One worker finishes and takes the queued job: nobody went idle.
        gated.release.release()
        assert gated.entered.acquire(timeout=60)
        assert pool.free(CPU) == 0
        assert gated.idle_calls == []
        # Only when a worker runs out of work is on_idle told.
        gated.release.release()
        assert gated.went_idle.acquire(timeout=60)
        assert gated.idle_calls == [CPU]
        assert pool.free(CPU) == 1

    def test_resources_are_counted_apart(self, pool, gated):
        _submit(pool, gated, FABRIC)
        assert pool.free(FABRIC) == 0
        assert pool.free(CPU) == 2
        gated.release.release()
        assert gated.went_idle.acquire(timeout=60)
        assert gated.idle_calls == [FABRIC]
        assert pool.free(FABRIC) == 1


class TestSingleWakeUp:
    def test_no_job_is_stranded_by_notifying_one_waiter(self):
        # More jobs than workers on both resources, submitted while the
        # workers race between "queue empty, about to wait" and "woken".
        done = threading.Semaphore(0)
        pool = HeterogeneousWorkerPool(lambda job: done.release(), cpu_workers=3)
        pool.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(400):
                pool.submit(BatchJob([], resource=FABRIC if i % 4 == 0 else CPU))
            for _ in range(400):
                assert done.acquire(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert pool.shutdown(timeout=30)
        assert pool.executed == 400
        assert pool.free(CPU) == 3 and pool.free(FABRIC) == 1

    def test_shutdown_wakes_every_parked_worker(self):
        pool = HeterogeneousWorkerPool(lambda job: None, cpu_workers=3)
        pool.start()
        assert pool.shutdown(timeout=30)
        with pytest.raises(ServerClosed):
            pool.submit(BatchJob([]))


def _chain(resources):
    """An ``execute`` whose jobs run one stage per entry of *resources*."""

    def execute(job):
        following = resources[job.stage + 1 :]
        return following[0] if following else None

    return execute


class TestStageJobs:
    def test_a_later_stage_goes_ahead_of_earlier_ones(self):
        order, rest = [], {"x": [], "a": [CPU], "b": [], "c": []}
        entered, hold = threading.Event(), threading.Event()

        def execute(job):
            order.append((job.cause, job.stage))
            if job.cause == "x":
                entered.set()
                assert hold.wait(60)
            return rest[job.cause].pop(0) if rest[job.cause] else None

        fabric_idle = threading.Event()
        pool = HeterogeneousWorkerPool(
            execute,
            cpu_workers=1,
            on_idle=lambda resource: resource == FABRIC and fabric_idle.set(),
        )
        pool.start()
        pool.submit(BatchJob([], cause="x"))
        assert entered.wait(60)
        pool.submit(BatchJob([], cause="b"))
        pool.submit(BatchJob([], cause="c"))
        pool.submit(BatchJob([], resource=FABRIC, cause="a"))
        # "a" runs its fabric stage and queues for the busy CPU worker.
        assert fabric_idle.wait(60)
        hold.set()
        assert pool.shutdown(timeout=30)
        # Stage 1 of "a" overtakes the stage-0 jobs queued before it; the
        # stage-0 jobs keep their order.
        assert order == [("x", 0), ("a", 0), ("a", 1), ("b", 0), ("c", 0)]

    def test_drain_runs_every_stage_of_a_job_in_flight(self):
        seen, hold = [], threading.Event()
        entered = threading.Event()
        chain = _chain([CPU, FABRIC, CPU])

        def execute(job):
            seen.append(job.resource)
            if job.stage == 0:
                entered.set()
                assert hold.wait(60)
            return chain(job)

        pool = HeterogeneousWorkerPool(execute, cpu_workers=2)
        pool.start()
        pool.submit(BatchJob([]))
        assert entered.wait(60)
        # Stopping while the job holds a CPU worker: nobody may exit yet.
        assert not pool.shutdown(timeout=0.01)
        hold.set()
        assert pool.shutdown(timeout=30)
        assert seen == [CPU, FABRIC, CPU]

    def test_stop_without_drain_fails_a_job_between_stages(self):
        seen, hold = [], threading.Event()
        entered = threading.Event()
        chain = _chain([CPU, FABRIC, CPU])
        request = types.SimpleNamespace(future=RequestFuture())

        def execute(job):
            seen.append(job.resource)
            entered.set()
            assert hold.wait(60)
            return chain(job)

        pool = HeterogeneousWorkerPool(execute, cpu_workers=1)
        pool.start()
        pool.submit(BatchJob([request]))
        assert entered.wait(60)
        assert not pool.shutdown(timeout=0.01, drain=False)
        hold.set()
        assert pool.shutdown(timeout=30, drain=False)
        assert seen == [CPU]
        assert isinstance(request.future.exception(timeout=0), ServerClosed)


class TestJoinThreads:
    def test_shared_deadline_across_threads(self):
        import threading
        import time

        stop = threading.Event()
        threads = [
            threading.Thread(target=stop.wait, args=(10.0,), daemon=True)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        start = time.monotonic()
        assert not join_threads(threads, timeout=0.2)
        # One shared deadline: nowhere near 4 * 0.2s.
        assert time.monotonic() - start < 2.0
        stop.set()
        assert join_threads(threads, timeout=5.0)

    def test_join_finished_threads_is_true(self):
        import threading

        thread = threading.Thread(target=lambda: None)
        thread.start()
        thread.join()
        assert join_threads([thread], timeout=0.1)
        assert join_threads([], timeout=None)
