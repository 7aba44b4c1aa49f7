"""HeterogeneousWorkerPool: free-worker accounting and per-resource wake-ups.

The batcher's idle trigger rests on two promises of the pool: ``free``
counts exactly the workers a job submitted now would start on, and
``on_idle`` fires whenever a finishing worker frees one.  Jobs here
are gated on events, so every state is observed without sleeping.
"""

import sys
import threading

import pytest

from repro.pipeline.scheduler import CPU, FABRIC
from repro.serve.queue import ServerClosed
from repro.serve.workers import BatchJob, HeterogeneousWorkerPool


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
