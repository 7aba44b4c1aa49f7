"""InferenceServer integration: correctness, overload, fabric serialization.

The acceptance invariants of the serving subsystem:

* every accepted request's result is bit-identical to calling
  ``Network.forward_batch`` directly (pinned on the Tincy YOLO zoo
  network);
* the bounded queue sheds beyond its limit with a typed ``Overloaded``
  error, the shed count lands in the metrics, and accepted requests still
  complete correctly;
* at most one FINN-offload execution is ever in flight (the fabric is a
  serialized resource);
* batching is work-conserving: a request behind a free worker is
  dispatched at once (flush cause ``idle``), requests accumulate only
  while every worker is busy, and a worker going idle never leaves a
  request waiting out the batch deadline.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
from repro.core.tensor import BadFrame, FeatureMap, FeatureMapBatch
from repro.finn.mvtu import Folding
from repro.finn.offload_backend import export_offload
from repro.nn import zoo
from repro.nn.network import Network
from repro.core.resources import CPU, FABRIC
from repro.serve import (
    InferenceServer,
    Overloaded,
    RequestCancelled,
    RequestTimeout,
    ServeConfig,
    ServerClosed,
)
from repro.util.clock import VirtualClock


def _frames(rng, shape, count):
    return [
        FeatureMap(rng.normal(size=shape).astype(np.float32))
        for _ in range(count)
    ]


def _mlp4(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    return network


#: A ``[region]`` head for the mini hybrid's 10-channel last conv.
REGION_HEAD = "\n[region]\nclasses=5\nnum=1\nanchors=1.08,1.19\n"


def _hybrid_offload_network(rng, tmp_path, head=""):
    """The mini CPU->fabric->CPU network of the Fig. 4 export tests.

    *head* is cfg text appended after the last conv (:data:`REGION_HEAD`).
    """
    from tests.test_finn_offload import FULL_CFG, HYBRID_CFG_TEMPLATE, _trained

    full = _trained(rng, FULL_CFG)
    binparam = str(tmp_path / "binparam-mini")
    export_offload(
        full.layers[1:4],
        input_scale=full.layers[0].out_quant.scale,
        input_shape=full.layers[0].out_shape,
        directory=binparam,
        folding=Folding(4, 4),
    )
    hybrid = Network.from_cfg(
        HYBRID_CFG_TEMPLATE.format(binparam=binparam) + head
    )
    for src_index, dst_index in ((0, 0), (4, 2)):
        src, dst = full.layers[src_index], hybrid.layers[dst_index]
        dst.weights = src.weights.copy()
        dst.biases = src.biases.copy()
        if src.batch_normalize:
            dst.scales = src.scales.copy()
            dst.rolling_mean = src.rolling_mean.copy()
            dst.rolling_var = src.rolling_var.copy()
    hybrid.layers[1].backend.load_weights()
    return hybrid


@contextlib.contextmanager
def _held_in_vm(server, batches=None):
    """Hold every batch inside ``server.vm.run_stage`` until the block exits.

    Yields a semaphore released once per stage job that entered the VM, so
    a test knows — without sleeping — when a worker is busy.  Each job's
    batch size is appended to *batches* (when given) before it is
    announced.
    """
    release = threading.Event()
    entered = threading.Semaphore(0)
    run_stage = server.vm.run_stage

    def held(state, *args, **kwargs):
        if batches is not None:
            batches.append(state.fmb.batch)
        entered.release()
        assert release.wait(60)
        return run_stage(state, *args, **kwargs)

    server.vm.run_stage = held
    try:
        yield entered
    finally:
        release.set()
        del server.vm.run_stage


def _record_steps(server):
    """Record ``(step name, thread name)`` for each step the VM runs.

    Call after ``start()``: it wraps the server's own step hook.
    """
    steps = []
    observe = server.vm.on_step

    def record(stats):
        steps.append((stats.name, threading.current_thread().name))
        observe(stats)

    server.vm.on_step = record
    return steps


def _record_stage_modes(server):
    """Record ``(stage index, fabric_mode)`` for each stage job run."""
    calls = []
    run_stage = server.vm.run_stage

    def record(state, offload_guard=None, fabric_mode="fabric"):
        calls.append((state.stage, fabric_mode))
        return run_stage(state, offload_guard, fabric_mode)

    server.vm.run_stage = record
    return calls


def _occupy_workers(server, entered, frames):
    """One idle-flushed request per worker; returns once all are in the VM."""
    futures = []
    for frame in frames:
        futures.append(server.submit(frame))
        assert entered.acquire(timeout=60)
    return futures


def _start_with_queued_burst(server, frames):
    """Start *server* and submit *frames* before its batcher first looks.

    The batcher thread's first ``queue.pop`` waits until every frame is
    queued, so the whole burst is in sight when the first flush is
    decided.  Returns the futures in submission order.
    """
    pop = server.queue.pop
    queued = threading.Event()

    def pop_after_the_burst(*args, **kwargs):
        assert queued.wait(60)
        del server.queue.pop
        return pop(*args, **kwargs)

    server.queue.pop = pop_after_the_burst
    server.start()
    futures = [server.submit(frame) for frame in frames]
    queued.set()
    return futures


def _wait_until(predicate, timeout=60.0):
    """Spin (1 ms naps) until *predicate* holds; False on timeout."""
    give_up = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= give_up:
            return False
        time.sleep(0.001)
    return True


def _assert_served_matches_direct(network, frames, config):
    direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
    with InferenceServer(network, config) as server:
        served = server.infer_many(frames, timeout_s=60)
    assert len(served) == len(frames)
    for expected, got in zip(direct.frames(), served):
        assert got.scale == expected.scale
        assert np.array_equal(got.data, expected.data)


class TestServedResultsBitIdentical:
    def test_mlp4_served_matches_direct(self, rng):
        network = _mlp4(rng)
        _assert_served_matches_direct(
            network,
            _frames(rng, network.input_shape, 11),
            ServeConfig(max_batch=4, max_delay_s=0.002, cpu_workers=3),
        )

    def test_results_keep_submission_order(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 9)
        expected = [network.forward(fm) for fm in frames]
        with InferenceServer(network, ServeConfig(max_batch=2)) as server:
            got = server.infer_many(frames, timeout_s=60)
        for e, g in zip(expected, got):
            assert np.array_equal(g.data, e.data)

    @pytest.mark.slow
    def test_tincy_served_matches_direct(self, rng):
        # The acceptance pin: serving the Tincy YOLO zoo network is
        # bit-identical to direct forward_batch execution per request.
        network = Network(zoo.tincy_yolo_config())
        network.initialize(rng)
        _assert_served_matches_direct(
            network,
            _frames(rng, network.input_shape, 4),
            ServeConfig(max_batch=2, max_delay_s=0.01, cpu_workers=2),
        )


class TestOverloadBehavior:
    def test_sheds_beyond_limit_and_reports_metrics(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_queue_depth=4, max_batch=4, max_delay_s=0.005
        )
        frames = _frames(rng, network.input_shape, 32)
        server = InferenceServer(network, config)
        # Stall admission by submitting before start(): the batcher thread
        # is not pulling yet, so the queue must absorb or shed everything.
        accepted, shed = [], 0
        server._started = True  # allow submit() pre-start (test-only poke)
        for frame in frames:
            try:
                accepted.append(server.submit(frame))
            except Overloaded as exc:
                shed += 1
                assert exc.limit == 4
        assert len(accepted) == 4
        assert shed == 28
        server._started = False
        server.start()
        try:
            results = [future.result(timeout=60) for future in accepted]
        finally:
            server.stop(timeout=10)
        # Accepted requests still complete correctly despite the shedding.
        direct = network.forward_batch(
            FeatureMapBatch.from_maps(frames[: len(accepted)])
        )
        for expected, got in zip(direct.frames(), results):
            assert np.array_equal(got.data, expected.data)
        snapshot = server.metrics.snapshot()
        assert snapshot["shed"] == 28
        assert snapshot["accepted"] == 4
        assert snapshot["completed"] == 4
        assert snapshot["queue_depth_max"] == 4

    def test_overloaded_error_carries_depth_and_limit(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(
            network, ServeConfig(max_queue_depth=1, max_batch=1)
        )
        server._started = True
        server.submit(_frames(rng, network.input_shape, 1)[0])
        with pytest.raises(Overloaded) as excinfo:
            server.submit(_frames(rng, network.input_shape, 1)[0])
        assert excinfo.value.depth == 1
        assert excinfo.value.limit == 1
        server._started = False
        server.start()
        server.stop(timeout=10)

    def test_submit_to_stopped_server_rejected(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(network)
        server.start()
        server.stop(timeout=10)
        with pytest.raises(ServerClosed):
            server.submit(_frames(rng, network.input_shape, 1)[0])


class TestFabricSerialization:
    def test_only_one_offload_in_flight(self, rng, tmp_path):
        network = _hybrid_offload_network(rng, tmp_path)
        assert network.uses_fabric
        frames = _frames(rng, network.input_shape, 12)
        config = ServeConfig(max_batch=2, max_delay_s=0.001, cpu_workers=3)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        with InferenceServer(network, config) as server:
            assert [s.resource for s in server.vm.stages] == [CPU, FABRIC, CPU]
            served = server.infer_many(frames, timeout_s=60)
            gate = server.fabric_gate
            snapshot = server.metrics.snapshot()
        # The serialization invariant: the fabric engine never ran two
        # offload executions concurrently, while still serving every batch.
        assert gate.max_in_flight == 1
        assert gate.in_flight == 0
        assert gate.acquisitions >= 1
        assert snapshot["fabric_dispatches"] == gate.acquisitions
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_hybrid_stages_run_on_their_resource_workers(
        self, rng, tmp_path, monkeypatch
    ):
        # The §III-F split on the product's pool: the CPU layers around
        # the offload run on CPU workers, the offload on the one fabric
        # executor, with two kernel lanes per CPU step.
        from repro.core import lanes

        monkeypatch.setattr(lanes, "_LANES", 2)
        network = _hybrid_offload_network(rng, tmp_path, head=REGION_HEAD)
        frames = _frames(rng, network.input_shape, 8)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        config = ServeConfig(max_batch=2, max_delay_s=0.001, cpu_workers=2)
        with InferenceServer(network, config) as server:
            steps = _record_steps(server)
            served = server.infer_many(frames, timeout_s=60)
            gate = server.fabric_gate
        assert {name for name, _ in steps} == {
            "#00 convolutional",
            "#01 offload",
            "#02 convolutional",
            "#03 region",
        }
        for name, thread in steps:
            if name == "#01 offload":
                assert thread == "serve-fabric-0"
            else:
                assert thread.startswith("serve-cpu-"), (name, thread)
        assert gate.max_in_flight == 1
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_a_fabric_retry_reruns_the_offload_alone(self, rng, tmp_path):
        from repro import faults

        network = _hybrid_offload_network(rng, tmp_path)
        frames = _frames(rng, network.input_shape, 2)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        clock = VirtualClock()
        config = ServeConfig(
            max_batch=1, cpu_workers=1, max_retries=2,
            breaker_probe_after_s=1000.0,
        )
        with faults.install(faults.FaultPlan.parse("fabric-raise@0"), clock=clock):
            with InferenceServer(network, config, clock=clock) as server:
                steps = _record_steps(server)
                served = [server.infer(frame, timeout_s=60) for frame in frames]
                resilience = server.metrics.snapshot()["resilience"]
        assert resilience["fabric_retries"] == 1
        # The retried batch ran its first conv once, not once per attempt.
        assert [name for name, _ in steps] == [
            "#00 convolutional", "#01 offload", "#02 convolutional",
        ] * 2
        for expected, got in zip(direct.frames(), served):
            assert np.array_equal(got.data, expected.data)

    def test_an_open_breaker_degrades_the_offload_alone(self, rng, tmp_path):
        from repro import faults

        network = _hybrid_offload_network(rng, tmp_path)
        frames = _frames(rng, network.input_shape, 2)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        clock = VirtualClock()
        config = ServeConfig(
            max_batch=1, cpu_workers=1, max_retries=0,
            breaker_threshold=1, breaker_probe_after_s=1000.0,
        )
        with faults.install(faults.FaultPlan.parse("fabric-raise@0"), clock=clock):
            with InferenceServer(network, config, clock=clock) as server:
                calls = _record_stage_modes(server)
                futures = []
                for frame in frames:  # one at a time: batch 0, then batch 1
                    futures.append(server.submit(frame))
                    futures[-1].result(timeout=60)
                resilience = server.metrics.snapshot()["resilience"]
        assert resilience["degraded_inferences"] == 2
        assert all(future.degraded for future in futures)
        # Batch 0 fails on the fabric and trips the breaker; batch 1 meets
        # it open.  Either way only stage 1, the offload, runs in
        # reference mode, and the CPU stages run once each.
        assert calls == [
            (0, "fabric"), (1, "fabric"), (1, "reference"), (2, "fabric"),
            (0, "fabric"), (1, "reference"), (2, "fabric"),
        ]
        for expected, future in zip(direct.frames(), futures):
            assert np.array_equal(future.result().data, expected.data)

    def test_cpu_network_never_touches_the_gate(self, rng):
        network = _mlp4(rng)
        assert not network.uses_fabric
        with InferenceServer(network, ServeConfig(max_batch=4)) as server:
            assert [s.resource for s in server.vm.stages] == [CPU]
            server.infer_many(_frames(rng, network.input_shape, 6), timeout_s=60)
            assert server.fabric_gate.acquisitions == 0
            assert server.metrics.snapshot()["fabric_dispatches"] == 0


class TestTimeoutsAndCancellation:
    def test_expired_request_fails_with_timeout(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(max_batch=4, max_delay_s=0.005)
        with InferenceServer(network, config) as server:
            # timeout_s=0 expires at admission time — deterministically
            # before dispatch, with no sleeping in the test.
            future = server.submit(
                _frames(rng, network.input_shape, 1)[0], timeout_s=0.0
            )
            with pytest.raises(RequestTimeout):
                future.result(timeout=30)
            snapshot = server.metrics.snapshot()
        assert snapshot["timed_out"] == 1
        assert snapshot["completed"] == 0

    def test_cancelled_request_is_dropped(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(
            network, ServeConfig(max_batch=2)
        )
        server._started = True  # submit before the batcher thread runs
        future = server.submit(_frames(rng, network.input_shape, 1)[0])
        assert future.cancel()
        server._started = False
        server.start()
        with pytest.raises(RequestCancelled):
            future.result(timeout=30)
        server.stop(timeout=10)
        assert server.metrics.snapshot()["cancelled"] == 1

    def test_result_timeout_is_plain_timeouterror(self, rng):
        network = _mlp4(rng)
        server = InferenceServer(network)
        server._started = True
        future = server.submit(_frames(rng, network.input_shape, 1)[0])
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        future.cancel()
        server._started = False


class TestLifecycle:
    def test_stop_drains_accepted_requests(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_batch=64, max_delay_s=30.0, max_queue_depth=64,
            cpu_workers=1,
        )
        # A huge deadline and batch size behind a busy worker: nothing
        # would flush on its own; stop(drain=True) must force the pending
        # batch out.
        frames = _frames(rng, network.input_shape, 6)
        server = InferenceServer(network, config).start()
        with _held_in_vm(server) as entered:
            futures = _occupy_workers(server, entered, frames[:1])
            futures += [server.submit(frame) for frame in frames[1:]]
            stopped = []
            stopper = threading.Thread(
                target=lambda: stopped.append(server.stop(timeout=30, drain=True))
            )
            stopper.start()
            # The batcher thread exits once the forced flush is dispatched;
            # only then is the worker let go to drain it.
            server._batcher_thread.join(30)
            assert not server._batcher_thread.is_alive()
        stopper.join(30)
        assert stopped == [True]
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        for expected, future in zip(direct.frames(), futures):
            assert np.array_equal(future.result(timeout=0).data, expected.data)
        assert server.metrics.snapshot()["flush_causes"].get("forced", 0) >= 1

    def test_stop_without_drain_fails_pending(self, rng):
        network = _mlp4(rng)
        config = ServeConfig(
            max_batch=64, max_delay_s=30.0, max_queue_depth=64,
            cpu_workers=1,
        )
        frames = _frames(rng, network.input_shape, 4)
        server = InferenceServer(network, config).start()
        with _held_in_vm(server) as entered:
            (running,) = _occupy_workers(server, entered, frames[:1])
            futures = [server.submit(frame) for frame in frames[1:]]
            stopped = []
            stopper = threading.Thread(
                target=lambda: stopped.append(server.stop(timeout=30, drain=False))
            )
            stopper.start()
            # Pending requests fail while the one worker is still busy ...
            for future in futures:
                with pytest.raises(ServerClosed):
                    future.result(timeout=30)
        # ... and the batch that was already executing completes.
        stopper.join(30)
        assert stopped == [True]
        assert np.array_equal(
            running.result(timeout=5).data, network.forward(frames[0]).data
        )

    def test_start_runs_no_frame(self, rng, tmp_path):
        from repro import faults

        hybrid = _hybrid_offload_network(rng, tmp_path)
        frame = _frames(rng, hybrid.input_shape, 1)[0]
        compiles = []
        original = hybrid.plan
        hybrid.plan = lambda: (compiles.append(1), original())[1]
        # A plan that never fires: the injector only counts the seam.
        with faults.install(faults.FaultPlan.parse("fabric-raise@99")) as seam:
            server = InferenceServer(hybrid, ServeConfig(max_batch=1)).start()
            try:
                # A started server has compiled its one program and run
                # nothing on it: the client's first frame is the fabric's
                # first invocation.
                assert seam.invocations(faults.FABRIC_STEP) == 0
                assert compiles == [1]
                started = server.metrics.snapshot()
                assert started["plan_steps"] == {}
                assert started["completed"] == 0
                server.infer(frame, timeout_s=60)
                assert seam.invocations(faults.FABRIC_STEP) == 1
                steps = server.metrics.snapshot()["plan_steps"]
                assert {entry["count"] for entry in steps.values()} == {1}
            finally:
                server.stop(timeout=30)
        assert compiles == [1]

    def test_double_start_rejected(self, rng):
        server = InferenceServer(_mlp4(rng))
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop(timeout=10)

    def test_stop_before_start_is_noop(self, rng):
        assert InferenceServer(_mlp4(rng)).stop(timeout=1)

    def test_errors_propagate_to_futures_not_pool(self, rng):
        network = _mlp4(rng)
        with InferenceServer(
            network, ServeConfig(max_batch=1)
        ) as server:
            bad = FeatureMap(np.zeros((1, 28, 28), dtype=np.float32))
            bad.data = np.zeros((1, 28, 29), dtype=np.float32)  # poison shape
            with pytest.raises(BadFrame, match="not the plan's input"):
                server.submit(bad)  # refused at the door, never batched

            def poisoned(state, *args, **kwargs):  # fails one batch in the VM
                del server.vm.run_stage
                raise ValueError("input frames do not match network input")

            server.vm.run_stage = poisoned
            future = server.submit(_frames(rng, network.input_shape, 1)[0])
            with pytest.raises(ValueError, match="do not match network"):
                future.result(timeout=30)
            # The pool survived the poison batch and still serves traffic.
            good = _frames(rng, network.input_shape, 1)[0]
            out = server.infer(good, timeout_s=30)
            assert np.array_equal(out.data, network.forward(good).data)
            assert server.metrics.snapshot()["failed"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch cannot exceed"):
            ServeConfig(max_queue_depth=2, max_batch=4)
        with pytest.raises(ValueError, match="cpu_workers"):
            ServeConfig(cpu_workers=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            ServeConfig(max_delay_s=-0.1)


class TestConcurrentClients:
    def test_many_client_threads_all_served(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 24)
        expected = [network.forward(fm) for fm in frames]
        results = [None] * len(frames)
        errors = []
        with InferenceServer(
            network, ServeConfig(max_batch=4, max_delay_s=0.002, cpu_workers=3)
        ) as server:

            def client(index):
                try:
                    results[index] = server.infer(frames[index], timeout_s=60)
                except Exception as exc:  # noqa: BLE001 — collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(frames))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not errors
        for e, g in zip(expected, results):
            assert g is not None
            assert np.array_equal(g.data, e.data)


class TestWorkConservingBatching:
    """The idle trigger, on a virtual clock that only the test advances."""

    CONFIG = dict(max_batch=4, max_delay_s=0.005, max_queue_depth=16)

    def test_lone_request_on_idle_server_needs_no_clock_advance(self, rng):
        network = _mlp4(rng)
        frame = _frames(rng, network.input_shape, 1)[0]
        clock = VirtualClock()
        with InferenceServer(network, ServeConfig(**self.CONFIG), clock=clock) as server:
            out = server.infer(frame, timeout_s=60)
            snapshot = server.metrics.snapshot()
        assert clock() == 0.0  # nobody had to wait out (virtual) time
        assert np.array_equal(out.data, network.forward(frame).data)
        assert snapshot["flush_causes"] == {"idle": 1}
        assert snapshot["batch_histogram"] == {"1": 1}

    def test_requests_accumulate_into_a_size_batch_while_workers_busy(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 6)
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=2, **self.CONFIG)
        with InferenceServer(network, config, clock=clock) as server:
            with _held_in_vm(server) as entered:
                futures = _occupy_workers(server, entered, frames[:2])
                assert server.pool.free(CPU) == 0
                futures += [server.submit(frame) for frame in frames[2:]]
                # max_batch requests behind two busy workers: one size
                # flush, queued in the pool until a worker frees up.
                assert _wait_until(lambda: server.pool.pending() == 1)
            served = [future.result(timeout=60) for future in futures]
            snapshot = server.metrics.snapshot()
        assert clock() == 0.0
        assert snapshot["flush_causes"] == {"idle": 2, "size": 1}
        assert snapshot["batch_histogram"] == {"1": 2, "4": 1}
        for frame, got in zip(frames, served):
            assert np.array_equal(got.data, network.forward(frame).data)

    def test_partial_batch_behind_busy_worker_waits_for_the_deadline(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 3)
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=1, **self.CONFIG)
        with InferenceServer(network, config, clock=clock) as server:
            with _held_in_vm(server) as entered:
                futures = _occupy_workers(server, entered, frames[:1])
                futures += [server.submit(frame) for frame in frames[1:]]
                # Nothing but the deadline can flush the two; virtual time
                # stands still until the test moves it past the deadline.
                assert _wait_until(lambda: server.batcher.pending == 2)
                assert server.pool.pending() == 0
                clock.advance(0.005)
                assert _wait_until(lambda: server.pool.pending() == 1)
            for future in futures:
                future.result(timeout=60)
            snapshot = server.metrics.snapshot()
        assert snapshot["flush_causes"] == {"deadline": 1, "idle": 1}
        assert snapshot["batch_histogram"] == {"1": 1, "2": 1}

    def test_worker_going_idle_takes_what_accumulated(self, rng):
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 3)
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=1, **self.CONFIG)
        with InferenceServer(network, config, clock=clock) as server:
            with _held_in_vm(server) as entered:
                futures = _occupy_workers(server, entered, frames[:1])
                futures += [server.submit(frame) for frame in frames[1:]]
            # The worker finishes: its wake-up — not the deadline, the
            # virtual clock never moves — flushes the partial batch.
            for future in futures:
                future.result(timeout=60)
            snapshot = server.metrics.snapshot()
        assert clock() == 0.0
        assert snapshot["flush_causes"].get("deadline", 0) == 0
        assert snapshot["flush_causes"]["idle"] >= 2
        assert snapshot["completed"] == 3

    def test_fabric_server_flushes_idle_to_cpu_workers(self, rng, tmp_path):
        # A hybrid batch starts on a CPU worker, so free CPU workers make
        # a fabric server idle; only its offload stage takes the executor.
        network = _hybrid_offload_network(rng, tmp_path)
        frames = _frames(rng, network.input_shape, 4)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=3, **self.CONFIG)
        with InferenceServer(network, config, clock=clock) as server:
            assert [s.resource for s in server.vm.stages] == [CPU, FABRIC, CPU]
            served = [server.infer(frame, timeout_s=60) for frame in frames[:2]]
            with _held_in_vm(server) as entered:
                futures = _occupy_workers(server, entered, frames[2:3])
                assert server.pool.free(CPU) == 2
                assert server.pool.free(FABRIC) == 1
                futures += _occupy_workers(server, entered, frames[3:4])
                assert server.pool.free(CPU) == 1
            served += [future.result(timeout=60) for future in futures]
            gate = server.fabric_gate
            snapshot = server.metrics.snapshot()
        assert clock() == 0.0
        assert snapshot["flush_causes"] == {"idle": 4}
        assert gate.max_in_flight == 1
        assert gate.acquisitions == 4
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_queued_burst_splits_over_both_free_workers(self, rng):
        # Eight requests in sight, two free workers: the fair share is 4,
        # so the burst goes out as two batches of 4 that run at once —
        # not one batch of 8 while the second worker idles.
        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 8)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=2, **dict(self.CONFIG, max_batch=8))
        server = InferenceServer(network, config, clock=clock)
        batches = []
        try:
            with _held_in_vm(server, batches) as entered:
                futures = _start_with_queued_burst(server, frames)
                assert entered.acquire(timeout=60)
                assert batches[0] == 4
                # The second worker enters while the first is still held.
                assert entered.acquire(timeout=60)
                assert batches == [4, 4]
                assert server.pool.free(CPU) == 0
            served = [future.result(timeout=60) for future in futures]
            snapshot = server.metrics.snapshot()
        finally:
            assert server.stop(timeout=60)
        assert clock() == 0.0
        assert snapshot["flush_causes"] == {"idle": 2}
        assert snapshot["batch_histogram"] == {"4": 2}
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_fabric_server_splits_bursts_on_cpu_workers(
        self, rng, tmp_path
    ):
        # A hybrid batch's first stage is a CPU job, so a queued burst is
        # split over the free CPU workers, as on a CPU-only server; the
        # two halves then take the one fabric executor in turn.
        network = _hybrid_offload_network(rng, tmp_path)
        frames = _frames(rng, network.input_shape, 8)
        direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=2, **dict(self.CONFIG, max_batch=8))
        server = InferenceServer(network, config, clock=clock)
        assert server.vm.stages[0].resource == CPU
        assert server.pool.free(CPU) == 2 and server.pool.free(FABRIC) == 1
        try:
            futures = _start_with_queued_burst(server, frames)
            steps = _record_steps(server)
            served = [future.result(timeout=60) for future in futures]
            snapshot = server.metrics.snapshot()
        finally:
            assert server.stop(timeout=60)
        assert clock() == 0.0
        assert snapshot["flush_causes"] == {"idle": 2}
        assert snapshot["batch_histogram"] == {"4": 2}
        assert server.fabric_gate.acquisitions == 2
        assert server.fabric_gate.max_in_flight == 1
        for name, thread in steps:
            expected_worker = "serve-fabric-" if name == "#01 offload" else "serve-cpu-"
            assert thread.startswith(expected_worker), (name, thread)
        for expected, got in zip(direct.frames(), served):
            assert got.scale == expected.scale
            assert np.array_equal(got.data, expected.data)

    def test_worker_death_leaves_the_free_worker_count_exact(self, rng):
        from repro import faults

        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 4)
        clock = VirtualClock()
        config = ServeConfig(cpu_workers=2, **self.CONFIG)
        with faults.install(faults.FaultPlan.parse("worker-death@0"), clock=clock):
            with InferenceServer(network, config, clock=clock) as server:
                # The first job kills its worker; the respawn serves it.
                first = server.infer(frames[0], timeout_s=60)
                assert server.pool.worker_deaths == 1
                with _held_in_vm(server) as entered:
                    futures = _occupy_workers(server, entered, frames[1:2])
                    # Two workers, one busy: still exactly one free (once
                    # the respawn has put down the job it just answered) ...
                    assert _wait_until(lambda: server.pool.free(CPU) == 1)
                    futures += _occupy_workers(server, entered, frames[2:3])
                    # ... and none once both hold a job.
                    assert server.pool.free(CPU) == 0
                    futures.append(server.submit(frames[3]))
                served = [first] + [f.result(timeout=60) for f in futures]
                snapshot = server.metrics.snapshot()
        assert clock() == 0.0
        assert snapshot["resilience"]["worker_deaths"] == 1
        assert snapshot["flush_causes"] == {"idle": 4}
        for frame, got in zip(frames, served):
            assert np.array_equal(got.data, network.forward(frame).data)

    def test_worker_going_idle_between_check_and_pop_is_not_lost(self, rng):
        # The lost-wake-up interleaving, forced: the batcher has seen "no
        # free worker" for request B, and before it gets back to
        # queue.pop the one worker finishes and signals.  The stale wait
        # must end at once; a lost wake-up would leave B pending for the
        # 30 s (real-time) pop timeout, far beyond result()'s patience.
        network = _mlp4(rng)
        first, second = _frames(rng, network.input_shape, 2)
        clock = VirtualClock()
        config = ServeConfig(
            max_batch=4, max_delay_s=30.0, cpu_workers=1
        )
        with InferenceServer(network, config, clock=clock) as server:
            checked, woken = threading.Event(), threading.Event()
            add, wake = server.batcher.add, server.queue.wake

            def add_after_the_worker_went_idle(request, now, idle=False):
                if request.frame is second:
                    assert not idle
                    checked.set()
                    assert woken.wait(60)
                return add(request, now, idle)

            def wake_and_tell():
                wake()
                woken.set()

            server.batcher.add = add_after_the_worker_went_idle
            server.queue.wake = wake_and_tell
            with _held_in_vm(server) as entered:
                (running,) = _occupy_workers(server, entered, [first])
                pending = server.submit(second)
                assert checked.wait(60)
            out = pending.result(timeout=10)
            running.result(timeout=10)
            snapshot = server.metrics.snapshot()
        assert clock() == 0.0
        assert np.array_equal(out.data, network.forward(second).data)
        assert snapshot["flush_causes"] == {"idle": 2}

    @pytest.mark.integration
    def test_no_lost_wakeup_over_sequential_requests(self, rng):
        # Real clock, 1000 back-to-back requests: each one is submitted
        # right as the worker that served the previous one goes idle — the
        # window in which a lost wake-up would park the request until the
        # deadline.  The deadline is far beyond the test's patience, so a
        # single lost wake-up shows as a deadline flush (or a timeout).
        import sys

        network = _mlp4(rng)
        frames = _frames(rng, network.input_shape, 8)
        config = ServeConfig(
            max_batch=4, max_delay_s=5.0, cpu_workers=1
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-handoff, often
        try:
            with InferenceServer(network, config) as server:
                for i in range(1000):
                    server.infer(frames[i % len(frames)], timeout_s=60)
                snapshot = server.metrics.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert snapshot["completed"] == 1000
        assert snapshot["flush_causes"].get("deadline", 0) == 0
        assert snapshot["flush_causes"] == {"idle": 1000}
