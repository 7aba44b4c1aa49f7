"""The six workloads: what is started, what it is fed, what is timed.

Every workload follows one shape (``run_workload``):

1. write the model files and generate the seeded inputs (untimed);
2. compute expected outputs with the oracle (untimed — and it warms
   BLAS and the allocator, so the first timed start is not special);
3. start the stack ``cold_starts`` times from the files with an empty plan
   cache, to its first frame only, then set it up ``setup_repeats`` times
   the same way plus the warm-up (-> ``cold_start_ms``, ``setup_s``),
   keeping the last one;
4. run the timed phases against it (-> ``frames_per_s``, latencies);
5. start it again with the now-primed plan cache (-> ``warm_start_ms``);
6. compare outputs with the oracle's after the clock has stopped.

The stacks are the program's three front doors, each called only
through public functions: a bound ``PlanVM`` (``tincy_*``,
``cold_start``), an ``InferenceServer`` and a ``ShardedServer``, the two
servers with their class-default configuration plus a plan-cache dir.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import harness
import models
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.isa import PlanCache, PlanVM
from repro.serve import InferenceServer, ServeConfig, ShardedServer, ShardTierConfig

clock = time.perf_counter

#: Requests whose latency exceeds this miss the SLO (PR 10's limit).
SLO_MS = 50.0
#: Responses byte-compared per phase (all of them when a phase has fewer).
CHECK_SAMPLE = 256
_RESULT_TIMEOUT_S = 60.0
#: Warm starts, and cold starts beyond the set-ups, per run: about one
#: Tincy start in seven takes half as long again (its first frame faults a
#: fresh arena in), so the median of three starts is not steady.
WARM_STARTS = 7
COLD_STARTS = 4


class Resolved:
    """An already-completed future (the VM stack answers synchronously)."""

    def __init__(self, value) -> None:
        self._value = value

    def done(self) -> bool:
        return True

    def exception(self, timeout=None):
        return None

    def result(self, timeout=None):
        return self._value


# -- stacks ------------------------------------------------------------------


class VMStack:
    """cfg + weights on disk -> plan cache -> bound -O2 ``PlanVM``; batch 1."""

    def __init__(self, model: models.Model, cache_dir: str, tracer=None) -> None:
        self.network = model.load()
        program, _hit = PlanCache(cache_dir).get_or_compile(
            self.network, name=model.name
        )
        self.vm = PlanVM(program, self.network)
        self.tracer = tracer
        self._frames = 0
        self._frame_span = -1
        self._step = 0

    def _on_step(self, stats) -> None:
        # Span boundaries on the harness clock, stamped in the public
        # callback; the step's duration is the VM's own StepStats.
        now = self.tracer.clock()
        self.tracer.add(
            f"isa.vm.step.{self._step:02d}",
            now - stats.wall_s,
            now,
            parent=self._frame_span,
            rid=self._frames,
        )
        self._step += 1

    def submit(self, frame: FeatureMap) -> Resolved:
        batch = FeatureMapBatch(frame.data[np.newaxis, ...], frame.scale)
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.vm.on_step = self._on_step
            self._step = 0
            self._frame_span = self.tracer.open("isa.vm.run", rid=self._frames)
        out = self.vm.run(batch)
        if traced:
            self.vm.on_step = None
            self.tracer.close(self._frame_span)
        self._frames += 1
        # The VM's output buffer belongs to its arena; keep a copy to
        # compare after the clock stops.
        return Resolved(out.frame(0).copy())

    def snapshot(self) -> Dict:
        return {}

    def close(self) -> None:
        pass


class ServerStack:
    """In-process ``InferenceServer``, class-default ``ServeConfig``."""

    def __init__(self, model: models.Model, cache_dir: str, tracer=None) -> None:
        self.network = model.load()
        self.server = InferenceServer(
            self.network, ServeConfig(plan_cache_dir=cache_dir)
        )
        self.server.start()
        self.submit = self.server.submit

    def snapshot(self) -> Dict:
        return self.server.metrics.snapshot()

    def close(self) -> None:
        self.server.stop(timeout=10.0)


class ShardStack:
    """``ShardedServer``: class-default ``ShardTierConfig`` (2 forked shards)."""

    def __init__(self, model: models.Model, cache_dir: str, tracer=None) -> None:
        self.network = model.load()
        self.server = ShardedServer(
            self.network, ShardTierConfig(plan_cache_dir=cache_dir)
        )
        try:
            self.server.start()
        except BaseException:
            self.server.stop(drain=False)  # reap whatever did fork
            raise
        self.submit = self.server.submit

    def snapshot(self) -> Dict:
        return self.server.snapshot()

    def close(self) -> None:
        self.server.stop(timeout_s=10.0)


# -- workload specifications -------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One workload: which stack, fed what, timed how."""

    name: str
    why: str
    write_model: Callable[[str], models.Model]
    stack: Callable
    #: Distinct frames generated (cyclic; must outlast the program's caches).
    pool: int
    #: Requests between the first correct frame and "ready".
    warmup: int
    #: Timed set-ups per run (median reported).
    setup_repeats: int
    #: Closed loop: requests the one generator keeps outstanding.
    window: int
    #: Starts with the primed plan cache, after the timed phases.
    warm_starts: int = WARM_STARTS
    #: Starts with an empty plan cache before the set-ups, first frame only.
    cold_starts: int = COLD_STARTS
    #: Open loop after the closed loop, at this rate (None: closed only).
    rate_hz: Optional[float] = None
    duplicates: bool = False
    golden: bool = False
    #: ``cold_start``: the timed phase is start cycles, not frames.
    cycles: bool = False


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "tincy_cpu",
            "all-CPU W1A3 Tincy YOLO through the -O2 PlanVM: core kernels are ~95% of the frame",
            models.write_tincy_cpu, VMStack, pool=4, warmup=10, setup_repeats=3, window=1,
        ),
        Spec(
            "tincy_hybrid",
            "the paper's CPU->fabric->CPU net: the finn offload is ~90% of the frame, core ~8% (mirror of tincy_cpu)",
            models.write_tincy_hybrid, VMStack, pool=4, warmup=10, setup_repeats=3, window=1,
            golden=True,
        ),
        Spec(
            "cnv6_serve",
            "InferenceServer on unique CNV-6 frames: compute is ~1/3 of a response, queue+batcher+hand-off the rest",
            models.write_cnv6, ServerStack, pool=4096, warmup=200, setup_repeats=5, window=8,
            rate_hz=100.0,
        ),
        Spec(
            "cnv6_shard",
            "2-shard tier, every frame new (all result-cache misses): digest+router+pickled pipes+collector dominate",
            models.write_cnv6, ShardStack, pool=4096, warmup=200, setup_repeats=3, window=8,
            rate_hz=100.0,
        ),
        Spec(
            "cnv6_shard_dup",
            "same tier, camera-like traffic (75% repeats of the last 16 frames): cache hits and coalescing carry it",
            models.write_cnv6, ShardStack, pool=4096, warmup=200, setup_repeats=3, window=8,
            rate_hz=100.0, duplicates=True,
        ),
        Spec(
            "cold_start",
            "Tincy cfg+.weights on disk -> first correct frame, 1 plan-cache miss then 3 hits per cycle: isa does all the work",
            models.write_tincy_cpu, VMStack, pool=4, warmup=10, setup_repeats=3, window=1,
            warm_starts=0, cold_starts=0, cycles=True,  # its cycles are its starts
        ),
    )
}

#: ``--smoke``: same six code paths on small nets with short phases.
_SMOKE = {
    "tincy_cpu": dict(write_model=models.write_mlp4, pool=16),
    "cold_start": dict(write_model=models.write_mlp4, pool=16),
    "cnv6_serve": dict(pool=512, warmup=16),
    "cnv6_shard": dict(pool=1200, warmup=16),
    "cnv6_shard_dup": dict(pool=1200, warmup=16),
}


def smoke_spec(spec: Spec) -> Spec:
    return replace(
        spec, setup_repeats=1, warm_starts=min(1, spec.warm_starts), cold_starts=0,
        **_SMOKE.get(spec.name, {}),
    )


# -- one start ---------------------------------------------------------------


class Counts:
    """attempted / failed across the whole run (every request counts)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)


def has_artifact(cache_dir: str) -> bool:
    return os.path.isdir(cache_dir) and any(
        name.endswith(".rpb") for name in os.listdir(cache_dir)
    )


def start(spec: Spec, model, cache_dir, frame, expected, counts: Counts, tracer=None):
    """Files on disk -> first correct frame.  Returns (stack, t0, first_ms)."""
    harness.settle_memory()
    t0 = clock()
    stack = spec.stack(model, cache_dir, tracer)
    opened = clock()
    try:
        out = stack.submit(frame).result(_RESULT_TIMEOUT_S)
        first = clock()
    except BaseException:
        stack.close()
        raise
    first_ms = (first - t0) * 1e3
    if tracer is not None:
        parent = tracer.add("start", t0, first)
        tracer.add("start.open", t0, opened, parent)
        tracer.add("start.first_frame", opened, first, parent)
    counts.add(models.same_output(out, expected), "first frame differs from oracle")
    return stack, t0, first_ms


def warm_up(stack, frames: Sequence[FeatureMap], count: int, window: int) -> None:
    """*count* requests, *window* at a time (fixed count, not timed out)."""
    sent = 0
    while sent < count:
        chunk = [
            stack.submit(frames[(sent + k) % len(frames)])
            for k in range(min(window, count - sent))
        ]
        for future in chunk:
            future.result(_RESULT_TIMEOUT_S)
        sent += len(chunk)


# -- checking ----------------------------------------------------------------


def check_phase(
    record: harness.Completed,
    frames: Sequence[FeatureMap],
    oracle: models.Oracle,
    counts: Counts,
    seed: int,
    known: Optional[Dict[int, FeatureMap]] = None,
) -> None:
    """Every response well-formed; a seeded sample byte-equal to the oracle."""
    total = record.attempted
    rng = np.random.default_rng([seed, 5, total])
    sampled = (
        range(total)
        if total <= CHECK_SAMPLE
        else sorted(rng.choice(total, size=CHECK_SAMPLE, replace=False).tolist())
    )
    known = dict(known or {})
    missing = sorted({record.indices[p] for p in sampled} - set(known))
    for start_at in range(0, len(missing), 64):
        chunk = missing[start_at : start_at + 64]
        for index, out in zip(chunk, oracle.outputs([frames[i] for i in chunk])):
            known[index] = out
    template = next(iter(known.values()))
    sampled = set(sampled)
    for position in range(total):
        got = record.results[position]
        if record.done[position] is None:
            counts.add(False, f"request failed: {got!r}")
        elif position in sampled:
            counts.add(
                models.same_output(got, known[record.indices[position]]),
                "response differs from oracle",
            )
        else:
            counts.add(models.well_formed(got, template), "malformed response")


# -- the run -----------------------------------------------------------------


@dataclass
class Run:
    """Everything one run of one workload observed."""

    spec: Spec
    seed: int
    counts: Counts
    cold_ms: List[float]
    warm_ms: List[float]
    setup_s: List[float]
    closed: Optional[harness.Completed] = None
    opened: Optional[harness.Completed] = None
    start_ms: Optional[List[float]] = None  # cold_start: every start, in order
    snapshot_ready: Optional[Dict] = None
    snapshot_closed: Optional[Dict] = None
    snapshot_end: Optional[Dict] = None
    golden_digest: str = ""
    fabric_steps: int = 0
    model: Optional[models.Model] = None
    frames: Optional[List[FeatureMap]] = None
    traced_slices: Sequence[int] = ()

    def latencies_ms(self) -> List[float]:
        """The latencies the run reports: per start on ``cold_start``, else
        the paced phase's (from the due time), else the closed loop's."""
        if self.spec.cycles:
            return self.start_ms
        phase = self.opened if self.opened is not None else self.closed
        return phase.latencies_ms()


def _start_cycles(
    spec, model, workdir, frames, expected, counts, seconds, run: Run, tracer
):
    """``cold_start``: cycles of one plan-cache miss then three hits."""
    run.start_ms = []
    if tracer is not None:
        tracer.enabled = True
    phase_start = clock()
    cycle = 0
    while clock() - phase_start < seconds:
        cache_dir = os.path.join(workdir, f"cycle-{cycle}")
        for attempt in range(4):
            index = (cycle * 4 + attempt) % len(frames)
            was_hit = has_artifact(cache_dir)
            stack, _t0, first_ms = start(
                spec, model, cache_dir, frames[index], expected[index], counts, tracer
            )
            stack.close()
            counts.add(was_hit == (attempt > 0), "unexpected plan-cache state")
            (run.warm_ms if was_hit else run.cold_ms).append(first_ms)
            run.start_ms.append(first_ms)
        shutil.rmtree(cache_dir, ignore_errors=True)
        cycle += 1
    run.closed = harness.Completed()
    run.closed.start, run.closed.end = phase_start, clock()


def run_workload(
    spec: Spec,
    seed: int,
    seconds: float,
    out_dir: str,
    tracer: Optional[harness.Tracer] = None,
    probe: Optional[Callable[[Run, str], None]] = None,
) -> Run:
    """Run one workload once; the caller turns the ``Run`` into metrics.

    *probe* (the traced run's per-layer measurements) is called with the
    finished ``Run`` while the model files still exist.
    """
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=spec.name + "-", dir=out_dir)
    counts = Counts()
    run = Run(spec, seed, counts, [], [], [])
    stack = None
    try:
        model = spec.write_model(workdir)
        oracle = models.Oracle(model)
        frames = models.make_frames(oracle.network.input_shape, spec.pool, seed)
        served = spec.rate_hz is not None
        warm_frames = frames
        if served:  # warm-up frames the timed phases never reuse
            warm_frames = models.make_frames(
                oracle.network.input_shape, spec.warmup, seed + 1_000_003
            )
        order = (
            models.duplicate_order(spec.pool, 16 * spec.pool, seed)
            if spec.duplicates
            else list(range(spec.pool))  # every request a new frame, cyclic
        )
        run.model, run.frames = model, frames
        # A handful of big frames: all expected outputs up front.  Thousands
        # of small ones: check_phase asks the oracle for its sample.
        known: Dict[int, FeatureMap] = (
            {} if served else dict(enumerate(oracle.outputs(frames)))
        )
        first_expected = oracle.outputs([warm_frames[0]])[0]

        # Starts from an empty plan cache: first to the first frame only ...
        for repeat in range(spec.cold_starts):
            cache_dir = os.path.join(workdir, f"cold-{repeat}")
            cold_stack, _t0, first_ms = start(
                spec, model, cache_dir, warm_frames[0], first_expected, counts, tracer
            )
            cold_stack.close()
            cold_stack = None  # freed before the next start: peak RSS is one stack's
            run.cold_ms.append(first_ms)
            shutil.rmtree(cache_dir, ignore_errors=True)
        # ... then whole set-ups; the last one is measured on.
        for repeat in range(spec.setup_repeats):
            if stack is not None:
                stack.close()
                stack = None
            cache_dir = os.path.join(workdir, f"cache-{repeat}")
            stack, t0, first_ms = start(
                spec, model, cache_dir, warm_frames[0], first_expected, counts, tracer
            )
            warm_up(stack, warm_frames, spec.warmup, spec.window)
            run.setup_s.append(clock() - t0)
            run.cold_ms.append(first_ms)

        if spec.golden:
            golden = stack.submit(models.golden_frame()).result(_RESULT_TIMEOUT_S)
            run.golden_digest = oracle.detections_digest(golden)
            counts.add(
                run.golden_digest == models.GOLDEN_DETECTIONS_SHA256,
                "golden detections checksum not reproduced",
            )
        if isinstance(stack, VMStack):
            run.fabric_steps = sum(
                1 for step in stack.vm.last_report.steps if step.resource == "fabric"
            )
        run.snapshot_ready = stack.snapshot()

        if spec.cycles:
            stack.close()
            stack = None
            _start_cycles(
                spec, model, workdir, frames, known, counts, seconds, run, tracer
            )
        else:
            closed_s = seconds if spec.rate_hz is None else seconds / 2.0

            def on_slice(number: int) -> None:
                # Traced run: odd fifths traced, even fifths not, so one
                # phase yields both throughputs.
                if tracer is not None:
                    tracer.enabled = number % 2 == 1

            run.traced_slices = (1, 3) if tracer is not None else ()
            run.closed = harness.closed_loop(
                stack.submit, frames, order, spec.window, closed_s, on_slice=on_slice
            )
            if tracer is not None:
                tracer.enabled = True
            run.snapshot_closed = stack.snapshot()
            if spec.rate_hz is not None:
                offsets = models.arrival_offsets(spec.rate_hz, seconds - closed_s, seed)
                rest = order[run.closed.attempted % len(order) :] + order
                run.opened = harness.open_loop(stack.submit, frames, rest, offsets)
            run.snapshot_end = stack.snapshot()
            stack.close()
            stack = None
            # The clock has stopped: compare with the oracle.
            check_phase(run.closed, frames, oracle, counts, seed, known)
            if run.opened is not None:
                check_phase(run.opened, frames, oracle, counts, seed + 1, known)

        # Warm starts: the same files, the plan cache now primed.
        last_cache = os.path.join(workdir, f"cache-{spec.setup_repeats - 1}")
        for _ in range(spec.warm_starts):
            was_hit = has_artifact(last_cache)
            warm_stack, _t0, first_ms = start(
                spec, model, last_cache, warm_frames[0], first_expected, counts
            )
            warm_stack.close()
            warm_stack = None
            counts.add(was_hit, "plan cache was not primed for the warm start")
            run.warm_ms.append(first_ms)
        if probe is not None:
            probe(run, workdir)
        return run
    finally:
        if stack is not None:
            stack.close()
        shutil.rmtree(workdir, ignore_errors=True)
