"""Inference micro-benchmarks — ``repro bench`` / ``repro serve-bench``.

Times the end-to-end batched forward pass (frames/sec at several batch
sizes), the per-layer costs of a single-frame pass, and the vectorized
acc16 first-layer GEMM against its per-K-step oracle loop.  Results are
emitted as JSON (``BENCH_inference.json``) so runs can be diffed across
commits; wall-clock numbers are taken as the *minimum* over repeats, the
usual micro-benchmark noise floor.

The *serve* scenario (:func:`bench_serve`) drives the request-driven
:mod:`repro.serve` server with a seeded open-loop arrival process and
reports the server's metrics snapshot (shed count, batch-size histogram,
latency percentiles, throughput) in the same JSON schema.

This is a host-side throughput harness for the reproduction's numpy
substrate — it complements (and does not replace) the calibrated A53/NEON
time model of :mod:`repro.neon.timing`, which models the embedded target.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.gemm import gemm_i8_acc16, gemm_i8_acc16_reference
from repro.core.tensor import FeatureMap, FeatureMapBatch

#: Tincy YOLO's first-layer GEMM geometry: 16x27 weights against one column
#: per output pixel of the 416x416 input (52*52*16 = padded-conv positions).
ACC16_BENCH_M = 16
ACC16_BENCH_K = 27
ACC16_BENCH_N = 43264


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of *fn* over *repeats* calls (noise floor)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_batches(
    network,
    batch_sizes: Sequence[int] = (1, 4, 16),
    repeats: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> List[Dict]:
    """Frames/sec of :meth:`Network.forward_batch` at each batch size."""
    rng = rng or np.random.default_rng(0)
    results = []
    frames = [
        FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
        for _ in range(max(batch_sizes))
    ]
    # Warm the packed-weight / folded-threshold caches outside the clock.
    network.forward(frames[0])
    for batch in batch_sizes:
        fmb = FeatureMapBatch.from_maps(frames[:batch])
        # One untimed pass per batch size: the arena grows its buffers to
        # this shape's working set outside the clock, so the timed runs
        # measure steady-state recycling, not first-touch allocation.
        network.forward_batch(fmb)
        seconds = _best_of(lambda: network.forward_batch(fmb), repeats)
        results.append(
            {
                "batch": int(batch),
                "seconds": seconds,
                "frames_per_second": batch / seconds,
            }
        )
    return results


def bench_per_layer(
    network,
    repeats: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> List[Dict]:
    """Single-frame per-step milliseconds via the VM (min over repeats).

    Runs a batch of 1 through the network's instrumented ``-O1`` VM — one
    whole instruction per layer, with liveness — and reports, per step,
    the best wall time plus the resource tag, per-frame op count, and
    output-buffer bytes.
    """
    rng = rng or np.random.default_rng(0)
    x = FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
    fmb = FeatureMapBatch(x.data[np.newaxis, ...], x.scale)
    vm = network.vm(1)
    best: Optional[List[float]] = None
    for _ in range(max(1, repeats)):
        vm.run(fmb)
        report = vm.last_report
        walls = [stats.wall_s for stats in report.steps]
        best = walls if best is None else [min(a, b) for a, b in zip(best, walls)]
    return [
        {
            "index": stats.index,
            "type": stats.ltype,
            "resource": stats.resource,
            "ms": best[position] * 1e3,
            "ops": stats.ops,
            "out_bytes": stats.out_bytes,
        }
        for position, stats in enumerate(report.steps)
    ]


def bench_plan(network, per_layer_rows: Optional[List[Dict]] = None) -> Dict:
    """The compiled plan's memory story for the bench JSON.

    Reports the liveness-scheduled high-water versus the keep-everything
    footprint the legacy walk loops used to hold, and embeds the per-step
    rows (timings included when the caller already measured them).
    """
    plan = network.plan()
    peak = plan.peak_live_bytes()
    total = plan.total_buffer_bytes()
    return {
        "steps": len(plan),
        "fabric_steps": len(plan.fabric_steps()),
        "peak_live_bytes_per_frame": peak,
        "total_buffer_bytes_per_frame": total,
        "liveness_savings": 1.0 - peak / total,
        "per_step": per_layer_rows if per_layer_rows is not None else [],
    }


def bench_acc16_kernel(
    batch: int = 16,
    repeats: int = 2,
    m: int = ACC16_BENCH_M,
    k: int = ACC16_BENCH_K,
    n: int = ACC16_BENCH_N,
    rng: Optional[np.random.Generator] = None,
) -> Dict:
    """Vectorized acc16 GEMM (one stacked batch) vs the oracle per-frame loop.

    Operand distribution mirrors the zero-point-free first-layer regime:
    symmetric signed int8 weights, unsigned uint8 image columns.
    """
    rng = rng or np.random.default_rng(0)
    a = rng.integers(-127, 128, size=(m, k)).astype(np.int64)
    frames = [
        rng.integers(0, 256, size=(k, n)).astype(np.int64) for _ in range(batch)
    ]
    stacked = np.concatenate(frames, axis=1)

    vec_seconds = _best_of(lambda: gemm_i8_acc16(a, stacked), repeats)

    def reference_loop():
        for frame in frames:
            gemm_i8_acc16_reference(a, frame)

    ref_seconds = _best_of(reference_loop, max(1, repeats))
    # Consistency gate: the two paths must agree bit-for-bit on one frame.
    vec_acc, vec_events = gemm_i8_acc16(a, frames[0])
    ref_acc, ref_events = gemm_i8_acc16_reference(a, frames[0])
    if not (np.array_equal(vec_acc, ref_acc) and vec_events == ref_events):
        raise AssertionError("vectorized acc16 GEMM diverged from the oracle")
    return {
        "m": m,
        "k": k,
        "n_per_frame": n,
        "batch": batch,
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
    }


def bench_plan_cache(
    network, name: str = "bench", repeats: int = 3
) -> Dict:
    """Cold-start economics of the content-addressed plan cache.

    Times the three ways a process can come up with an executable
    schedule: compile the plan in-process (what a cache miss pays on top
    of storing the artifact), load + decode the cached ``.rpb`` artifact
    (the warm path), and bind the decoded program back to the network's
    layers (paid on both cache paths).  All figures are minima over
    *repeats* (the usual noise floor); the artifact size rides along so
    reports can track format growth.
    """
    import os
    import shutil
    import tempfile

    from repro import isa

    directory = tempfile.mkdtemp(prefix="repro-plan-cache-bench-")
    try:
        cache = isa.PlanCache(directory)
        miss_s = _best_of(
            lambda: isa.frontend(network, name=name), max(1, repeats)
        )
        program, hit = cache.get_or_compile(network, name=name)
        key = isa.plan_cache_key(
            name,
            program.weights_sha256,
            program.cfg_sha256,
            opt_level=program.opt_level,
        )
        artifact_bytes = os.path.getsize(cache.path_for(key))
        hit_s = _best_of(
            lambda: cache.get_or_compile(network, name=name), max(1, repeats)
        )
        bind_s = _best_of(
            lambda: isa.PlanVM(program, network), max(1, repeats)
        )
        return {
            "key": key,
            "artifact_bytes": int(artifact_bytes),
            "instructions": len(program),
            "compile_ms": miss_s * 1e3,
            "cache_hit_ms": hit_s * 1e3,
            "vm_bind_ms": bind_s * 1e3,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def bench_passes(
    network,
    name: str = "bench",
    repeats: int = 2,
    frames: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> Dict:
    """The optimizer's payoff, per ``-O`` level, for the bench JSON.

    For each level: compile time (min over repeats), instruction and
    compute-instruction counts, the peak-live-element high-water of the
    instruction stream, pre-pack constant count, the applied pass list,
    and measured PlanVM throughput on a small random batch.  The summary
    fields quantify the ``-O2`` vs ``-O0`` contract the regression check
    asserts on: strictly fewer compute instructions, strictly lower peak
    liveness, and at least parity throughput.
    """
    from repro import isa

    rng = rng or np.random.default_rng(0)
    batch = rng.uniform(
        0.0, 1.0, size=(max(1, frames),) + tuple(network.input_shape)
    ).astype(np.float32)
    levels: List[Dict] = []
    by_level: Dict[int, Dict] = {}
    for level in sorted(isa.PIPELINES):
        compile_s = _best_of(
            lambda: isa.compile_network(network, name=name, level=level),
            max(1, repeats),
        )
        program, stats = isa.compile_network(network, name=name, level=level)
        vm = isa.PlanVM(program, network)
        vm.run(FeatureMapBatch(batch.copy()))  # warm caches off the clock
        seconds = _best_of(
            lambda: vm.run(FeatureMapBatch(batch.copy())), max(1, repeats)
        )
        entry = {
            "level": int(level),
            "passes": list(program.passes),
            "compile_ms": compile_s * 1e3,
            "instructions": len(program),
            "compute_instructions": sum(
                1 for _ in program.compute_instructions()
            ),
            "peak_live_elements": int(isa.peak_live_elements(program)),
            "constants": len(program.constants),
            "frames_per_second": batch.shape[0] / seconds,
            "pass_stats": [s.summary() for s in stats],
        }
        levels.append(entry)
        by_level[level] = entry
    o0 = by_level[min(by_level)]
    o2 = by_level[max(by_level)]
    return {
        "frames": int(batch.shape[0]),
        "levels": levels,
        "o0_fps": o0["frames_per_second"],
        "o2_fps": o2["frames_per_second"],
        "instructions_eliminated": o0["instructions"] - o2["instructions"],
        "compute_instructions_eliminated": (
            o0["compute_instructions"] - o2["compute_instructions"]
        ),
        "peak_live_elements_saved": (
            o0["peak_live_elements"] - o2["peak_live_elements"]
        ),
    }


def bench_serve(
    network,
    requests: int = 64,
    arrival_rate_hz: Optional[float] = None,
    max_batch: int = 8,
    max_delay_s: Optional[float] = None,
    queue_depth: int = 32,
    cpu_workers: int = 2,
    seed: int = 0,
    result_timeout_s: float = 120.0,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    plan_cache_dir: Optional[str] = None,
) -> Dict:
    """Serving scenario: drive an :class:`InferenceServer` open loop.

    An open-loop arrival process submits *requests* frames on a schedule
    drawn once from a seeded RNG (exponential inter-arrival gaps at
    *arrival_rate_hz*; ``None`` means back-to-back submission with no
    sleeping at all, which is what the tests use — no wall-clock
    dependence).  Arrivals never wait for completions, so overload is
    possible by design: shed requests are counted, accepted ones are
    awaited, and the server's full metrics snapshot lands in the report.
    *max_delay_s* ``None`` means :class:`~repro.serve.ServeConfig`'s own
    batch deadline.

    *faults*, when given, is a :meth:`repro.faults.FaultPlan.parse` spec
    (e.g. ``"fabric-raise@0,3;fabric-corrupt%0.1"``) installed for the
    duration of the run; the report then carries a ``faults`` section with
    the plan and the deterministic transcript of fired events — the
    resilience metrics under ``metrics.resilience`` show how serving
    absorbed them.

    The server starts from a warmed content-addressed plan cache
    (*plan_cache_dir*, or an ephemeral temp directory removed after the
    run), so the report's ``metrics.plan_cache`` section shows the
    warm-start story production restarts see: ``plan_cache_hit: true``
    plus the measured ``cold_start_ms``.
    """
    import shutil
    import tempfile
    from contextlib import ExitStack

    from repro import faults as faults_mod
    from repro.isa import PlanCache
    from repro.serve import InferenceServer, Overloaded, ServeConfig
    from repro.util.rng import new_rng

    if requests < 1:
        raise ValueError("need at least one request")
    rng = new_rng(seed)
    # A small rotation of distinct frames keeps memory bounded at high
    # request counts while still exercising distinct inputs.
    distinct = [
        FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
        for _ in range(min(requests, 8))
    ]
    gaps = None
    if arrival_rate_hz is not None:
        if arrival_rate_hz <= 0:
            raise ValueError("arrival_rate_hz must be positive")
        gaps = rng.exponential(1.0 / arrival_rate_hz, size=requests)
    cache_dir = plan_cache_dir
    ephemeral = cache_dir is None
    if ephemeral:
        cache_dir = tempfile.mkdtemp(prefix="repro-serve-bench-cache-")
    # Warm the cache before the measured server comes up, so the server's
    # cold start is the warm-restart path (artifact load, not compile).
    PlanCache(cache_dir).get_or_compile(network, name="serve-bench")
    if max_delay_s is None:
        max_delay_s = ServeConfig.max_delay_s
    config = ServeConfig(
        max_queue_depth=queue_depth,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        cpu_workers=cpu_workers,
        plan_cache_dir=cache_dir,
        plan_cache_name="serve-bench",
    )
    futures = []
    plan = None
    injector = None
    with ExitStack() as stack:
        if ephemeral:
            stack.callback(shutil.rmtree, cache_dir, ignore_errors=True)
        if faults:
            plan = faults_mod.FaultPlan.parse(faults, seed=fault_seed)
            injector = stack.enter_context(faults_mod.install(plan))
        server = stack.enter_context(InferenceServer(network, config))
        start = time.perf_counter()
        for index in range(requests):
            if gaps is not None and gaps[index] > 0:
                time.sleep(gaps[index])
            try:
                futures.append(server.submit(distinct[index % len(distinct)]))
            except Overloaded:
                pass  # counted by the server's metrics registry
        for future in futures:
            future.result(result_timeout_s)
        wall = time.perf_counter() - start
        snapshot = server.metrics.snapshot()
    report = {
        "requests": int(requests),
        "arrival_rate_hz": arrival_rate_hz,
        "max_batch": int(max_batch),
        "max_delay_ms": max_delay_s * 1e3,
        "queue_depth_limit": int(queue_depth),
        "cpu_workers": int(cpu_workers),
        "seed": int(seed),
        "plan_cache_dir": plan_cache_dir,
        "wall_seconds": wall,
        "metrics": snapshot,
    }
    if injector is not None:
        report["faults"] = {
            "spec": faults,
            "seed": int(fault_seed),
            "plan": plan.describe(),
            "events": [list(event) for event in injector.events()],
        }
    return report


def default_chaos_plan(requests: int, seed: int = 0):
    """The ``--chaos`` fault plan, scaled to the request count.

    One shard kill early (permanent — the fleet must absorb it for the
    rest of the run), periodic shard-slow events (sub-millisecond stalls,
    well under the heartbeat timeout so slowness is never mistaken for a
    hang), and periodic router splits that heal after ``span`` ticks.
    All selectors are explicit ``at`` indices, so the transcript is a
    pure function of the submission sequence.
    """
    from repro import faults as faults_mod

    kill_at = max(1, requests // 50)
    slow_every = max(2, requests // 8)
    split_every = max(3, requests // 6)
    return faults_mod.FaultPlan(
        [
            faults_mod.FaultSpec("shard-kill", at=(kill_at,)),
            faults_mod.FaultSpec(
                "shard-slow",
                at=tuple(range(slow_every, requests, slow_every)),
                hang_s=0.0005,
                span=16,
            ),
            faults_mod.FaultSpec(
                "router-split",
                at=tuple(range(split_every, requests, split_every)),
                span=64,
            ),
        ],
        seed=seed,
    )


def bench_serve_shard(
    network,
    shards: int = 4,
    requests: Optional[int] = None,
    chaos: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    seed: int = 0,
    result_cache: int = 1024,
    max_in_flight: int = 64,
    quota_rps: Optional[float] = None,
    p99_slo_ms: float = 50.0,
    degraded_slo: float = 0.05,
    plan_cache_dir: Optional[str] = None,
    result_timeout_s: float = 120.0,
    distinct_frames: int = 64,
    verify: bool = True,
) -> Dict:
    """Shard-tier scenario: drive a :class:`ShardedServer` closed loop.

    *requests* defaults to 100 000 under ``--chaos`` (the SLO
    certification run) and 64 otherwise.  A rotation of
    *distinct_frames* distinct inputs exercises the consistent-hash
    placement and makes the LRU result cache + coalescing earn their
    keep — exactly the duplicate-heavy shape of real camera traffic.

    With *chaos* (or an explicit *faults* spec) a seeded
    :class:`~repro.faults.FaultPlan` drives the fleet sites
    (``shard.kill`` / ``shard.slow`` / ``router.split``); the report
    embeds the full fault transcript plus its sha256, and two runs of
    the same plan produce identical transcripts.  The ``slo`` section
    gates the run: p99 latency and the degraded fraction
    ((reroutes + inline fallbacks + fallback routes) / completed) must
    both hold, and ``repro serve-bench`` exits non-zero when they don't.

    With *verify* the report also carries the bit-identity check: every
    distinct frame's served result is compared byte-for-byte against
    ``network.forward_batch`` — the shard tier may change *where* a
    frame is computed (including across a mid-run shard kill), never
    *what* it returns.
    """
    import hashlib
    import shutil
    import tempfile
    from contextlib import ExitStack

    from repro import faults as faults_mod
    from repro.core.tensor import FeatureMapBatch
    from repro.isa import PlanCache
    from repro.serve import Overloaded, ShardedServer, ShardTierConfig
    from repro.util.rng import new_rng

    if requests is None:
        requests = 100_000 if chaos else 64
    if requests < 1:
        raise ValueError("need at least one request")
    rng = new_rng(seed)
    distinct = [
        FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
        for _ in range(max(1, min(requests, distinct_frames)))
    ]
    cache_dir = plan_cache_dir
    ephemeral = cache_dir is None
    if ephemeral:
        cache_dir = tempfile.mkdtemp(prefix="repro-shard-bench-cache-")
    PlanCache(cache_dir).warm(network, name="serve-bench")
    config = ShardTierConfig(
        shards=shards,
        max_in_flight=max_in_flight,
        quota_rps=quota_rps,
        result_cache=result_cache,
        plan_cache_dir=cache_dir,
        plan_cache_name="serve-bench",
    )
    plan = None
    injector = None
    if faults:
        plan = faults_mod.FaultPlan.parse(faults, seed=fault_seed)
    elif chaos:
        plan = default_chaos_plan(requests, seed=fault_seed)
    first_outputs: Dict[int, FeatureMap] = {}
    shed = 0
    with ExitStack() as stack:
        if ephemeral:
            stack.callback(shutil.rmtree, cache_dir, ignore_errors=True)
        if plan is not None:
            injector = stack.enter_context(faults_mod.install(plan))
        server = stack.enter_context(ShardedServer(network, config))
        start = time.perf_counter()
        for index in range(requests):
            frame_index = index % len(distinct)
            try:
                future = server.submit(distinct[frame_index])
            except Overloaded:
                shed += 1  # also counted by the server's metrics
                continue
            out = future.result(result_timeout_s)
            if verify and frame_index not in first_outputs:
                first_outputs[frame_index] = out
        wall = time.perf_counter() - start
        snapshot = server.snapshot()
    tier = snapshot["shard_tier"]
    completed = max(1, snapshot["completed"])
    degraded = tier["reroutes"] + tier["inline_fallbacks"] + tier["fallback_routes"]
    degraded_fraction = degraded / completed
    p99_ms = (snapshot["latency"] or {}).get("p99_ms")
    slo = {
        "p99_ms": p99_ms,
        "p99_slo_ms": p99_slo_ms,
        "degraded_fraction": degraded_fraction,
        "degraded_slo": degraded_slo,
        "ok": (p99_ms is not None and p99_ms <= p99_slo_ms)
        and degraded_fraction <= degraded_slo,
    }
    report = {
        "shards": int(shards),
        "requests": int(requests),
        "distinct_frames": len(distinct),
        "seed": int(seed),
        "plan_cache_dir": plan_cache_dir,
        "wall_seconds": wall,
        "throughput_rps": requests / wall if wall > 0 else None,
        "shed_at_submit": shed,
        "metrics": snapshot,
        "slo": slo,
    }
    if verify:
        expected = network.forward_batch(FeatureMapBatch.from_maps(distinct))
        mismatches = [
            index
            for index, out in sorted(first_outputs.items())
            if not (
                np.array_equal(expected.frame(index).data, out.data)
                and float(expected.frame(index).scale) == float(out.scale)
            )
        ]
        report["bit_identical"] = not mismatches
        report["bit_identity_mismatches"] = mismatches
    if injector is not None:
        events = injector.events()
        report["faults"] = {
            "spec": faults,
            "chaos": bool(chaos),
            "seed": int(fault_seed),
            "plan": plan.describe(),
            "events": [list(event) for event in events],
            "transcript_sha256": hashlib.sha256(
                repr(events).encode()
            ).hexdigest(),
        }
    return report


#: Valid values of ``run_bench(scenario=...)`` / ``repro bench --scenario``.
SCENARIOS = ("inference", "serve", "all")


def _zoo_network(network_name: str, seed: int):
    from repro.nn import zoo
    from repro.nn.network import Network

    factories = {
        "tiny": zoo.tiny_yolo_config,
        "tincy": zoo.tincy_yolo_config,
        "mlp4": zoo.mlp4_config,
        "cnv6": zoo.cnv6_config,
    }
    if network_name not in factories:
        raise ValueError(
            f"unknown network '{network_name}' "
            f"(choose from {sorted(factories)})"
        )
    network = Network(factories[network_name]())
    network.initialize(np.random.default_rng(seed))
    return network


#: The small-frame network of the report's ``scaling`` section.  At Tincy
#: YOLO's 416x416 input the per-frame working set exceeds the last-level
#: cache, so batched throughput on the memory-bound host is flat by physics;
#: batching pays where per-call overhead dominates — small frames.  The
#: scaling entry measures exactly that regime, and the regression check
#: asserts on it.
SCALING_NETWORK = "cnv6"
SCALING_BATCH_SIZES = (1, 16)


def run_bench(
    network_name: str = "tincy",
    batch_sizes: Sequence[int] = (1, 4, 16),
    repeats: int = 2,
    kernel_batch: int = 16,
    skip_network: bool = False,
    skip_kernel: bool = False,
    seed: int = 0,
    scaling_network: Optional[str] = SCALING_NETWORK,
    scenario: str = "inference",
    serve_requests: int = 64,
    serve_arrival_hz: Optional[float] = None,
    serve_max_batch: int = 8,
    serve_max_delay_s: Optional[float] = None,
    serve_queue_depth: int = 32,
    serve_cpu_workers: int = 2,
    serve_faults: Optional[str] = None,
    serve_fault_seed: int = 0,
    serve_plan_cache_dir: Optional[str] = None,
) -> Dict:
    """Full harness: inference scenario, serving scenario, or both.

    One entry point, one JSON schema: the inference sections
    (``batches``/``per_layer_ms``/``acc16_kernel``) and the serving
    section (``serve``) live side by side in the same report dict.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{scenario}' (choose from {SCENARIOS})")
    report: Dict = {
        "scenario": scenario,
        "batch_sizes": [int(b) for b in batch_sizes],
        "repeats": int(repeats),
    }
    network = None
    if (scenario in ("inference", "all") and not skip_network) or scenario in (
        "serve",
        "all",
    ):
        network = _zoo_network(network_name, seed)
        report["network"] = network_name
        report["input_shape"] = [int(v) for v in network.input_shape]
    if scenario in ("inference", "all"):
        if not skip_network:
            report["batches"] = bench_batches(
                network, batch_sizes, repeats, rng=np.random.default_rng(seed)
            )
            report["per_layer_ms"] = bench_per_layer(
                network, repeats, rng=np.random.default_rng(seed)
            )
            report["plan"] = bench_plan(network, report["per_layer_ms"])
            report["plan_cache"] = bench_plan_cache(
                network, name=network_name, repeats=max(repeats, 3)
            )
            report["bench_passes"] = bench_passes(
                network, name=network_name, repeats=repeats,
                rng=np.random.default_rng(seed),
            )
            if scaling_network and scaling_network != network_name:
                small = _zoo_network(scaling_network, seed)
                # Tiny frames, so extra repeats cost nothing and keep the
                # committed speedup figure off the timer noise floor.
                scaling_repeats = max(repeats, 5)
                report["scaling"] = {
                    "network": scaling_network,
                    "input_shape": [int(v) for v in small.input_shape],
                    "batch_sizes": [int(b) for b in SCALING_BATCH_SIZES],
                    "batches": bench_batches(
                        small, SCALING_BATCH_SIZES, scaling_repeats,
                        rng=np.random.default_rng(seed),
                    ),
                    "per_layer_ms": bench_per_layer(
                        small, scaling_repeats, rng=np.random.default_rng(seed)
                    ),
                }
        if not skip_kernel:
            report["acc16_kernel"] = bench_acc16_kernel(
                batch=kernel_batch, repeats=repeats,
                rng=np.random.default_rng(seed),
            )
    if scenario in ("serve", "all"):
        report["serve"] = bench_serve(
            network,
            requests=serve_requests,
            arrival_rate_hz=serve_arrival_hz,
            max_batch=serve_max_batch,
            max_delay_s=serve_max_delay_s,
            queue_depth=serve_queue_depth,
            cpu_workers=serve_cpu_workers,
            seed=seed,
            faults=serve_faults,
            fault_seed=serve_fault_seed,
            plan_cache_dir=serve_plan_cache_dir,
        )
    return report


def _pool_violations(rows: List[Dict], label: str = "") -> List[str]:
    """First maxpool step vs its nearest preceding conv step."""
    pool_pos = next(
        (i for i, r in enumerate(rows) if r["type"] == "maxpool"), None
    )
    if pool_pos is None:
        return []
    conv_row = next(
        (
            rows[i]
            for i in range(pool_pos - 1, -1, -1)
            if rows[i]["type"] == "convolutional"
        ),
        None,
    )
    pool_row = rows[pool_pos]
    if conv_row is None or pool_row["ms"] <= conv_row["ms"]:
        return []
    return [
        f"maxpool step #{pool_row['index']}{label} costs "
        f"{pool_row['ms']:.2f} ms > preceding conv step #{conv_row['index']} "
        f"({conv_row['ms']:.2f} ms) — pooling must not out-cost a GEMM"
    ]


def _speedup_violations(
    batches: List[Dict], min_batch_speedup: float, label: str = ""
) -> List[str]:
    """Largest-batch throughput vs batch-1, against the speedup floor."""
    by_batch = {int(row["batch"]): row["frames_per_second"] for row in batches}
    base = by_batch.get(1)
    if not by_batch or not base:
        return []
    largest = max(by_batch)
    if largest <= 1:
        return []
    speedup = by_batch[largest] / base
    if speedup >= min_batch_speedup:
        return []
    return [
        f"batch {largest}{label} reaches only {speedup:.2f}x the batch-1 "
        f"throughput ({by_batch[largest]:.2f} vs {base:.2f} "
        f"frames/s); need >= {min_batch_speedup:.2f}x"
    ]


def _floor_violations(
    batches: List[Dict], min_batch_floor: float, label: str = ""
) -> List[str]:
    """No benched batch size may fall below *min_batch_floor* x batch-1."""
    by_batch = {int(row["batch"]): row["frames_per_second"] for row in batches}
    base = by_batch.get(1)
    if not base:
        return []
    violations = []
    for batch in sorted(by_batch):
        if batch == 1:
            continue
        ratio = by_batch[batch] / base
        if ratio < min_batch_floor:
            violations.append(
                f"batch {batch}{label} falls to {ratio:.2f}x the batch-1 "
                f"throughput ({by_batch[batch]:.2f} vs {base:.2f} "
                f"frames/s); batching overhead must not cost more than "
                f"{1.0 - min_batch_floor:.0%} (floor {min_batch_floor:.2f}x)"
            )
    return violations


def check_inference_regressions(
    report: Dict,
    min_batch_speedup: float = 1.3,
    min_batch_floor: float = 0.8,
    min_o2_fps_ratio: float = 1.0,
) -> List[str]:
    """Regression assertions over an inference bench report.

    Returns human-readable violations (empty list = pass):

    * the first maxpool step must not cost more per frame than the conv
      step right before it — the dtype-preserving pool kernel is K*K
      comparisons and must stay cheaper than a conv GEMM — in the main
      per-layer table *and* in the ``scaling`` entry's table;
    * batching must pay in the per-call-overhead regime it can pay in:
      frames/s at the largest benched batch must reach at least
      *min_batch_speedup* x the batch-1 figure on the small-frame
      ``scaling`` entry (falling back to the top-level ``batches`` rows
      when a report carries no scaling section).  The top-level Tincy
      416x416 rows are not held to the speedup bar — at that working set
      the host is memory-bound and flat scaling is physics, not a
      regression — but they *are* held to a floor:
    * no batch size may fall below *min_batch_floor* x the batch-1
      throughput on the top-level rows.  Flat is physics; markedly
      *slower* than unbatched means the batched path is paying avoidable
      per-batch overhead (allocation, repacking) and is a regression;
    * the ``bench_passes`` section must show ``-O2`` strictly
      eliminating compute instructions and peak-live buffer elements
      versus ``-O0``, at no less than *min_o2_fps_ratio* x the ``-O0``
      throughput — the optimizer has to pay for itself.

    ``repro bench --check`` fails the run on any violation, and the test
    suite applies the same assertions to the committed bench JSON.
    """
    violations: List[str] = []
    violations += _pass_violations(
        report.get("bench_passes") or {}, min_o2_fps_ratio
    )
    violations += _pool_violations(report.get("per_layer_ms") or [])
    violations += _floor_violations(
        report.get("batches") or [], min_batch_floor
    )
    scaling = report.get("scaling") or {}
    if scaling:
        label = f" [{scaling.get('network', 'scaling')}]"
        violations += _pool_violations(
            scaling.get("per_layer_ms") or [], label
        )
        violations += _speedup_violations(
            scaling.get("batches") or [], min_batch_speedup, label
        )
    else:
        violations += _speedup_violations(
            report.get("batches") or [], min_batch_speedup
        )
    return violations


def _pass_violations(section: Dict, min_o2_fps_ratio: float) -> List[str]:
    """The optimizer's payoff contract over a ``bench_passes`` section.

    ``-O2`` must execute strictly fewer compute instructions and hold a
    strictly lower peak-live-element high-water than ``-O0``, and its
    measured throughput must not fall below *min_o2_fps_ratio* x the
    ``-O0`` figure (fusion and liveness must never make inference
    slower).
    """
    if not section:
        return []
    violations = []
    if section.get("compute_instructions_eliminated", 0) <= 0:
        violations.append(
            "-O2 does not execute strictly fewer compute instructions "
            "than -O0 (the fuse/fold passes eliminated nothing)"
        )
    if section.get("peak_live_elements_saved", 0) <= 0:
        violations.append(
            "-O2 does not allocate fewer peak-live buffer elements than "
            "-O0 (the liveness pass saved nothing)"
        )
    o0_fps = section.get("o0_fps")
    o2_fps = section.get("o2_fps")
    if o0_fps and o2_fps and o2_fps < min_o2_fps_ratio * o0_fps:
        violations.append(
            f"-O2 throughput {o2_fps:.2f} frames/s falls below "
            f"{min_o2_fps_ratio:.2f}x the -O0 figure ({o0_fps:.2f} "
            f"frames/s) — the pass pipeline must not cost throughput"
        )
    return violations


def write_report(report: Dict, path: str) -> None:
    """Write a bench *report* dict as indented JSON to *path*."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def format_report(report: Dict) -> str:
    """Human-readable summary of a bench report."""
    lines = []
    if "batches" in report:
        lines.append(
            f"network {report['network']} "
            f"(input {tuple(report['input_shape'])}):"
        )
        for row in report["batches"]:
            lines.append(
                f"  batch {row['batch']:3d}: "
                f"{row['frames_per_second']:8.2f} frames/s "
                f"({row['seconds'] * 1e3:8.1f} ms/batch)"
            )
        slowest = sorted(
            report["per_layer_ms"], key=lambda r: r["ms"], reverse=True
        )[:5]
        lines.append("  slowest layers (single frame):")
        for row in slowest:
            lines.append(
                f"    #{row['index']:2d} {row['type']:<14s} {row['ms']:8.2f} ms"
            )
    if "scaling" in report:
        scaling = report["scaling"]
        lines.append(
            f"scaling entry {scaling['network']} "
            f"(input {tuple(scaling['input_shape'])}, small-frame batching):"
        )
        by_batch = {}
        for row in scaling["batches"]:
            by_batch[int(row["batch"])] = row["frames_per_second"]
            lines.append(
                f"  batch {row['batch']:3d}: "
                f"{row['frames_per_second']:8.2f} frames/s "
                f"({row['seconds'] * 1e3:8.1f} ms/batch)"
            )
        if by_batch.get(1) and max(by_batch) > 1:
            lines.append(
                f"  batching speedup: "
                f"{by_batch[max(by_batch)] / by_batch[1]:.2f}x "
                f"at batch {max(by_batch)}"
            )
    if "plan" in report:
        plan = report["plan"]
        lines.append(
            f"  plan: {plan['steps']} steps "
            f"({plan['fabric_steps']} fabric), live high-water "
            f"{plan['peak_live_bytes_per_frame'] / 1024:.0f} KiB/frame vs "
            f"{plan['total_buffer_bytes_per_frame'] / 1024:.0f} KiB "
            f"keep-everything ({plan['liveness_savings']:.0%} released early)"
        )
    if "plan_cache" in report:
        cache = report["plan_cache"]
        lines.append(
            f"  plan cache: {cache['artifact_bytes']} B artifact "
            f"({cache['instructions']} instructions), compile "
            f"{cache['compile_ms']:.1f} ms vs cached load "
            f"{cache['cache_hit_ms']:.1f} ms "
            f"(+ {cache['vm_bind_ms']:.1f} ms VM bind)"
        )
    if "bench_passes" in report:
        passes = report["bench_passes"]
        lines.append("  optimizer levels (PlanVM, "
                     f"{passes['frames']} frames):")
        for entry in passes["levels"]:
            lines.append(
                f"    -O{entry['level']}: "
                f"{entry['compute_instructions']:3d} compute instrs, "
                f"peak {entry['peak_live_elements']:>10,} elems, "
                f"compile {entry['compile_ms']:6.1f} ms, "
                f"{entry['frames_per_second']:8.2f} frames/s"
            )
        lines.append(
            f"    -O2 vs -O0: "
            f"{passes['compute_instructions_eliminated']} compute "
            f"instr(s) eliminated, "
            f"{passes['peak_live_elements_saved']:,} peak-live elems "
            f"saved, {passes['o2_fps'] / passes['o0_fps']:.2f}x throughput"
        )
    if "acc16_kernel" in report:
        kernel = report["acc16_kernel"]
        lines.append(
            f"acc16 GEMM {kernel['m']}x{kernel['k']} @ "
            f"{kernel['n_per_frame']} cols x {kernel['batch']} frames: "
            f"{kernel['speedup']:.2f}x over the per-frame oracle loop "
            f"({kernel['vectorized_seconds'] * 1e3:.1f} ms vs "
            f"{kernel['reference_seconds'] * 1e3:.1f} ms)"
        )
    if "serve" in report:
        serve = report["serve"]
        metrics = serve["metrics"]
        rate = serve["arrival_rate_hz"]
        lines.append(
            f"serving {serve['requests']} requests "
            f"({'back-to-back' if rate is None else f'{rate:g} req/s open loop'}, "
            f"max batch {serve['max_batch']}, "
            f"deadline {serve['max_delay_ms']:g} ms): "
            f"accepted {metrics['accepted']}, shed {metrics['shed']}"
        )
        cold = metrics.get("plan_cache") or {}
        if cold.get("cold_start_ms") is not None:
            lines.append(
                f"  cold start {cold['cold_start_ms']:7.2f} ms "
                f"({cold['plan_source']})"
            )
        throughput = metrics.get("throughput_rps")
        if throughput:
            lines.append(f"  throughput {throughput:8.2f} req/s")
        latency = metrics.get("latency")
        if latency:
            lines.append(
                f"  latency p50 {latency['p50_ms']:7.2f} ms  "
                f"p95 {latency['p95_ms']:7.2f} ms  "
                f"p99 {latency['p99_ms']:7.2f} ms"
            )
        causes = ", ".join(
            f"{cause}={count}"
            for cause, count in metrics["flush_causes"].items()
        )
        sizes = ", ".join(
            f"{size}x{count}"
            for size, count in metrics["batch_histogram"].items()
        )
        lines.append(f"  flushes: {causes or 'none'}; batch sizes: {sizes or 'none'}")
        if "faults" in serve:
            resilience = metrics["resilience"]
            failures = ", ".join(
                f"{kind}={count}"
                for kind, count in resilience["fabric_failures"].items()
            )
            lines.append(
                f"  faults: {len(serve['faults']['events'])} injected "
                f"({serve['faults']['spec']}); failures: {failures or 'none'}"
            )
            lines.append(
                f"  resilience: retries {resilience['fabric_retries']}, "
                f"breaker trips {resilience['breaker_trips']} "
                f"(state {resilience['breaker_state']}), degraded "
                f"{resilience['degraded_inferences']} inference(s), "
                f"worker deaths {resilience['worker_deaths']}"
            )
    return "\n".join(lines)


__all__ = [
    "bench_batches",
    "bench_per_layer",
    "bench_plan",
    "bench_acc16_kernel",
    "bench_plan_cache",
    "bench_passes",
    "bench_serve",
    "bench_serve_shard",
    "default_chaos_plan",
    "SCENARIOS",
    "run_bench",
    "check_inference_regressions",
    "write_report",
    "format_report",
]
