"""The ``repro serve-bench`` load generator: one loop, one front door.

:func:`run_load` drives a :class:`~repro.serve.router.ShardedServer`
built from a :class:`~repro.serve.router.ShardTierConfig` — shard
processes, or with ``shards=0`` one engine in this process — and does
the rest once: the seeded rotation of distinct frames, the warmed plan
cache, the fault plan, the optional arrival gaps, and one report with
the SLO verdict, the bit-identity check and the fault transcript digest.

With shards, each result is awaited before the next submit, so a chaos
kill never finds a request in flight and the transcript is a pure
function of the submission sequence.  Without, everything is submitted
before waiting, which is what lets the engine's batches form.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from contextlib import ExitStack
from dataclasses import asdict, replace
from typing import Dict, List, Optional

import numpy as np

from repro import faults as faults_mod
from repro.core.tensor import FeatureMap
from repro.isa import PlanCache
from repro.serve.queue import Overloaded, RequestFuture
from repro.serve.router import ShardedServer, ShardTierConfig
from repro.util.rng import new_rng

#: How long the run waits on any one result before it fails.
RESULT_TIMEOUT_S = 120.0


def default_chaos_plan(requests: int, seed: int = 0) -> faults_mod.FaultPlan:
    """The ``--chaos`` fault plan, scaled to the request count.

    One shard kill early (permanent — the fleet must absorb it for the
    rest of the run), periodic shard-slow events (sub-millisecond stalls,
    well under the heartbeat timeout so slowness is never mistaken for a
    hang), and periodic router splits that heal after ``span`` ticks.
    All selectors are explicit ``at`` indices, so the transcript is a
    pure function of the submission sequence.
    """
    spec = faults_mod.FaultSpec
    slow, split = max(2, requests // 8), max(3, requests // 6)
    return faults_mod.FaultPlan(
        [
            spec("shard-kill", at=(max(1, requests // 50),)),
            spec("shard-slow", at=tuple(range(slow, requests, slow)),
                 hang_s=0.0005, span=16),
            spec("router-split", at=tuple(range(split, requests, split)), span=64),
        ],
        seed=seed,
    )


def run_load(
    network,
    config=None,
    requests: Optional[int] = None,
    arrival_hz: Optional[float] = None,
    faults: Optional[str] = None,
    chaos: bool = False,
    fault_seed: int = 0,
    seed: int = 0,
    distinct_frames: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    p99_slo_ms: float = 50.0,
    degraded_slo: float = 0.05,
) -> Dict:
    """Drive the front door *config* describes (default ``shards=0``).

    *requests* (default 100 000 under *chaos*, else 64) rotate through
    *distinct_frames* seeded frames (default 64); *arrival_hz* draws
    exponential gaps between submits, else they go back to back.
    *faults* is a ``FaultPlan.parse`` spec; *chaos* without it installs
    :func:`default_chaos_plan`.
    The server starts from a warmed plan cache (*plan_cache_dir*, or an
    ephemeral one), so its cold start is the warm-restart path.

    ``slo.ok`` holds when p99 latency is within *p99_slo_ms* and the
    degraded fraction — degraded inferences, reroutes, inline fallbacks
    and fallback routes over completed requests — within *degraded_slo*.
    ``bit_identical`` compares each distinct frame's first served result
    byte for byte with ``network.forward`` on that frame.
    """
    config = ShardTierConfig(shards=0) if config is None else config
    closed_loop = config.shards > 0
    if requests is None:
        requests = 100_000 if chaos else 64
    if requests < 1:
        raise ValueError("need at least one request")
    if arrival_hz is not None and arrival_hz <= 0:
        raise ValueError("arrival_hz must be positive")
    if distinct_frames is None:
        distinct_frames = 64
    rng = new_rng(seed)
    distinct = [
        FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
        for _ in range(min(requests, distinct_frames))
    ]
    gaps = rng.exponential(1.0 / arrival_hz, size=requests) if arrival_hz else None
    plan = faults_mod.FaultPlan.parse(faults, seed=fault_seed) if faults else None
    if plan is None and chaos:
        plan = default_chaos_plan(requests, seed=fault_seed)

    first: Dict[int, RequestFuture] = {}  # frame index -> first accepted
    in_flight: List[RequestFuture] = []
    shed = 0
    injector = None
    with ExitStack() as stack:
        cache_dir = plan_cache_dir
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-serve-bench-cache-")
            stack.callback(shutil.rmtree, cache_dir, ignore_errors=True)
        PlanCache(cache_dir).get_or_compile(network, name="serve-bench")
        if plan is not None:
            injector = stack.enter_context(faults_mod.install(plan))
        served = replace(config, plan_cache_dir=cache_dir, plan_cache_name="serve-bench")
        server = stack.enter_context(ShardedServer(network, served))
        start = time.perf_counter()
        for index in range(requests):
            if gaps is not None and gaps[index] > 0:
                time.sleep(gaps[index])
            frame_index = index % len(distinct)
            try:
                future = server.submit(distinct[frame_index])
            except Overloaded:
                shed += 1  # also counted by the server's metrics
                continue
            first.setdefault(frame_index, future)
            if closed_loop:
                future.result(RESULT_TIMEOUT_S)
            else:
                in_flight.append(future)
        for future in in_flight:
            future.result(RESULT_TIMEOUT_S)
        wall = time.perf_counter() - start
        snapshot = server.snapshot()

    tier = snapshot["shard_tier"]
    completed = snapshot["completed"]
    degraded = snapshot["resilience"]["degraded_inferences"] + sum(
        tier[key] for key in ("reroutes", "inline_fallbacks", "fallback_routes")
    )
    degraded_fraction = degraded / max(1, completed)
    p99_ms = (snapshot["latency"] or {}).get("p99_ms")
    mismatches = []
    for index, future in sorted(first.items()):
        want, got = network.forward(distinct[index]), future.result(RESULT_TIMEOUT_S)
        if not np.array_equal(want.data, got.data) or want.scale != got.scale:
            mismatches.append(index)
    report = {
        "shards": config.shards,
        "requests": int(requests),
        "distinct_frames": len(distinct),
        "arrival_hz": arrival_hz,
        "seed": int(seed),
        "config": asdict(replace(config, plan_cache_dir=plan_cache_dir)),
        "wall_seconds": wall,
        "throughput_rps": completed / wall,  # served requests, never shed ones
        "shed_at_submit": shed,
        "metrics": snapshot,
        "slo": {
            "p99_ms": p99_ms,
            "p99_slo_ms": p99_slo_ms,
            "degraded_fraction": degraded_fraction,
            "degraded_slo": degraded_slo,
            "ok": p99_ms is not None
            and p99_ms <= p99_slo_ms
            and degraded_fraction <= degraded_slo,
        },
        "bit_identical": not mismatches,
        "bit_identity_mismatches": mismatches,
    }
    if injector is not None:
        events = injector.events()
        report["faults"] = {
            "spec": faults,
            "chaos": bool(chaos),
            "seed": int(fault_seed),
            "plan": plan.describe(),
            "events": [list(event) for event in events],
            "transcript_sha256": hashlib.sha256(repr(events).encode()).hexdigest(),
        }
    return report


def _counts(histogram: Dict, sep: str = "=") -> str:
    return ", ".join(f"{key}{sep}{n}" for key, n in histogram.items()) or "none"


def format_report(report: Dict) -> str:
    """The human-readable summary of a :func:`run_load` report."""
    metrics = report["metrics"]
    tier = metrics["shard_tier"]
    res = metrics["resilience"]
    slo = report["slo"]
    shards = report["shards"]
    where = f"shard tier): {shards} shards, " if shards else "single process): "
    cold = ", ".join(
        f"{name} {info['cold_start_ms']:.2f} ms"
        for name, info in tier["cold_starts"].items()
    )
    lines = [
        f"serve-bench ({where}{report['requests']} requests in "
        f"{report['wall_seconds']:.2f}s ({report['throughput_rps']:.0f} req/s)",
        f"  completed: {metrics['completed']}  "
        f"cache hits: {tier['result_cache_hits']}  "
        f"coalesced: {tier['coalesced']}  shed: {metrics['shed']}",
        f"  deaths: {tier['shard_deaths']}  reroutes: {tier['reroutes']}  "
        f"fallback routes: {tier['fallback_routes']}  "
        f"inline: {tier['inline_fallbacks']}  splits: {tier['router_splits']}",
        f"  cold start: {cold or 'none'}",
        f"  engine in this process: flushes: {_counts(metrics['flush_causes'])}; "
        f"batch sizes: {_counts(metrics['batch_histogram'], 'x')}; "
        f"retries {res['fabric_retries']}, "
        f"failures: {_counts(res['fabric_failures'])}, "
        f"breaker trips {res['breaker_trips']}, "
        f"degraded {res['degraded_inferences']}, "
        f"worker deaths {res['worker_deaths']}",
    ]
    if "faults" in report:
        lines.append(
            f"  faults: {len(report['faults']['events'])} injected; "
            f"transcript sha256 {report['faults']['transcript_sha256'][:16]}…"
        )
    p99 = slo["p99_ms"]
    lines += [
        f"  SLO: p99 {p99:.3f}ms (limit {slo['p99_slo_ms']:g}ms), "
        f"degraded {slo['degraded_fraction']:.4%} "
        f"(limit {slo['degraded_slo']:.2%}) -> {'OK' if slo['ok'] else 'VIOLATED'}"
        if p99 is not None
        else "  SLO: no latency samples -> VIOLATED",
        f"  bit-identity vs forward_batch: {'OK' if report['bit_identical'] else 'FAILED'}",
    ]
    return "\n".join(lines)


__all__ = ["default_chaos_plan", "run_load", "format_report"]
