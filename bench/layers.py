"""Per-layer metrics of the traced run (``--trace 1``), layer = module name.

A per-layer metric is what *this workload* spends in, or gets from, that
layer: 0 means the layer is not on the workload's path (the interaction
table's "should not move" column, made checkable).  Everything is
measured from outside, in bench/, by timing calls into public functions;
the one thing read from inside the program is the servers' own metrics
snapshot.  ``PER_LAYER`` is the authoritative list: BENCHMARK.json's
``per_layer`` section must match it (bench/test_harness.py checks).
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import harness
import models
from repro import isa
from repro.core import workspace
from repro.core.fused import fused_conv_maxpool_batch
from repro.core.im2col import im2col_batch
from repro.core.ops import conv2d_batch, maxpool2d_batch
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine.arena import Arena
from repro.nn.network import Network
from repro.nn.zoo import mlp4_config, tincy_yolo_config
from repro.serve import Router, frame_digest
from workloads import SLO_MS, ShardStack, Spec

clock = time.perf_counter

#: Compute instructions a program may have (``isa.vm.step_*.NN`` slots).
STEP_SLOTS = 10
#: Stages of the exported Tincy offload bundle (``finn.stage_ms.N`` slots).
STAGE_SLOTS = 7

_LOWER, _HIGHER = "lower", "higher"
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        # core: microbench at the costliest Tincy geometry (16->64 @ 208x208).
        ("core.conv2d_batch_ms", "ms", _LOWER),
        ("core.conv2d_batch_gops", "Gop/s", _HIGHER),
        ("core.im2col_batch_ms", "ms", _LOWER),
        ("core.im2col_batch_gbps", "GB/s", _HIGHER),
        ("core.threshold_apply_ms", "ms", _LOWER),
        ("core.maxpool2d_batch_ms", "ms", _LOWER),
        ("core.maxpool2d_batch_gbps", "GB/s", _HIGHER),
        ("core.fused_conv_maxpool_ms", "ms", _LOWER),
    ]
    # isa.vm: the workload's own network, direct PlanVM runs, batch 1.
    + [(f"isa.vm.step_ms.{n:02d}", "ms", _LOWER) for n in range(STEP_SLOTS)]
    + [(f"isa.vm.step_gops.{n:02d}", "Gop/s", _HIGHER) for n in range(STEP_SLOTS)]
    + [
        ("isa.vm.frame_ms", "ms", _LOWER),
        ("isa.vm.dispatch_ms", "ms", _LOWER),
        ("isa.vm.frame_ms_o0", "ms", _LOWER),
        ("isa.vm.o2_speedup", "ratio", _HIGHER),
        ("isa.vm.batch8_frames_per_s", "frames/s", _HIGHER),
        ("isa.vm.fabric_steps", "count", _HIGHER),
        # finn: the [offload] step of the hybrid net.
        ("finn.offload_ms", "ms", _LOWER),
        ("finn.offload_gops", "Gop/s", _HIGHER),
        ("finn.offload_share", "ratio", _LOWER),
        ("finn.modeled_frame_cycles", "count", _LOWER),
    ]
    + [(f"finn.stage_ms.{n}", "ms", _LOWER) for n in range(STAGE_SLOTS)]
    + [
        # a warm start, taken apart (the workload's own model files).
        ("nn.load_ms", "ms", _LOWER),
        ("isa.weights_digest_ms", "ms", _LOWER),
        ("isa.cfg_digest_ms", "ms", _LOWER),
        ("isa.cache.hit_ms", "ms", _LOWER),
        ("isa.decode_ms", "ms", _LOWER),
        ("isa.vm.bind_ms", "ms", _LOWER),
        ("isa.vm.first_frame_ms", "ms", _LOWER),
        # what a cold start adds.
        ("isa.compiler.frontend_ms", "ms", _LOWER),
        ("isa.compiler.optimize_ms", "ms", _LOWER),
        ("analyze.tv.validate_ms", "ms", _LOWER),
        ("isa.encode_ms", "ms", _LOWER),
        ("isa.cache.miss_ms", "ms", _LOWER),
        ("isa.artifact_bytes", "count", _LOWER),
        ("isa.instructions_o2", "count", _LOWER),
        ("isa.compute_instructions_o2", "count", _LOWER),
        ("isa.peak_live_elements_o2", "count", _LOWER),
        # serve: the paced phase of a served workload.
        ("serve.submit_ms_p50", "ms", _LOWER),
        ("serve.compute_ms_per_frame", "ms", _LOWER),
        ("serve.vm_direct_ms", "ms", _LOWER),
        ("serve.overhead_ms_p50", "ms", _LOWER),
        ("serve.batch_mean", "count", _HIGHER),
        ("serve.flush_deadline_share", "ratio", _LOWER),
        ("serve.queue_depth_max", "count", _LOWER),
        ("serve.shed", "count", _LOWER),
        ("serve.latency_ms_p95", "ms", _LOWER),
        ("serve.slo_miss_fraction", "ratio", _LOWER),
        ("serve.generator_lag_ms_p95", "ms", _LOWER),
        # serve.admission / router / shard: the shard tier's front door.
        ("serve.admission.frame_digest_ms", "ms", _LOWER),
        ("serve.admission.result_cache_hit_share", "ratio", _HIGHER),
        ("serve.admission.coalesced_share", "ratio", _HIGHER),
        ("serve.admission.cache_evictions", "count", _LOWER),
        ("serve.shard.hit_latency_ms_p50", "ms", _LOWER),
        ("serve.router.lookup_us", "us", _LOWER),
        ("serve.router.dispatch_imbalance", "ratio", _LOWER),
        ("serve.router.fallback_routes", "count", _LOWER),
        ("serve.shard.pickle_roundtrip_ms", "ms", _LOWER),
        ("serve.shard.wire_bytes_per_request", "count", _LOWER),
        ("serve.shard.cold_start_ms", "ms", _LOWER),
        ("serve.shard.miss_latency_ms_p50", "ms", _LOWER),
        ("serve.shard.overhead_ms_p50", "ms", _LOWER),
        # the latency budget of the median request (rows sum to its p50).
        ("budget.p50_ms", "ms", _LOWER),
        ("budget.submit_ms", "ms", _LOWER),
        ("budget.digest_ms", "ms", _LOWER),
        ("budget.transport_ms", "ms", _LOWER),
        ("budget.compute_ms", "ms", _LOWER),
        ("budget.residual_ms", "ms", _LOWER),
        # the tail of the latency whose median is the end-to-end latency_ms_p50.
        ("tail.latency_ms_p90", "ms", _LOWER),
        ("trace.overhead_fraction", "ratio", _LOWER),
        ("trace.spans", "count", _LOWER),
    ]
)


def hygiene_frame() -> None:
    """One throwaway mlp4 frame: first-import and BLAS start-up costs stay
    out of the first workload's ``setup_s``."""
    network = Network(mlp4_config())
    network.initialize(np.random.default_rng(0))
    network.forward(FeatureMap(np.zeros(network.input_shape, dtype=np.float32)))


def timed_ms(call: Callable, repeats: int) -> Tuple[float, object]:
    """Median wall milliseconds of *call* over *repeats*; and its last value."""
    samples = []
    value = None
    for _ in range(repeats):
        t0 = clock()
        value = call()
        samples.append((clock() - t0) * 1e3)
    return harness.median(samples), value


def _in_arena(call: Callable) -> Callable:
    """Run a kernel as the VM runs it: scratch from a recycling arena."""
    arena = Arena()

    def wrapped():
        with workspace.install(arena):
            arena.begin_run()
            out = call()
            workspace.release(out.data if isinstance(out, FeatureMapBatch) else out)
        return out

    return wrapped


class LayerProbe:
    """Collects the per-layer metrics of one traced run."""

    def __init__(self, spec: Spec, tracer: harness.Tracer, smoke: bool) -> None:
        self.spec = spec
        self.tracer = tracer
        self.smoke = smoke
        self.repeats = 2 if smoke else 5
        self.values: Dict[str, Tuple[float, int]] = {}
        self.budget: List[Tuple[str, float]] = []

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = (float(value), n)

    def get(self, name: str) -> float:
        return self.values.get(name, (0.0, 0))[0]

    # -- probes that need the model files (called before they are removed) --

    def __call__(self, run, workdir: str) -> None:
        self.core()
        network = self.start_parts(run.model, workdir, run.frames[0])
        self.vm_steps(network, run.frames)
        if network.uses_fabric:
            self.finn(network, run.frames)
        if run.opened is not None:
            self.served(run)
        if self.spec.stack is ShardStack:
            self.shard_tier(run, network)
        self.latency_budget(run)
        self.latency_tail(run)
        request_spans(self.tracer, run)
        self.trace_overhead(run)

    def core(self) -> None:
        """Kernels at the costliest Tincy geometry; ops from ``repro.perf``'s
        workload accounting, bytes computed from tensor sizes."""
        network = Network(tincy_yolo_config())
        index = max(
            (i for i, layer in enumerate(network.layers[1:-2], 1)
             if layer.ltype == "convolutional"),
            key=lambda i: (
                network.layers[i].workload().ops,
                network.layers[i].out_shape[1] * network.layers[i].out_shape[2],
            ),
        )
        conv, pool = network.layers[index], network.layers[index + 1]
        rng = np.random.default_rng(0)
        conv.initialize(rng)
        in_scale = network.layers[index - 1].out_quant.scale
        codes = rng.integers(0, 8, size=(1,) + tuple(conv.in_shape), dtype=np.uint8)
        weights = conv.effective_weights()
        ops = conv.workload().ops
        repeats = self.repeats

        ms, acc = timed_ms(
            _in_arena(lambda: conv2d_batch(codes, weights, None, conv.stride, conv.pad)),
            repeats,
        )
        self.put("core.conv2d_batch_ms", ms, repeats)
        self.put("core.conv2d_batch_gops", ops / ms / 1e6, repeats)
        ms, cols = timed_ms(
            _in_arena(lambda: im2col_batch(codes, conv.size, conv.stride, conv.pad)),
            repeats,
        )
        self.put("core.im2col_batch_ms", ms, repeats)
        self.put(
            "core.im2col_batch_gbps", (codes.nbytes + cols.nbytes) / ms / 1e6, repeats
        )
        acc_batch = FeatureMapBatch(np.array(acc), scale=in_scale)
        ms, levels = timed_ms(
            _in_arena(lambda: conv.forward_batch_thresholds(acc_batch)), repeats
        )
        self.put("core.threshold_apply_ms", ms, repeats)
        level_data = np.array(levels.data)
        ms, pooled = timed_ms(
            _in_arena(lambda: maxpool2d_batch(level_data, pool.size, pool.stride)),
            repeats,
        )
        self.put("core.maxpool2d_batch_ms", ms, repeats)
        self.put(
            "core.maxpool2d_batch_gbps",
            (level_data.nbytes + pooled.nbytes) / ms / 1e6,
            repeats,
        )
        code_batch = FeatureMapBatch(codes, scale=in_scale)
        ms, _ = timed_ms(
            _in_arena(lambda: fused_conv_maxpool_batch(conv, pool, code_batch)), repeats
        )
        self.put("core.fused_conv_maxpool_ms", ms, repeats)

    def start_parts(self, model: models.Model, workdir: str, frame: FeatureMap):
        """A start taken apart: each public call a start makes, timed alone."""
        repeats = self.repeats
        parts: Dict[str, List[float]] = {}

        def part(name: str, call: Callable):
            t0 = clock()
            value = call()
            parts.setdefault(name, []).append((clock() - t0) * 1e3)
            return value

        batch = FeatureMapBatch(frame.data[np.newaxis, ...], frame.scale)
        for repeat in range(repeats):
            cache = isa.PlanCache(os.path.join(workdir, f"probe-cache-{repeat}"))
            network = part("nn.load_ms", model.load)
            part("isa.weights_digest_ms", lambda: isa.weights_digest(network))
            part("isa.cfg_digest_ms", lambda: isa.cfg_digest(network))
            raw = part(
                "isa.compiler.frontend_ms", lambda: isa.frontend(network, name=model.name)
            )
            part(
                "optimize-plain",
                lambda: isa.optimize(raw, network=network, level=2, validate=False),
            )
            program, _stats = part(
                "isa.compiler.optimize_ms",
                lambda: isa.optimize(raw, network=network, level=2, validate=True),
            )
            blob = part("isa.encode_ms", lambda: isa.encode(program))
            part("isa.decode_ms", lambda: isa.decode(blob))
            part(
                "isa.cache.miss_ms",
                lambda: cache.get_or_compile(network, name=model.name),
            )
            cached, hit = part(
                "isa.cache.hit_ms",
                lambda: cache.get_or_compile(network, name=model.name),
            )
            if not hit:
                raise RuntimeError("second get_or_compile on one cache dir missed")
            vm = part("isa.vm.bind_ms", lambda: isa.PlanVM(cached, network))
            part("isa.vm.first_frame_ms", lambda: vm.run(batch))
        for name, samples in parts.items():
            if name != "optimize-plain":
                self.put(name, harness.median(samples), repeats)
        # Validation is the difference of the two public optimize() calls.
        self.put(
            "analyze.tv.validate_ms",
            self.get("isa.compiler.optimize_ms")
            - harness.median(parts["optimize-plain"]),
            repeats,
        )
        self.put("isa.artifact_bytes", len(blob))
        self.put("isa.instructions_o2", len(program.instructions))
        self.put(
            "isa.compute_instructions_o2",
            sum(1 for instr in program.instructions if instr.is_compute),
        )
        self.put("isa.peak_live_elements_o2", isa.peak_live_elements(program))
        return network

    def vm_steps(self, network, frames: Sequence[FeatureMap]) -> None:
        """Per-instruction time of the -O2 program, and what -O2 buys."""
        program, _ = isa.compile_network(network, level=2)
        steps: List[List[float]] = []
        per_frame: List[Tuple[float, float]] = []
        current: List[float] = []
        vm = isa.PlanVM(program, network, on_step=lambda s: current.append(s.wall_s))
        ops = [instr.ops for instr in program.instructions if instr.is_compute]
        if len(ops) > STEP_SLOTS:
            raise RuntimeError(
                f"{len(ops)} compute instructions exceed the {STEP_SLOTS} "
                f"isa.vm.step slots BENCHMARK.json declares"
            )
        batches = [FeatureMapBatch(f.data[np.newaxis, ...], f.scale) for f in frames[:4]]
        t0 = clock()
        vm.run(batches[0])
        vm.run(batches[0])  # two warm-up frames, which also size the sample
        timed_frames = 2 if self.smoke else 8 if clock() - t0 > 0.04 else 50
        for number in range(timed_frames):
            current.clear()
            t0 = clock()
            vm.run(batches[number % len(batches)])
            per_frame.append((clock() - t0, sum(current)))
            steps.append(list(current))
        fabric = sum(1 for s in vm.last_report.steps if s.resource == "fabric")
        n = len(steps)
        for slot in range(len(ops)):
            ms = harness.median([frame[slot] for frame in steps]) * 1e3
            self.put(f"isa.vm.step_ms.{slot:02d}", ms, n)
            self.put(f"isa.vm.step_gops.{slot:02d}", ops[slot] / ms / 1e6 if ms else 0.0, n)
        frame_ms = harness.median([wall for wall, _ in per_frame]) * 1e3
        self.put("isa.vm.frame_ms", frame_ms, n)
        self.put(
            "isa.vm.dispatch_ms",
            harness.median([wall - inside for wall, inside in per_frame]) * 1e3,
            n,
        )
        self.put("isa.vm.fabric_steps", fabric)
        plain, _ = isa.compile_network(network, level=0)
        vm0 = isa.PlanVM(plain, network)
        vm0.run(batches[0])
        o0_ms, _ = timed_ms(lambda: vm0.run(batches[1 % len(batches)]), max(3, n // 2))
        self.put("isa.vm.frame_ms_o0", o0_ms, max(3, n // 2))
        self.put("isa.vm.o2_speedup", o0_ms / frame_ms)
        eight = FeatureMapBatch(
            np.stack([frames[i % len(frames)].data for i in range(8)]), frames[0].scale
        )
        vm.on_step = None
        vm.run(eight)
        b8_ms, _ = timed_ms(lambda: vm.run(eight), 3)
        self.put("isa.vm.batch8_frames_per_s", 8e3 / b8_ms, 3)

    def finn(self, network, frames: Sequence[FeatureMap]) -> None:
        """The offload step alone, its stages, and the cycle model's count."""
        offload = next(l for l in network.layers if l.ltype == "offload")
        position = network.layers.index(offload)
        fed = FeatureMapBatch(frames[0].data[np.newaxis, ...], frames[0].scale)
        for layer in network.layers[:position]:
            fed = layer.forward_batch(fed)
        backend = offload.backend
        repeats = self.repeats
        backend.forward_batch(fed)
        ms, _ = timed_ms(lambda: backend.forward_batch(fed), repeats)
        self.put("finn.offload_ms", ms, repeats)
        self.put("finn.offload_gops", backend.ops_per_frame() / ms / 1e6, repeats)
        self.put("finn.offload_share", ms / self.get("isa.vm.frame_ms"))
        self.put("finn.modeled_frame_cycles", backend.accelerator.cycles_per_frame())
        stages = backend.accelerator.stages
        if len(stages) > STAGE_SLOTS:
            raise RuntimeError(f"{len(stages)} fabric stages exceed {STAGE_SLOTS} slots")
        flowing = FeatureMapBatch(np.asarray(fed.data), fed.scale)
        for slot, stage in enumerate(stages):
            ms, flowing = timed_ms(
                lambda stage=stage, x=flowing: stage.forward_batch(x), repeats
            )
            self.put(f"finn.stage_ms.{slot}", ms, repeats)

    # -- metrics read off the run's own records --------------------------------

    def served(self, run) -> None:
        """The paced phase: where a response's time goes besides compute."""
        opened = run.opened
        latencies = opened.latencies_ms()
        n = len(latencies)
        floor = 0 if self.smoke else harness.MIN_BEYOND
        self.put("serve.submit_ms_p50", harness.median(opened.submit_s) * 1e3, n)
        self.put("serve.vm_direct_ms", self.get("isa.vm.frame_ms"))
        self.put(
            "serve.overhead_ms_p50",
            harness.median(latencies) - self.get("isa.vm.frame_ms"),
            n,
        )
        self.put("serve.latency_ms_p95", harness.percentile(latencies, 0.95, floor), n)
        missed = sum(1 for ms in latencies if ms > SLO_MS) + (opened.attempted - n)
        self.put("serve.slo_miss_fraction", missed / opened.attempted, opened.attempted)
        self.put(
            "serve.generator_lag_ms_p95",
            harness.percentile(harness.generator_lag_ms(opened), 0.95, floor),
            opened.attempted,
        )
        before, after = run.snapshot_closed, run.snapshot_end
        self.put("serve.queue_depth_max", after["queue_depth_max"])
        self.put("serve.shed", after["shed"])
        batches = {
            int(size): count - before["batch_histogram"].get(size, 0)
            for size, count in after["batch_histogram"].items()
        }
        flushed = sum(batches.values())
        if flushed:  # the in-process server batches; the shard tier does not
            self.put(
                "serve.batch_mean",
                sum(size * count for size, count in batches.items()) / flushed,
                flushed,
            )
            deadline = after["flush_causes"].get("deadline", 0) - before[
                "flush_causes"
            ].get("deadline", 0)
            self.put("serve.flush_deadline_share", deadline / flushed, flushed)
        step_ms = sum(s["total_ms"] for s in after["plan_steps"].values()) - sum(
            s["total_ms"] for s in before["plan_steps"].values()
        )
        done = after["completed"] - before["completed"]
        if step_ms and done:
            self.put("serve.compute_ms_per_frame", step_ms / done, done)

    def shard_tier(self, run, network) -> None:
        """Digest, routing, the wire (computed) and hit against miss."""
        opened, tier = run.opened, run.snapshot_end["shard_tier"]
        frames = run.frames
        ms, digests = timed_ms(
            lambda: [frame_digest(f) for f in frames[:256]], self.repeats
        )
        self.put("serve.admission.frame_digest_ms", ms / 256, 256 * self.repeats)
        router = Router()
        for name in tier["dispatches"]:
            router.join(name)
        ms, _ = timed_ms(lambda: [router.route(d) for d in digests], self.repeats)
        self.put("serve.router.lookup_us", ms / 256 * 1e3, 256 * self.repeats)
        # The request batch and the response as the pipe carries them,
        # pickled here: computed, not read off the pipe.
        request = ("req", 0, FeatureMapBatch.from_maps([frames[0]]))
        response = ("res", 0, FeatureMapBatch.from_maps([opened_result(opened)]))
        wire = [pickle.dumps(request), pickle.dumps(response)]
        ms, _ = timed_ms(
            lambda: [pickle.loads(pickle.dumps(m)) for m in (request, response)], 50
        )
        self.put("serve.shard.pickle_roundtrip_ms", ms, 50)
        self.put("serve.shard.wire_bytes_per_request", sum(len(b) for b in wire))
        attempted = run.closed.attempted + opened.attempted
        start = run.snapshot_ready["shard_tier"]
        self.put(
            "serve.admission.result_cache_hit_share",
            (tier["result_cache_hits"] - start["result_cache_hits"]) / attempted,
            attempted,
        )
        self.put(
            "serve.admission.coalesced_share",
            (tier["coalesced"] - start["coalesced"]) / attempted,
            attempted,
        )
        self.put(
            "serve.admission.cache_evictions", run.snapshot_end["result_cache"]["evictions"]
        )
        dispatches = list(tier["dispatches"].values())
        self.put(
            "serve.router.dispatch_imbalance",
            max(dispatches) / (sum(dispatches) / len(dispatches)) - 1.0,
            sum(dispatches),
        )
        self.put("serve.router.fallback_routes", tier["fallback_routes"])
        colds = [info["cold_start_ms"] for info in tier["cold_starts"].values()]
        self.put("serve.shard.cold_start_ms", harness.median(colds), len(colds))
        hits = opened.latencies_ms(only=opened.immediate)
        misses = opened.latencies_ms(only=[not flag for flag in opened.immediate])
        self.put("serve.shard.hit_latency_ms_p50", harness.median(hits), len(hits))
        self.put("serve.shard.miss_latency_ms_p50", harness.median(misses), len(misses))
        self.put(
            "serve.shard.overhead_ms_p50",
            harness.median(misses) - self.get("isa.vm.frame_ms"),
            len(misses),
        )

    def latency_budget(self, run) -> None:
        """Rows that sum to the p50 of the reported latency.

        ``residual`` is queue + batch-wait + hand-off: what is left when the
        parts measurable from outside are taken away; splitting it needs
        spans inside the program.
        """
        if run.spec.cycles:
            p50 = harness.median(run.warm_ms)  # the median start is a hit
            rows = [
                ("submit (load cfg+weights)", self.get("nn.load_ms")),
                ("digest (weights+cfg, in cache lookup)", self.get("isa.cache.hit_ms")),
                ("transport (computed)", 0.0),
                ("compute (bind + first frame)",
                 self.get("isa.vm.bind_ms") + self.get("isa.vm.first_frame_ms")),
            ]
        elif run.opened is None:
            p50 = harness.median(run.closed.latencies_ms())
            rows = [
                ("submit", 0.0),
                ("digest", 0.0),
                ("transport (computed)", 0.0),
                ("compute", p50 - self.get("isa.vm.dispatch_ms")),
            ]
        else:
            p50 = harness.median(run.opened.latencies_ms())
            sharded = self.spec.stack is ShardStack
            digest = self.get("serve.admission.frame_digest_ms")
            submit = max(0.0, self.get("serve.submit_ms_p50") - digest)
            shares = self.get("serve.admission.result_cache_hit_share") + self.get(
                "serve.admission.coalesced_share"
            )
            dispatched = shares < 0.5  # is the median request computed at all?
            rows = [
                ("submit", submit),
                ("digest", digest),
                ("transport (computed)",
                 self.get("serve.shard.pickle_roundtrip_ms") if sharded and dispatched else 0.0),
                ("compute",
                 (self.get("serve.compute_ms_per_frame") or self.get("isa.vm.frame_ms"))
                 if dispatched else 0.0),
            ]
        rows.append(
            ("residual (queue + batch-wait + hand-off)", p50 - sum(ms for _, ms in rows))
        )
        self.budget = [("p50", p50)] + rows
        for key, (_, ms) in zip(
            ("p50", "submit", "digest", "transport", "compute", "residual"), self.budget
        ):
            self.put(f"budget.{key}_ms", ms)

    def latency_tail(self, run) -> None:
        """p90 of the reported latency: the highest percentile every workload
        leaves ten samples beyond (one on ``cold_start``: ~60 starts a run).
        Demoted from the end-to-end metrics: see README, "No tail"."""
        latencies = run.latencies_ms()
        floor = 0 if self.smoke else 1 if run.spec.cycles else harness.MIN_BEYOND
        try:
            p90 = harness.percentile(latencies, 0.90, floor)
        except harness.TooFewSamples as refusal:
            # A machine too slow for 100 frames in the phase: report what
            # there is rather than no result at all, and say so.
            print(f"bench: {refusal}; reporting it regardless", file=sys.stderr)
            p90 = harness.percentile(latencies, 0.90, 0)
        self.put("tail.latency_ms_p90", p90, len(latencies))

    def trace_overhead(self, run) -> None:
        """Traced against untraced throughput, from alternating fifths of
        the closed-loop phase."""
        self.put("trace.spans", len(self.tracer.spans))
        if run.spec.cycles:
            return  # starts are not traced per step
        closed = run.closed
        width = (closed.end - closed.start) / 5
        rates = []
        for number in range(5):
            lo = closed.start + number * width
            rates.append(
                harness.windowed_rate(closed.completion_stamps(), lo, lo + width, 1)
            )
        traced = harness.median([rates[i] for i in run.traced_slices])
        plain = harness.median(
            [rate for i, rate in enumerate(rates) if i not in run.traced_slices]
        )
        self.put("trace.overhead_fraction", 1.0 - traced / plain, len(closed.done))

    # -- output ----------------------------------------------------------------

    def metrics(self) -> Dict[str, Dict]:
        """Every declared per-layer metric (0 where the layer is bypassed)."""
        out = {}
        for name, unit, _better in PER_LAYER:
            value, n = self.values.get(name, (0.0, 0))
            out[name] = {"value": value, "unit": unit, "n": n}
        unknown = set(self.values) - set(out)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
        return out

    def budget_table(self) -> str:
        lines = [f"latency budget of {self.spec.name} (ms; rows sum to the p50)"]
        for label, ms in self.budget[1:]:
            lines.append(f"  {label:<42} {ms:10.4f}")
        lines.append(f"  {'p50':<42} {self.budget[0][1]:10.4f}")
        return "\n".join(lines)

    def write(self, path: str, run, env: Dict) -> None:
        """Spans (kept in memory until now), budget and metrics, as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": self.spec.name,
                    "seed": run.seed,
                    "env": env,
                    "budget_ms": dict(self.budget),
                    "metrics": self.metrics(),
                    "spans": self.tracer.dump(),
                },
                handle,
            )


def opened_result(record: harness.Completed) -> FeatureMap:
    """Any successful response of the phase (for sizing the wire)."""
    return next(r for r, done in zip(record.results, record.done) if done is not None)


def request_spans(tracer: harness.Tracer, run) -> None:
    """Per-request spans of the served phases, from the generator's record:
    ``request`` (due -> completion) and its child ``submit``."""
    tracer.enabled = True
    for phase_name, record in (("closed", run.closed), ("open", run.opened)):
        if record is None or run.spec.rate_hz is None:
            continue
        for position in range(record.attempted):
            done = record.done[position]
            if done is None:
                continue
            parent = tracer.add(
                f"request.{phase_name}", record.due[position], done, rid=position
            )
            sent = record.sent[position]
            tracer.add(
                "serve.submit", sent, sent + record.submit_s[position], parent, position
            )


__all__ = ["PER_LAYER", "LayerProbe", "hygiene_frame"]
