"""Command-line interface — the Darknet-style front end.

Darknet is driven as ``./darknet detector demo cfg weights ...``; this CLI
exposes the reproduction's equivalents:

* ``python -m repro cfg tiny|tincy|mlp4|cnv6`` — emit a topology as .cfg text
* ``python -m repro workload`` — regenerate Tables I and II
* ``python -m repro stages`` — regenerate Table III
* ``python -m repro ladder`` — the §III speedup ladder
* ``python -m repro folding [--device ...]`` — FINN folding search
* ``python -m repro serve-bench [--shards N] [--output F.json]`` — load
  generator and SLO gate for the serving front door over N >= 0 shards
* ``python -m repro opt-check`` — every -O level translation-validated and
  vs the reference oracle, plus the O2-beats-O0 strict-improvement gate
* ``python -m repro compile -O2 --out plan.rpb`` — compile + optimize a plan
* ``python -m repro disasm plan.rpb [--diff other.rpb]`` — disassemble artifacts
* ``python -m repro analyze [--self] [--json]`` — static analysis passes
* ``python -m repro detect --cfg F --weights F --image F.ppm`` — run one image
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.util.tables import format_table

_ZOO = {
    "tiny": "tiny_yolo_config",
    "tincy": "tincy_yolo_config",
    "mlp4": "mlp4_config",
    "cnv6": "cnv6_config",
}


def cmd_cfg(args: argparse.Namespace) -> int:
    from repro.nn import zoo
    from repro.nn.config import serialize_config

    config = getattr(zoo, _ZOO[args.network])()
    sys.stdout.write(serialize_config(config))
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    from repro.nn import zoo
    from repro.nn.network import Network
    from repro.nn.summary import network_summary

    if args.network in _ZOO:
        network = Network(getattr(zoo, _ZOO[args.network])())
        title = args.network
    else:
        with open(args.network) as handle:
            network = Network.from_cfg(handle.read())
        title = args.network
    print(network_summary(network, title=f"Network summary: {title}"))
    return 0


def _load_config(name: str):
    from repro.nn import zoo
    from repro.nn.config import parse_config

    if name in _ZOO:
        return getattr(zoo, _ZOO[name])()
    with open(name) as handle:
        return parse_config(handle.read())


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze`` — the static-analysis passes over plans and source.

    Positional targets are zoo names or cfg files; with none given the
    whole zoo is analyzed (every network gets the cfg lint, the plan
    dataflow verifier and the overflow prover).  ``--self`` runs the
    concurrency and hot-path AST rules over the repro source instead
    (CI's lint gate); combining both in one invocation also works.
    ``--tv`` additionally runs the translation validator over every
    ``-O`` pipeline of each network.  Exit code 1 iff any
    error-severity finding exists — unless ``--baseline`` supplies a
    previous ``--json`` document, in which case only findings *absent
    from the baseline* fail the run (the ratchet mode).
    """
    import json

    import numpy as np

    from repro import analyze
    from repro.analyze.findings import (
        JSON_SCHEMA_VERSION,
        baseline_keys,
        new_findings,
        sort_findings,
    )
    from repro.nn.lint import lint_config
    from repro.nn.network import Network

    networks = list(args.networks)
    if not networks and not args.self_lint:
        networks = sorted(_ZOO)
    tagged = []  # (target, finding) pairs in analysis order
    for name in networks:
        config = _load_config(name)
        if args.cfg_only:
            findings = sort_findings(lint_config(config))
        else:
            network = Network(config)
            network.initialize(np.random.default_rng(args.seed))
            findings = analyze.analyze_network(network, config)
            if args.tv:
                from repro.analyze.tv import tv_findings

                findings = list(findings) + tv_findings(network, name=name)
        tagged.extend((name, finding) for finding in findings)
    if args.self_lint:
        tagged.extend(("self", finding) for finding in analyze.analyze_self())

    if args.json:
        # Deterministic order regardless of analysis interleaving: the
        # document diffs cleanly across runs and seeds baselines.
        ordered = sorted(
            tagged,
            key=lambda pair: (
                pair[1].rule,
                pair[0],
                pair[1].where,
                pair[1].message,
            ),
        )
        document = {
            "version": JSON_SCHEMA_VERSION,
            "findings": [
                dict(finding.to_dict(), target=target)
                for target, finding in ordered
            ],
        }
        print(json.dumps(document, indent=2))
    else:
        targets = networks + (["self"] if args.self_lint else [])
        for target in targets:
            own = [finding for tag, finding in tagged if tag == target]
            print(f"== {target} ==")
            if not own:
                print("no findings — looks consistent")
            else:
                for finding in own:
                    print(finding)
        errors = sum(1 for _, f in tagged if f.severity == "error")
        warnings = sum(1 for _, f in tagged if f.severity == "warning")
        infos = sum(1 for _, f in tagged if f.severity == "info")
        print(
            f"summary: {len(tagged)} finding(s) across {len(targets)} "
            f"target(s) — {errors} error(s), {warnings} warning(s), "
            f"{infos} info"
        )
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = baseline_keys(json.load(handle))
        fresh = new_findings(tagged, baseline)
        known = len(tagged) - len(fresh)
        print(
            f"baseline: {known} known finding(s) suppressed, "
            f"{len(fresh)} new",
            file=sys.stderr,
        )
        for target, finding in fresh:
            print(f"NEW [{target}] {finding}", file=sys.stderr)
        return 1 if fresh else 0
    return analyze.exit_code(finding for _, finding in tagged)


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.perf.workload import table1_rows, table1_totals, table2_rows

    rows = [
        (r.layer, r.ltype, r.tiny_ops, r.tincy_ops if r.tincy_ops is not None else "-")
        for r in table1_rows()
    ]
    totals = table1_totals()
    rows.append(("", "Σ", totals[0], totals[1]))
    print(format_table(
        ["Layer", "Type", "Tiny YOLO", "Tincy YOLO"], rows,
        title="Table I: operations per frame",
    ))
    print()
    print(format_table(
        ["Application", "Reduced", "Regime", "8-Bit", "Total"],
        [
            (r.name, f"{r.reduced_ops / 1e6:,.1f} M", r.regime,
             f"{r.eightbit_ops / 1e6:,.1f} M" if r.eightbit_ops else "-",
             f"{r.total_ops / 1e6:,.1f} M")
            for r in table2_rows()
        ],
        title="Table II: QNN dot-product workloads",
    ))
    return 0


def cmd_stages(args: argparse.Namespace) -> int:
    from repro.perf.cost_model import PAPER_TABLE3_MS, table3_rows, table3_total

    rows = [
        (r.name, f"{r.milliseconds:8.1f}", PAPER_TABLE3_MS[r.name])
        for r in table3_rows()
    ]
    total = table3_total()
    rows.append(("Total", f"{total * 1e3:8.1f}", PAPER_TABLE3_MS["Total"]))
    print(format_table(
        ["Stage", "Model (ms)", "Paper (ms)"], rows,
        title="Table III: generic-inference stage times",
    ))
    print(f"\nframe rate: {1.0 / total:.2f} fps")
    return 0


def cmd_ladder(args: argparse.Namespace) -> int:
    from repro.perf.ladder import ladder_steps, total_speedup

    steps = ladder_steps(workers=args.workers)
    print(format_table(
        ["Rung", "Work/frame (ms)", "fps", "Note"],
        [
            (s.name, f"{s.frame_time_s * 1e3:8.1f}", f"{s.fps:6.2f}", s.note)
            for s in steps
        ],
        title="§III optimization ladder",
    ))
    print(f"\ntotal speedup: {total_speedup(steps):.0f}x (paper: 160x)")
    return 0


def cmd_folding(args: argparse.Namespace) -> int:
    from repro.finn.device import KNOWN_FABRICS
    from repro.finn.schedule import optimize_folding, schedule_summary
    from repro.nn.network import Network
    from repro.nn.zoo import tincy_yolo_config

    fabric = KNOWN_FABRICS.get(args.device)
    if fabric is None:
        print(f"unknown device '{args.device}'; known: {sorted(KNOWN_FABRICS)}",
              file=sys.stderr)
        return 2
    network = Network(tincy_yolo_config())
    best, evaluated = optimize_folding(
        network.layers[1:-2],
        network.layers[0].out_quant.scale,
        network.layers[0].out_shape,
        fabric,
    )
    print(format_table(
        ["Folding", "time/frame", "LUTs", "BRAM36", "fits"],
        schedule_summary(evaluated, top=args.top),
        title=f"Tincy YOLO iterated-engine folding space on {fabric.name}",
    ))
    if best is None:
        print("\nno folding fits this device")
        return 1
    print(f"\nbest fitting: {best.folding.pe}x{best.folding.simd} "
          f"({best.time_per_frame_s * 1e3:.1f} ms/frame)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.perf.report import build_report

    text = build_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    import numpy as np

    import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
    from repro.core.tensor import FeatureMap
    from repro.eval.boxes import nms
    from repro.nn.layers.region import RegionLayer
    from repro.nn.network import Network
    from repro.nn.weights import load_weights
    from repro.video.draw import draw_detections
    from repro.video.image import read_ppm, write_ppm
    from repro.video.letterbox import letterbox

    with open(args.cfg) as handle:
        network = Network.from_cfg(handle.read())
    if args.weights:
        load_weights(network, args.weights)
    else:
        network.initialize(np.random.default_rng(0))
        print("warning: no --weights given; using random parameters",
              file=sys.stderr)
    region = network.layers[-1]
    if not isinstance(region, RegionLayer):
        print("the network's last layer must be [region]", file=sys.stderr)
        return 2

    image = read_ppm(args.image)
    boxed, geometry = letterbox(image, network.input_shape[1])
    output = network.forward(FeatureMap(boxed))
    detections = nms(region.detections(output, threshold=args.thresh))
    mapped = [
        d.__class__(box=geometry.net_box_to_frame(d.box), class_id=d.class_id,
                    score=d.score, objectness=d.objectness)
        for d in detections
    ]
    if mapped:
        print(format_table(
            ["Class", "Score", "x", "y", "w", "h"],
            [
                (d.class_id, f"{d.score:.2f}", f"{d.box.x:.3f}", f"{d.box.y:.3f}",
                 f"{d.box.w:.3f}", f"{d.box.h:.3f}")
                for d in mapped
            ],
            title=f"{len(mapped)} detections",
        ))
    else:
        print("no detections above threshold")
    if args.output:
        annotated = draw_detections(image, mapped, n_classes=region.classes)
        write_ppm(args.output, annotated)
        print(f"annotated image written to {args.output}")
    return 0


def cmd_opt_check(args: argparse.Namespace) -> int:
    """``repro opt-check`` — the optimizer's bit-identity + payoff gate.

    For every zoo network and every ``-O`` level: compile, round-trip
    through the binary format, execute random frames on the VM, and
    assert the output is bit-identical to the frozen legacy sequential
    oracle.  Additionally require that ``-O2`` strictly *pays*: fewer
    compute instructions and a lower peak-live-element high-water than
    ``-O0`` on every network.  The translation validator runs at *every*
    level (not just the ``-O2`` default): a pass that cannot prove its
    rewrite aborts the compile with a ``TV-*`` finding, and the ``tv_ok``
    provenance marker must survive the binary round-trip.  CI runs this
    via ``make opt-check``.
    """
    import numpy as np

    import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
    from repro import isa
    from repro.core.tensor import FeatureMapBatch
    from repro.engine.reference import legacy_forward_batch_all
    from repro.nn import zoo
    from repro.nn.network import Network

    failures = 0
    rows = []
    for name in sorted(_ZOO):
        network = Network(getattr(zoo, _ZOO[name])())
        network.initialize(np.random.default_rng(args.seed))
        rng = np.random.default_rng(args.seed + 1)
        frames = rng.uniform(
            0.0, 1.0, size=(args.frames,) + tuple(network.input_shape)
        ).astype(np.float32)
        expected = legacy_forward_batch_all(
            network, FeatureMapBatch(frames.copy())
        )[-1]
        by_level = {}
        for level in sorted(isa.PIPELINES):
            try:
                program, _stats = isa.compile_network(
                    network, name=name, level=level, validate=True
                )
            except isa.TranslationValidationError as exc:
                failures += 1
                rows.append((name, f"-O{level}", "-", "-", "TV-FAIL"))
                print(f"FAIL {name} -O{level}: {exc}", file=sys.stderr)
                continue
            program = isa.decode(isa.encode(program))
            if not program.tv_ok:
                failures += 1
                print(
                    f"FAIL {name} -O{level}: tv_ok provenance marker lost "
                    "across the binary round-trip",
                    file=sys.stderr,
                )
            out = isa.PlanVM(program, network).run(
                FeatureMapBatch(frames.copy())
            )
            identical = out.data.tobytes() == expected.data.tobytes()
            compute = sum(1 for _ in program.compute_instructions())
            peak = isa.peak_live_elements(program)
            by_level[level] = (compute, peak)
            rows.append(
                (name, f"-O{level}", compute, f"{peak:,}",
                 "ok" if identical else "MISMATCH")
            )
            if not identical:
                failures += 1
                print(
                    f"FAIL {name} -O{level}: VM output differs from the "
                    "legacy reference",
                    file=sys.stderr,
                )
        if 0 not in by_level or not by_level:
            continue
        o0_compute, o0_peak = by_level[0]
        o2_compute, o2_peak = by_level[max(by_level)]
        if not (o2_compute < o0_compute and o2_peak < o0_peak):
            failures += 1
            print(
                f"FAIL {name}: -O2 must strictly improve on -O0 "
                f"(compute {o0_compute} -> {o2_compute}, "
                f"peak live {o0_peak} -> {o2_peak})",
                file=sys.stderr,
            )
    print(format_table(
        ["network", "level", "compute instrs", "peak live elems", "vs legacy"],
        rows,
        title=f"opt-check: {args.frames} random frames per network",
    ))
    if failures:
        print(f"opt-check: {failures} failure(s)", file=sys.stderr)
        return 1
    print(
        "opt-check: every level bit-identical to the legacy reference; "
        "-O2 strictly fewer compute instructions and lower peak liveness "
        "than -O0 on every network; every pass proved semantics-preserving "
        "(tv_ok)"
    )
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """``repro compile`` — compile a network to an optimized ``.rpb``.

    Runs the three-stage compiler (frontend, the ``-O{0,1,2}`` pass
    pipeline, serialization) on the zoo network (or a cfg file), prints
    each pass's before/after statistics, and writes the artifact.
    ``--check`` additionally decodes the written file back, runs random
    frames through the artifact's VM and asserts the outputs bit-identical
    to the frozen :mod:`repro.engine.reference` oracle — the compile-side
    half of ``make isa-roundtrip``.
    """
    import numpy as np

    import repro.finn  # noqa: F401  (registers fabric.so for offload cfgs)
    from repro import isa
    from repro.nn.network import Network

    network = Network(_load_config(args.network))
    network.initialize(np.random.default_rng(args.seed))
    program, stats = isa.compile_network(
        network, name=args.network, level=args.opt
    )
    for pass_stats in stats:
        print(f"; {pass_stats.summary()}")
    size = isa.write_program(program, args.out)
    print(
        f"{args.out}: {size} B, {len(program)} instructions "
        f"(format v{program.version}, -O{program.opt_level}, "
        f"{'fabric' if program.uses_fabric else 'cpu-only'}), "
        f"weights {program.weights_sha256[:12]}..."
    )
    if not args.check:
        return 0

    from repro.core.tensor import FeatureMapBatch
    from repro.engine.reference import legacy_forward_batch_all

    decoded = isa.read_program(args.out)
    if isa.encode(decoded) != isa.encode(program):
        print("CHECK FAILED: re-encoded artifact differs", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed + 1)
    frames = rng.uniform(
        0.0, 1.0, size=(args.frames,) + tuple(network.input_shape)
    ).astype(np.float32)
    fmb = FeatureMapBatch(frames)
    expected = legacy_forward_batch_all(network, fmb)[-1]
    vm_out = isa.PlanVM(decoded, network).run(fmb)
    if expected.data.tobytes() != vm_out.data.tobytes():
        print(
            "CHECK FAILED: VM output differs from the reference",
            file=sys.stderr,
        )
        return 1
    print(
        f"check: decode round-trip byte-identical; VM output bit-identical "
        f"to the reference on {fmb.batch} random frames"
    )
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    """``repro disasm`` — decode and pretty-print a ``.rpb`` artifact.

    ``--diff SECOND.rpb`` renders the two artifacts side by side instead
    — fused or eliminated instructions show up as one-sided rows, which
    is the quickest way to see what an ``-O`` level actually did.
    ``--verify`` additionally runs the ISA verifier over the decoded
    program (slot liveness, structural invariants) and exits 1 on any
    error-severity finding.
    """
    from repro import isa
    from repro.isa.ops import DecodeError

    def _read(path: str):
        try:
            return isa.read_program(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return None
        except DecodeError as exc:
            print(f"cannot decode {path}: {exc}", file=sys.stderr)
            return None

    program = _read(args.file)
    if program is None:
        return 2
    if args.diff:
        second = _read(args.diff)
        if second is None:
            return 2
        sys.stdout.write(isa.diff_disassembly(program, second))
        return 0
    sys.stdout.write(isa.disassemble(program))
    if not args.verify:
        return 0
    from repro.analyze import exit_code
    from repro.analyze.isa import verify_program

    findings = verify_program(program)
    if not findings:
        print("; verify: no findings — program is well-formed")
        return 0
    for finding in findings:
        print(finding, file=sys.stderr)
    return exit_code(findings)


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """``repro serve-bench`` — load generator and SLO gate for serving.

    Drives the ``ShardedServer`` front door through
    :func:`repro.serve.loadgen.run_load`: over ``--shards N`` shard
    processes, or with the default ``--shards 0`` over one engine in this
    process.  The engine flags set every engine.  ``--chaos`` installs the
    seeded fleet fault plan and needs shards to act on (exit 2 without).
    Otherwise the exit code is 1 when p99, the degraded fraction or bit
    identity misses, and 0 when all hold.
    """
    import json

    import numpy as np

    from repro.nn.network import Network
    from repro.serve import ShardTierConfig
    from repro.serve.loadgen import format_report, run_load

    if args.chaos and not args.shards:
        print("serve-bench: --chaos cannot apply without --shards", file=sys.stderr)
        return 2
    knobs = dict(
        max_batch=args.max_batch,
        max_delay_s=None if args.max_delay_ms is None else args.max_delay_ms / 1e3,
        max_queue_depth=args.queue_depth,
        cpu_workers=args.cpu_workers,
        result_cache=args.result_cache,
    )
    config = ShardTierConfig(
        shards=args.shards,
        **{name: value for name, value in knobs.items() if value is not None},
    )
    network = Network(_load_config(args.network))
    network.initialize(np.random.default_rng(args.seed))
    report = run_load(
        network,
        config,
        requests=args.requests,
        arrival_hz=args.arrival_hz,
        faults=args.faults,
        chaos=args.chaos,
        fault_seed=args.fault_seed,
        seed=args.seed,
        plan_cache_dir=args.plan_cache,
        p99_slo_ms=args.slo_p99_ms,
        degraded_slo=args.slo_degraded,
    )
    report = {"network": args.network, **report}
    print(format_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.output}")
    return 0 if report["slo"]["ok"] and report["bit_identical"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tincy YOLO reproduction (Preußer et al., DATE 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cfg = sub.add_parser("cfg", help="emit a zoo topology as Darknet cfg")
    p_cfg.add_argument("network", choices=sorted(_ZOO))
    p_cfg.set_defaults(func=cmd_cfg)

    p_summary = sub.add_parser(
        "summary", help="darknet-style layer table for a zoo name or cfg file"
    )
    p_summary.add_argument("network")
    p_summary.set_defaults(func=cmd_summary)

    p_analyze = sub.add_parser(
        "analyze",
        help="static analysis: cfg lint, plan dataflow, overflow proofs, "
        "AST lint (--self)",
    )
    p_analyze.add_argument(
        "networks", nargs="*",
        help="zoo names or cfg files (default: the whole zoo)",
    )
    p_analyze.add_argument(
        "--self", dest="self_lint", action="store_true",
        help="lint the repro source itself (concurrency + hot-path rules)",
    )
    p_analyze.add_argument(
        "--cfg-only", action="store_true",
        help="only run the cfg-text lint",
    )
    p_analyze.add_argument(
        "--json", action="store_true",
        help="emit the findings as a schema-stable JSON document "
        "(deterministically ordered by rule, target, location)",
    )
    p_analyze.add_argument(
        "--tv", action="store_true",
        help="also run the translation validator over every -O pipeline "
        "of each analyzed network",
    )
    p_analyze.add_argument(
        "--baseline", default=None, metavar="FINDINGS.json",
        help="ratchet mode: fail only on findings absent from this "
        "previously-emitted --json document",
    )
    p_analyze.add_argument(
        "--seed", type=int, default=0,
        help="seed for the random initialization of analyzed networks",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_workload = sub.add_parser("workload", help="Tables I and II")
    p_workload.set_defaults(func=cmd_workload)

    p_stages = sub.add_parser("stages", help="Table III stage times")
    p_stages.set_defaults(func=cmd_stages)

    p_ladder = sub.add_parser("ladder", help="the §III speedup ladder")
    p_ladder.add_argument("--workers", type=int, default=4)
    p_ladder.set_defaults(func=cmd_ladder)

    p_folding = sub.add_parser("folding", help="FINN folding search")
    p_folding.add_argument("--device", default="XCZU3EG")
    p_folding.add_argument("--top", type=int, default=8)
    p_folding.set_defaults(func=cmd_folding)

    p_report = sub.add_parser(
        "report", help="full model-derived reproduction report (markdown)"
    )
    p_report.add_argument("--output", help="write to a file instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_serve = sub.add_parser(
        "serve-bench",
        help="serving load generator and SLO gate (repro.serve)",
    )
    p_serve.add_argument("--network", default="tincy", choices=sorted(_ZOO))
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--requests", type=int, default=None,
                         help="requests to submit (default 64; with "
                              "--chaos, 100000)")
    p_serve.add_argument("--arrival-hz", type=float, default=None,
                         help="mean arrival rate; omit for back-to-back")
    p_serve.add_argument("--max-batch", type=int, default=None,
                         help="engine: dynamic batcher size trigger "
                              "(default: ServeConfig.max_batch)")
    p_serve.add_argument("--max-delay-ms", type=float, default=None,
                         help="engine: dynamic batcher deadline trigger, "
                              "paid only while every worker is busy "
                              "(default: ServeConfig.max_delay_s)")
    p_serve.add_argument("--queue-depth", type=int, default=None,
                         help="engine: admission-control queue limit, also "
                              "the front door's in-flight cap (default: "
                              "ServeConfig.max_queue_depth)")
    p_serve.add_argument("--cpu-workers", type=int, default=None,
                         help="engine: CPU workers next to the fabric "
                              "executor, split over the shards (default: "
                              "ServeConfig.cpu_workers)")
    p_serve.add_argument("--faults", default=None, metavar="PLAN",
                         help="fault-injection plan, e.g. "
                              "'fabric-raise@0,3;fabric-corrupt%%0.1' "
                              "(see repro.faults.FaultPlan.parse)")
    p_serve.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the fault plan's rate draws "
                              "(default 0)")
    p_serve.add_argument("--plan-cache", default=None, metavar="DIR",
                         help="persistent plan-cache directory; default "
                              "is an ephemeral cache warmed for the run "
                              "(the report still shows the cache-hit "
                              "cold start)")
    p_serve.add_argument("--shards", type=int, default=0,
                         help="shard processes behind the front door; 0 "
                              "serves through one engine in this process")
    p_serve.add_argument("--chaos", action="store_true",
                         help="install the seeded fleet chaos plan "
                              "(shard-kill/shard-slow/router-split); "
                              "needs --shards")
    p_serve.add_argument("--result-cache", type=int, default=None,
                         help="front door: LRU result-cache entries, 0 "
                              "disables (default: ShardTierConfig."
                              "result_cache)")
    p_serve.add_argument("--slo-p99-ms", type=float, default=50.0,
                         help="p99 latency SLO the run is gated on")
    p_serve.add_argument("--slo-degraded", type=float, default=0.05,
                         help="max degraded fraction the run is gated on")
    p_serve.add_argument("--output", help="write the JSON report here")
    p_serve.set_defaults(func=cmd_serve_bench)

    p_opt = sub.add_parser(
        "opt-check",
        help="compile the zoo at every -O level, prove every pass (TV) and "
        "verify bit-identity plus the -O2 strict-improvement contract",
    )
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--frames", type=int, default=2,
                       help="random frames to cross-check (default 2)")
    p_opt.set_defaults(func=cmd_opt_check)

    p_compile = sub.add_parser(
        "compile",
        help="compile a network to an optimized, serialized .rpb artifact",
    )
    p_compile.add_argument(
        "--network", default="tincy",
        help="zoo name or cfg file (default tincy)",
    )
    p_compile.add_argument(
        "-O", dest="opt", type=int, choices=[0, 1, 2], default=2,
        help="optimization level for the pass pipeline (default 2)",
    )
    p_compile.add_argument("--out", required=True, metavar="PLAN.rpb",
                           help="where to write the serialized plan")
    p_compile.add_argument("--seed", type=int, default=0,
                           help="seed for the network's random parameters")
    p_compile.add_argument("--frames", type=int, default=2,
                           help="random frames for --check (default 2)")
    p_compile.add_argument("--check", action="store_true",
                           help="decode the artifact back and assert the VM "
                                "matches the reference bit-for-bit")
    p_compile.set_defaults(func=cmd_compile)

    p_disasm = sub.add_parser(
        "disasm", help="disassemble a serialized .rpb plan artifact"
    )
    p_disasm.add_argument("file", help="the .rpb artifact to disassemble")
    p_disasm.add_argument("--diff", metavar="SECOND.rpb",
                          help="render this artifact side by side with a "
                               "second one (shows fused/eliminated lines)")
    p_disasm.add_argument("--verify", action="store_true",
                          help="run the ISA verifier on the decoded program")
    p_disasm.set_defaults(func=cmd_disasm)

    p_detect = sub.add_parser("detect", help="detect objects in a PPM image")
    p_detect.add_argument("--cfg", required=True)
    p_detect.add_argument("--weights")
    p_detect.add_argument("--image", required=True)
    p_detect.add_argument("--thresh", type=float, default=0.24)
    p_detect.add_argument("--output", help="write annotated PPM here")
    p_detect.set_defaults(func=cmd_detect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — the Unix-polite exit.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
