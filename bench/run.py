#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints one line per metric (``workload metric
value unit n=samples``) followed by one JSON object — the form the
benchmark driver reads (BENCHMARK.json names this command).  Without
``--workload`` it runs all six, each in its own process so ``peak_rss_mb``
is per workload, and ``--out FILE`` collects the results for
``bench/compare.py``.  ``--trace 1`` is the separate traced run: spans
recorded in bench/ around each call into a layer, per-layer metrics, and
the latency budget, written to ``bench/out/``.  ``--smoke`` runs the same
code paths on small nets with short phases.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, pinned before numpy is first imported and
# recorded with the results: the program's own parallelism (2 CPU workers,
# 2 forked shards) is what uses the cores.  At nproc threads the shards
# oversubscribe a 2-core box and the tier's throughput collapses
# erratically (see README, "BLAS threads").
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List  # noqa: E402


def _metric(value: float, unit: str, n: int) -> Dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def end_to_end(run) -> Dict[str, Dict]:
    """The end-to-end metrics of one untraced run (see bench/README.md)."""
    import harness

    latencies = run.latencies_ms()
    if run.spec.cycles:
        # A "frame" here is a start: files on disk -> first correct frame.
        fps = len(latencies) / (run.closed.end - run.closed.start)
    else:
        fps = harness.windowed_rate(
            run.closed.completion_stamps(), run.closed.start, run.closed.end
        )
    return {
        "frames_per_s": _metric(fps, "frames/s", len(run.closed.done) or len(latencies)),
        "latency_ms_p50": _metric(harness.median(latencies), "ms", len(latencies)),
        "cold_start_ms": _metric(harness.median(run.cold_ms), "ms", len(run.cold_ms)),
        "warm_start_ms": _metric(harness.median(run.warm_ms), "ms", len(run.warm_ms)),
        "setup_s": _metric(harness.median(run.setup_s), "s", len(run.setup_s)),
        "peak_rss_mb": _metric(harness.peak_rss_mb(), "MB", 1),
    }


def run_one(args) -> int:
    """Driver mode: one workload, one run, result as the last line."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: src/repro not found next to bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    import layers
    import workloads

    spec = workloads.SPECS[args.workload]
    if args.smoke:
        spec = workloads.smoke_spec(spec)
    layers.hygiene_frame()
    tracer = harness.Tracer() if args.trace else None
    probe = layers.LayerProbe(spec, tracer, args.smoke) if args.trace else None
    run = workloads.run_workload(
        spec, args.seed, args.seconds, OUT_DIR, tracer, probe
    )
    if args.trace:
        metrics = probe.metrics()
        path = os.path.join(OUT_DIR, f"trace-{spec.name}-seed{args.seed}.json")
        probe.write(path, run, harness.environment(ROOT, BLAS_THREADS))
        print(probe.budget_table(), file=sys.stderr)
        print(f"spans and budget written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(run)
    for name, metric in metrics.items():
        print(f"{spec.name} {name} {metric['value']:.6g} {metric['unit']} n={metric['n']}")
    counts = run.counts
    print(
        f"{spec.name} failed_fraction {counts.failed / counts.attempted:.6g} ratio "
        f"n={counts.attempted}"
    )
    if run.golden_digest:
        print(f"{spec.name} golden_detections_sha256 {run.golden_digest}")
        print(f"{spec.name} fabric_steps {run.fabric_steps} count")
    for note in counts.notes:
        print(f"{spec.name} FAILED: {note}", file=sys.stderr)
    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if counts.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; optional results file."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    results: List[Dict] = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                sys.stdout.flush()
                status = status or done.returncode
                if done.returncode in (0, 1) and lines:
                    result = json.loads(lines[-1])
                    result.update(workload=name, seed=args.seed, trace=trace, repeat=repeat)
                    results.append(result)
    if args.out:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import harness

        with open(args.out, "w") as handle:
            json.dump(
                {"env": harness.environment(ROOT, BLAS_THREADS), "runs": results},
                handle, indent=1,
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default 12, BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, help="all-workload mode: runs of each")
    parser.add_argument("--out", help="all-workload mode: write the results here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 12.0
    sys.path.insert(0, BENCH_DIR)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
