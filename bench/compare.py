#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json [--same]

A and B are results files written by ``bench/run.py --out`` (use
``--repeat 3`` or more so each side has a median and a spread).  For
every (workload, end-to-end metric) the medians are compared: B worse
than A by more than the metric's bound is ``regressed`` (-), better by
more than the bound ``improved`` (+), otherwise ``unchanged`` (=).
Where the run-to-run spread of either side is wider than the bound the
verdict is ``unresolved`` (?) — unless every run of one side beats every
run of the other.  One row per workload; every ratio is B/A with its
base (A's median) in brackets.  More failed requests in B than in A is a
regression whatever the timings say.

Exit status: 1 if anything regressed.  ``--same`` checks instead that two
sets of runs of the *same* commit agree: 1 if any median moved by more
than its bound, in either direction, whatever the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = "+", "=", "-", "?"
MOVED = "moved"  # tally key: medians apart by more than the bound
LEGEND = "+ improved   = unchanged   - regressed   ? unresolved (spread > bound)"


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per untraced run (+ failed fraction)."""
    with open(path) as handle:
        document = json.load(handle)
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run.get("trace"):
            continue
        row = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            row.setdefault(name, []).append(metric["value"])
        row.setdefault("failed_fraction", []).append(run["failed"] / run["attempted"])
    return table


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (range/median below 3 runs)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 3:
        return (max(values) - min(values)) / abs(middle)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """(symbol, B/A ratio of medians, A's median) for one metric."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else float("inf") if new else 1.0
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base) / abs(base) if base else sign * new
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            b_wins, a_wins = max(b) < min(a), max(a) < min(b)
        else:
            b_wins, a_wins = min(b) > max(a), min(a) > max(b)
        if b_wins and worse_by < -bound:
            return IMPROVED, ratio, base
        if a_wins and worse_by > bound:
            return REGRESSED, ratio, base
        return UNRESOLVED, ratio, base
    if worse_by > bound:
        return REGRESSED, ratio, base
    if worse_by < -bound:
        return IMPROVED, ratio, base
    return UNCHANGED, ratio, base


def compare(
    a: Dict, b: Dict, benchmark: Dict
) -> Tuple[List[str], Dict[str, int]]:
    """The report lines and how many cells got each verdict."""
    metrics = benchmark["end_to_end"]
    tally = {IMPROVED: 0, UNCHANGED: 0, REGRESSED: 0, UNRESOLVED: 0, MOVED: 0}
    width = 24
    header = f"{'workload':<16}" + "".join(f"{m['name']:<{width}}" for m in metrics)
    lines = [header + "failed_fraction"]
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in a or workload not in b:
            lines.append(f"{workload:<16}(missing from one side)")
            tally[UNRESOLVED] += 1
            continue
        cells = []
        for metric in metrics:
            symbol, ratio, base = verdict(
                a[workload][metric["name"]],
                b[workload][metric["name"]],
                metric["better"],
                metric["bound"],
            )
            tally[symbol] += 1
            tally[MOVED] += abs(ratio - 1.0) > metric["bound"]
            cells.append(f"{symbol} {ratio:.3f} [{base:.4g}]".ljust(width))
        fail_a = statistics.median(a[workload]["failed_fraction"])
        fail_b = statistics.median(b[workload]["failed_fraction"])
        symbol = REGRESSED if fail_b > fail_a else UNCHANGED  # any increase
        tally[symbol] += 1
        tally[MOVED] += fail_b != fail_a
        cells.append(f"{symbol} {fail_b:.4g} [{fail_a:.4g}]")
        lines.append(f"{workload:<16}" + "".join(cells))
    return lines, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--same", action="store_true",
                        help="both sides are one commit: fail if any median moved past its bound")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    lines, tally = compare(load_runs(args.a), load_runs(args.b), benchmark)
    print("\n".join(lines))
    print(LEGEND + "; cells are B/A [A's median]")
    print(
        f"improved {tally[IMPROVED]} / unchanged {tally[UNCHANGED]} / "
        f"regressed {tally[REGRESSED]} / unresolved {tally[UNRESOLVED]}"
    )
    if args.same:
        print(f"medians apart by more than their bound: {tally[MOVED]}")
        return 1 if tally[MOVED] else 0
    return 1 if tally[REGRESSED] else 0


if __name__ == "__main__":
    sys.exit(main())
