"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench/test_harness.py -q

The ``--smoke`` tests run all six code paths end to end on small nets
(about a minute in total); the rest are unit tests on fake clocks.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import models  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


# -- BENCHMARK.json against the contract and against the code ----------------


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"][-1] == "bench/run.py"
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    total_runs = 4 + 22 * len(BENCHMARK["workloads"])
    # Set-up, starts, oracle and checking add 5-10 s to a run (mean ~7.5).
    assert total_runs * (BENCHMARK["run_seconds"] + 10) <= 3420


def test_benchmark_json_matches_the_code():
    declared = [(w["name"], w["why"]) for w in BENCHMARK["workloads"]]
    assert declared == [(s.name, s.why) for s in workloads.SPECS.values()]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)


def test_golden_checksum_is_the_repositorys():
    with open(os.path.join(ROOT, "tests", "test_golden_e2e.py")) as handle:
        pinned = re.search(
            r'GOLDEN_DETECTIONS_SHA256 = \(\s*"([0-9a-f]{64})"', handle.read()
        ).group(1)
    assert models.GOLDEN_DETECTIONS_SHA256 == pinned


# -- statistics ----------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert harness.percentile(list(range(100)), 0.90) == 89
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(99)), 0.90)  # leaves 9
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(500)), 0.99)  # leaves 5
    assert harness.percentile(list(range(200)), 0.95) == 189
    assert harness.percentile([3.0, 1.0, 2.0], 0.90, min_beyond=0) == 3.0


def test_windowed_rate_is_the_median_of_equal_slices():
    # 10 events/s for four slices, a stall in the middle one.
    stamps = [i * 0.1 for i in range(100) if not 40 <= i < 60]
    assert harness.windowed_rate(stamps, 0.0, 10.0) == pytest.approx(10.0, rel=0.02)


# -- seeded inputs -------------------------------------------------------------


def _digest(seed):
    frames = models.make_frames((3, 8, 8), 64, seed)
    order = models.duplicate_order(64, 1024, seed)
    return models.inputs_digest(frames, order, models.arrival_offsets(100.0, 2.0, seed))


def test_same_seed_same_inputs():
    assert _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)


def test_duplicate_pattern_repeats_three_in_four_from_the_last_sixteen():
    order = models.duplicate_order(8192, 20000, seed=3)
    seen, repeats, newest = set(), 0, -1
    for index in order:
        if index in seen:
            repeats += 1
            assert newest - index < 16
        else:
            assert index == newest + 1
            newest = index
            seen.add(index)
    assert 0.73 < repeats / len(order) < 0.77


def test_arrival_schedule_has_the_nominal_rate():
    offsets = models.arrival_offsets(100.0, 5.0, seed=1)
    assert len(offsets) == 500 and offsets[0] == 0.0
    assert offsets == sorted(offsets)
    assert 4.7 < offsets[-1] < 5.3


# -- load generators on a fake clock ---------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()
    sent_at = []

    def submit(item):
        sent_at.append(clock.now)
        if item == 0:
            clock.now += 0.050  # the sender stalls inside the first submit
        clock.now += 0.001  # service; the response is ready on return
        return workloads.Resolved(item)

    record = harness.open_loop(
        submit, [0, 1, 2, 3], [0, 1, 2, 3], [0.0, 0.010, 0.020, 0.100],
        clock=clock, sleep=clock.sleep, yield_s=0.0,
    )
    # Requests 1 and 2 were due during the stall: sent late, at once...
    assert sent_at == pytest.approx([0.0, 0.051, 0.052, 0.100])
    # ...and their wait is in their latency (41 and 32 ms, not 1 ms).
    assert record.latencies_ms() == pytest.approx([51.0, 42.0, 33.0, 1.0])
    assert harness.generator_lag_ms(record) == pytest.approx([0.0, 41.0, 32.0, 0.0])
    assert record.results == [0, 1, 2, 3]


class ManualFuture:
    def __init__(self):
        self.value = None

    def done(self):
        return self.value is not None

    def exception(self, timeout=None):
        if not self.done():
            raise TimeoutError
        return None

    def result(self, timeout=None):
        return self.value


def test_closed_loop_keeps_the_window_full_and_counts_refusals():
    clock = FakeClock()
    inflight = []
    peak = []

    def submit(item):
        if item == 5:
            raise RuntimeError("shed")
        future = ManualFuture()
        inflight.append(future)
        peak.append(len(inflight))
        return future

    def wait(future, timeout):  # the oldest completes after 10 ms
        clock.now += 0.010
        inflight.pop(0).value = "out"
        return True

    record = harness.closed_loop(
        submit, list(range(8)), list(range(8)), window=3, seconds=0.2,
        clock=clock, wait=wait,
    )
    assert max(peak) == 3
    refused = [r for r in record.results if isinstance(r, RuntimeError)]
    assert refused and all(record.done[i] is None for i, r in enumerate(record.results)
                           if isinstance(r, RuntimeError))
    assert len(record.completion_stamps()) == record.attempted - len(refused)


# -- compare.py ------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [104.0, 105.0, 103.0], "lower", 0.07)[0] == "="
    assert compare.verdict(steady, [110.0, 111.0, 109.0], "lower", 0.07)[0] == "-"
    assert compare.verdict(steady, [110.0, 111.0, 109.0], "higher", 0.07)[0] == "+"
    noisy = [80.0, 100.0, 125.0]
    assert compare.verdict(noisy, [90.0, 112.0, 130.0], "lower", 0.07)[0] == "?"
    # Wide spread, but every run of B beats every run of A.
    assert compare.verdict(noisy, [40.0, 50.0, 60.0], "lower", 0.07)[0] == "+"
    symbol, ratio, base = compare.verdict([2.0], [3.0], "lower", 0.1)
    assert (symbol, ratio, base) == ("-", 1.5, 2.0)


# -- the six code paths, end to end ------------------------------------------------


def _smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.SPECS))
def test_smoke_untraced_prints_every_end_to_end_metric(workload):
    lines, result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0, name  # end-to-end metrics are never 0
        assert any(
            re.match(rf"^{workload} {re.escape(name)} \S+ {re.escape(metric['unit'])} n=\d+$", line)
            for line in lines
        ), name
    assert any(line.startswith(f"{workload} failed_fraction 0 ") for line in lines)
    if workload == "tincy_hybrid":
        assert f"{workload} golden_detections_sha256 {models.GOLDEN_DETECTIONS_SHA256}" in lines
        assert f"{workload} fabric_steps 1 count" in lines


@pytest.mark.parametrize("workload", list(workloads.SPECS))
def test_smoke_traced_prints_every_per_layer_metric(workload):
    _lines, result = _smoke(workload, 1)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    values = {n: m["value"] for n, m in result["metrics"].items()}
    rows = ("submit", "digest", "transport", "compute", "residual")
    assert sum(values[f"budget.{row}_ms"] for row in rows) == pytest.approx(
        values["budget.p50_ms"], rel=1e-6
    )
    assert values["isa.vm.frame_ms"] > 0 and values["core.conv2d_batch_ms"] > 0
    assert (values["finn.offload_ms"] > 0) == (workload == "tincy_hybrid")
    assert (values["serve.submit_ms_p50"] > 0) == workload.startswith("cnv6")
    if workload == "cnv6_shard":
        assert values["serve.admission.result_cache_hit_share"] == 0
        assert values["serve.admission.coalesced_share"] == 0
    if workload == "cnv6_shard_dup":
        shared = (values["serve.admission.result_cache_hit_share"]
                  + values["serve.admission.coalesced_share"])
        assert 0.6 < shared < 0.8
    trace_file = os.path.join(BENCH, "out", f"trace-{workload}-seed3.json")
    with open(trace_file) as handle:
        document = json.load(handle)
    assert document["spans"] and set(document["spans"][0]) == {
        "id", "name", "start", "end", "parent", "rid"
    }
    assert set(document["budget_ms"]) >= {"p50"}


def test_nothing_is_left_behind_and_an_empty_checkout_is_refused(tmp_path):
    leftovers = [n for n in os.listdir(os.path.join(BENCH, "out")) if not n.startswith("trace-")]
    assert leftovers == []
    # A directory holding only BENCHMARK.json and bench/: non-zero, no result.
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bare / "bench" / name).write_text(open(os.path.join(BENCH, name)).read())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cnv6_serve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
