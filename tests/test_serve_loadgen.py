"""The ``repro serve-bench`` load generator over the front door, N >= 0 shards."""

import json

import pytest

from repro.cli import main
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve import ShardTierConfig
from repro.serve.loadgen import default_chaos_plan, format_report, run_load
from repro.serve.shard import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="shard tier needs the fork start method"
)


@pytest.fixture()
def mlp4(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    return network


class TestSingleProcess:
    def test_completes_all_requests(self, mlp4):
        # arrival_hz=None: back-to-back submission, no sleeping — the run
        # has no wall-clock dependence in this mode.
        report = run_load(
            mlp4, ShardTierConfig(shards=0, max_batch=4, cpu_workers=2),
            requests=10, seed=0,
        )
        assert report["shards"] == 0
        assert report["requests"] == 10
        metrics = report["metrics"]
        assert metrics["accepted"] + metrics["shed"] == 10
        assert metrics["completed"] == metrics["accepted"]
        assert metrics["failed"] == 0
        assert report["wall_seconds"] > 0
        total_batched = sum(
            int(size) * count
            for size, count in metrics["batch_histogram"].items()
        )
        assert total_batched == metrics["completed"]
        assert report["bit_identical"] is True

    def test_cold_start_is_a_cache_hit(self, mlp4):
        # run_load warms the plan cache before the measured server comes
        # up, so the reported cold start is the warm-restart story.
        report = run_load(
            mlp4, ShardTierConfig(shards=0, max_batch=2), requests=4, seed=0
        )
        cold = report["metrics"]["plan_cache"]
        assert cold["plan_cache_hit"] is True
        assert cold["plan_source"] == "cache-hit"
        assert cold["cold_start_ms"] > 0.0
        assert "cold start" in format_report(report)

    def test_open_loop_arrivals(self, mlp4):
        report = run_load(
            mlp4, ShardTierConfig(shards=0, max_batch=2), requests=6,
            arrival_hz=5000.0, seed=7,
        )
        assert report["arrival_hz"] == 5000.0
        assert report["metrics"]["completed"] == report["metrics"]["accepted"]

    def test_validation(self, mlp4):
        with pytest.raises(ValueError, match="at least one request"):
            run_load(mlp4, requests=0)
        with pytest.raises(ValueError, match="arrival_hz"):
            run_load(mlp4, requests=1, arrival_hz=-1.0)

    def test_throughput_counts_completed_not_shed(self, mlp4):
        # A one-slot queue under back-to-back submission sheds; shed
        # requests were never served and must not count as throughput.
        report = run_load(
            mlp4, ShardTierConfig(shards=0, max_queue_depth=1, max_batch=1),
            requests=64,
        )
        completed = report["metrics"]["completed"]
        assert report["metrics"]["shed"] == report["shed_at_submit"] > 0
        assert completed < report["requests"]
        assert report["throughput_rps"] * report["wall_seconds"] == pytest.approx(
            completed
        )

    def test_fault_transcript_slo_and_bit_identity(self, mlp4):
        # One process now reports what the tier always did: the fault
        # transcript digest, the SLO section and the bit-identity check.
        def run():
            return run_load(
                mlp4, ShardTierConfig(shards=0, max_batch=4), requests=16,
                faults="worker-death@1", fault_seed=3,
            )

        first, second = run(), run()
        for report in (first, second):
            assert report["faults"]["events"] == [
                ["serve.worker", "worker-death", 1, ""]
            ]
            assert report["metrics"]["resilience"]["worker_deaths"] == 1
            assert report["metrics"]["completed"] == 16
            assert report["bit_identical"] is True
            assert set(report["slo"]) == {
                "p99_ms", "p99_slo_ms", "degraded_fraction", "degraded_slo", "ok",
            }
        assert (
            first["faults"]["transcript_sha256"]
            == second["faults"]["transcript_sha256"]
        )


class TestShardTier:
    def test_default_chaos_plan_is_explicit_and_scaled(self):
        plan = default_chaos_plan(1000, seed=7)
        assert [spec.kind for spec in plan.specs] == [
            "shard-kill", "shard-slow", "router-split",
        ]
        kill, slow, split = plan.specs
        assert kill.at == (20,)  # one early permanent kill
        assert slow.at[0] == 125 and all(at < 1000 for at in slow.at)
        assert slow.hang_s < 0.01  # slow, never heartbeat-timeout hung
        assert split.at[0] == 166 and split.span == 64
        assert plan.seed == 7
        # Every selector is explicit: the transcript is a pure function
        # of the submission sequence, no rate-based randomness anywhere.
        assert all(spec.rate == 0.0 for spec in plan.specs)
        # Tiny request counts still produce a valid plan.
        tiny = default_chaos_plan(4)
        assert tiny.specs[0].at == (1,)

    @pytest.mark.integration
    @needs_fork
    def test_report_schema(self, mlp4):
        report = run_load(
            mlp4, ShardTierConfig(shards=2), requests=24, distinct_frames=6,
            seed=3,
        )
        assert report["shards"] == 2
        assert report["requests"] == 24
        assert report["distinct_frames"] == 6
        assert report["metrics"]["completed"] == 24
        assert report["metrics"]["failed"] == 0
        # 6 distinct frames rotate through 24 requests: the LRU answers
        # every repeat (coalescing may take a few on racy timing).
        tier = report["metrics"]["shard_tier"]
        assert tier["result_cache_hits"] + tier["coalesced"] == 18
        assert report["bit_identical"] is True
        assert report["bit_identity_mismatches"] == []
        assert set(report["slo"]) == {
            "p99_ms", "p99_slo_ms", "degraded_fraction", "degraded_slo", "ok",
        }
        assert "faults" not in report  # no plan installed

    @pytest.mark.integration
    @needs_fork
    def test_fault_transcript_is_deterministic(self, mlp4):
        def run():
            return run_load(
                mlp4, ShardTierConfig(shards=3, result_cache=0), requests=30,
                distinct_frames=8, faults="shard-kill@5", fault_seed=7,
            )

        first, second = run(), run()
        for report in (first, second):
            assert report["faults"]["events"] == [
                ["shard.kill", "shard-kill", 5, ""]
            ]
            assert report["metrics"]["shard_tier"]["shard_deaths"] == 1
            assert report["metrics"]["completed"] == 30
            assert report["bit_identical"] is True
        assert (
            first["faults"]["transcript_sha256"]
            == second["faults"]["transcript_sha256"]
        )


class TestServeBenchCli:
    def test_single_process_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "serve-bench", "--network", "mlp4", "--requests", "8",
            "--max-batch", "4", "--queue-depth", "16", "--cpu-workers", "2",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["network"] == "mlp4"
        assert report["shards"] == 0
        assert report["config"]["max_queue_depth"] == 16
        assert report["metrics"]["completed"] == 8
        assert "report written" in capsys.readouterr().out

    @pytest.mark.integration
    @needs_fork
    def test_shard_mode(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "serve-bench", "--network", "mlp4", "--shards", "2",
            "--requests", "20", "--faults", "shard-kill@4",
            "--fault-seed", "7", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["shards"] == 2
        assert report["slo"]["ok"] is True
        assert report["bit_identical"] is True
        assert report["metrics"]["shard_tier"]["shard_deaths"] == 1
        printed = capsys.readouterr().out
        assert "shard tier" in printed and "SLO" in printed

    @pytest.mark.integration
    @needs_fork
    def test_pinned_tier_transcript_digest(self, tmp_path):
        # The tier's fault transcript is a pure function of the submission
        # sequence; this digest is pinned across refactors of run_load.
        digests = []
        for run in range(2):
            out = tmp_path / f"run{run}.json"
            main([
                "serve-bench", "--network", "mlp4", "--shards", "3",
                "--requests", "30", "--faults", "shard-kill@5",
                "--fault-seed", "7", "--result-cache", "0",
                "--output", str(out),
            ])
            digests.append(json.loads(out.read_text())["faults"]["transcript_sha256"])
        assert digests == [
            "c01206eedc1ea0aed5a25a3b8c2a6fd4803b8a241402f564f94700c972ab5765"
        ] * 2

    def test_chaos_needs_shards(self, capsys):
        assert main(["serve-bench", "--network", "mlp4", "--chaos"]) == 2
        assert "--chaos cannot apply without --shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shards",
        [pytest.param(0, id="0shards"), pytest.param(2, marks=needs_fork, id="2shards")],
    )
    @pytest.mark.parametrize(
        "flag, value, key, expected",
        [
            pytest.param("--max-batch", "4", "max_batch", 4, id="max-batch"),
            pytest.param("--max-delay-ms", "1", "max_delay_s", 0.001, id="max-delay-ms"),
            pytest.param("--queue-depth", "16", "max_queue_depth", 16, id="queue-depth"),
            pytest.param("--cpu-workers", "1", "cpu_workers", 1, id="cpu-workers"),
            pytest.param("--result-cache", "0", "result_cache", 0, id="result-cache"),
        ],
    )
    def test_knobs_apply(self, flag, value, key, expected, shards, tmp_path):
        # Every knob configures the one front door and each engine behind
        # it, whatever the shard count.
        out = tmp_path / "report.json"
        code = main([
            "serve-bench", "--network", "mlp4", "--shards", str(shards),
            "--requests", "16", flag, value, "--output", str(out),
            "--slo-p99-ms", "60000",  # knobs under test, not latency
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["shards"] == shards
        assert report["config"][key] == expected
        assert report["config"]["max_in_flight"] <= report["config"]["max_queue_depth"]
        assert report["metrics"]["admission"]["max_in_flight"] == (
            report["config"]["max_in_flight"]
        )
        assert report["metrics"]["result_cache"]["capacity"] == (
            report["config"]["result_cache"]
        )
        assert report["metrics"]["completed"] == 16
        assert report["bit_identical"] is True

    def test_result_cache_answers_repeats_without_shards(self, mlp4):
        report = run_load(
            mlp4, ShardTierConfig(shards=0), requests=16, distinct_frames=4
        )
        tier = report["metrics"]["shard_tier"]
        assert tier["result_cache_hits"] + tier["coalesced"] == 12
        assert tier["inline_fallbacks"] == 0
        assert report["slo"]["degraded_fraction"] == 0.0
        assert report["bit_identical"] is True
        disabled = run_load(
            mlp4, ShardTierConfig(shards=0, result_cache=0, coalesce=False),
            requests=16, distinct_frames=4,
        )
        assert disabled["metrics"]["shard_tier"]["result_cache_hits"] == 0
        assert sum(
            int(size) * count
            for size, count in disabled["metrics"]["batch_histogram"].items()
        ) == 16
