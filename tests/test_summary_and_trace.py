"""Network summary and pipeline-trace tests."""

import pytest

from repro.nn.network import Network
from repro.nn.summary import network_summary, summary_rows
from repro.nn.zoo import tincy_yolo_config
from repro.pipeline.scheduler import FABRIC, StageDescriptor
from repro.pipeline.simulate import PipelineSimulator


class TestSummary:
    def test_tincy_summary_rows(self):
        network = Network(tincy_yolo_config())
        rows = summary_rows(network)
        assert len(rows) == len(network.layers)
        # first row: stride-2 input conv, float/A3 regime
        assert rows[0][1] == "convolutional"
        assert "16 x 3x3/2" in rows[0][2]
        assert rows[0][5] == "A3"
        # hidden rows carry the W1A3 regime (row 1 = the first hidden conv;
        # modification (d) removed the pool that used to sit between them)
        assert rows[1][5] == "W1A3"

    def test_summary_text_contains_total(self):
        network = Network(tincy_yolo_config())
        text = network_summary(network, title="Tincy YOLO")
        assert "Tincy YOLO" in text
        assert "4,445,001,496" in text

    def test_offload_layer_summarized(self, rng, tmp_path):
        import repro.finn  # noqa: F401
        from repro.finn.offload_backend import export_offload
        from tests.test_finn_offload import FULL_CFG, HYBRID_CFG_TEMPLATE, _trained

        full = _trained(rng, FULL_CFG)
        binparam = str(tmp_path / "binparam")
        export_offload(
            full.layers[1:4],
            input_scale=full.layers[0].out_quant.scale,
            input_shape=full.layers[0].out_shape,
            directory=binparam,
        )
        hybrid = Network.from_cfg(HYBRID_CFG_TEMPLATE.format(binparam=binparam))
        rows = summary_rows(hybrid)
        offload_row = rows[1]
        assert offload_row[1] == "offload"
        assert "fabric.so" in offload_row[2]
        assert offload_row[6] > 0  # ops reported by the backend


def _stages(durations, fabric_index=None):
    return [
        StageDescriptor(
            name=f"s{i}",
            duration_s=d,
            resource=FABRIC if i == fabric_index else "cpu",
        )
        for i, d in enumerate(durations)
    ]


class TestTrace:
    def test_trace_agrees_with_fast_simulator(self):
        stages = _stages([0.01, 0.02, 0.015, 0.02], fabric_index=2)
        fast = PipelineSimulator(stages, workers=3, job_overhead_s=0.002).run(40)
        trace = PipelineSimulator(stages, workers=3, job_overhead_s=0.002).run(40).trace()
        assert trace.total_time_s == pytest.approx(fast.total_time_s, rel=1e-9)

    def test_every_frame_passes_every_stage(self):
        stages = _stages([0.01, 0.01, 0.01])
        trace = PipelineSimulator(stages, workers=2, job_overhead_s=0.0).run(10).trace()
        for frame in range(10):
            visited = sorted(
                e.stage for e in trace.entries if e.frame == frame
            )
            assert visited == [0, 1, 2]

    def test_no_worker_runs_two_jobs_at_once(self):
        stages = _stages([0.01, 0.02, 0.015])
        trace = PipelineSimulator(stages, workers=4, job_overhead_s=0.001).run(30).trace()
        for worker in range(4):
            entries = trace.worker_entries(worker)
            for earlier, later in zip(entries, entries[1:]):
                assert later.start_s >= earlier.end_s - 1e-12

    def test_fabric_jobs_never_overlap(self):
        stages = _stages([0.01, 0.02, 0.01], fabric_index=1)
        trace = PipelineSimulator(stages, workers=4, job_overhead_s=0.0).run(30).trace()
        fabric_jobs = sorted(
            (e for e in trace.entries if e.stage == 1), key=lambda e: e.start_s
        )
        for earlier, later in zip(fabric_jobs, fabric_jobs[1:]):
            assert later.start_s >= earlier.end_s - 1e-12

    def test_busy_fractions_bounded(self):
        stages = _stages([0.01] * 4)
        trace = PipelineSimulator(stages, workers=2, job_overhead_s=0.0).run(20).trace()
        for worker in range(2):
            assert 0.0 < trace.busy_fraction(worker) <= 1.0

    def test_gantt_renders(self):
        stages = _stages([0.01, 0.02, 0.015])
        trace = PipelineSimulator(stages, workers=2, job_overhead_s=0.0).run(10).trace()
        text = trace.render_gantt(width=40)
        lines = text.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("worker") for line in lines)
        assert "0" in text and "1" in text  # stage glyphs appear

    def test_stage_occupancy_sums_below_one(self):
        stages = _stages([0.01, 0.02])
        trace = PipelineSimulator(stages, workers=4, job_overhead_s=0.0).run(20).trace()
        total = sum(trace.stage_occupancy().values())
        assert 0.0 < total <= 1.0 + 1e-9
