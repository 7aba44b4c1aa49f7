"""Pipeline tests: buffers (Fig. 6), scheduler, discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.buffers import StageBuffer
from repro.pipeline.scheduler import CPU, FABRIC, PipelineTopology, StageDescriptor
from repro.pipeline.simulate import PipelineSimulator, sequential_time


class TestStageBuffer:
    def test_fig6_state_cycle(self):
        buffer = StageBuffer("b")
        assert buffer.is_free()
        buffer.begin_produce()
        assert buffer.state == StageBuffer.PRODUCING
        buffer.finish_produce("frame-0")
        assert buffer.has_data()
        assert buffer.peek() == "frame-0"
        assert buffer.take() == "frame-0"
        assert buffer.is_free()

    def test_double_produce_rejected(self):
        buffer = StageBuffer()
        buffer.begin_produce()
        with pytest.raises(RuntimeError, match="produce"):
            buffer.begin_produce()

    def test_take_empty_rejected(self):
        with pytest.raises(RuntimeError, match="take"):
            StageBuffer().take()

    def test_finish_without_begin_rejected(self):
        with pytest.raises(RuntimeError, match="finish_produce"):
            StageBuffer().finish_produce(1)


def _stages(durations, fabric_index=None):
    stages = []
    for index, duration in enumerate(durations):
        resource = FABRIC if index == fabric_index else CPU
        stages.append(
            StageDescriptor(name=f"s{index}", duration_s=duration, resource=resource)
        )
    return stages


class TestScheduler:
    def test_most_mature_first(self):
        topology = PipelineTopology(_stages([1, 1, 1]))
        # Fill buffer 0 and 1: stage 2 (most mature) must be chosen.
        topology.buffers[0].begin_produce()
        topology.buffers[0].finish_produce("f0")
        topology.buffers[1].begin_produce()
        topology.buffers[1].finish_produce("f1")
        assert topology.select_job(set(), set()) == 2

    def test_source_always_available(self):
        topology = PipelineTopology(_stages([1, 1]))
        assert topology.select_job(set(), set()) == 0

    def test_dry_source_admits_no_frame(self):
        topology = PipelineTopology(_stages([1, 1]))
        assert topology.select_job(set(), set(), admit=False) is None
        topology.buffers[0].begin_produce()
        topology.buffers[0].finish_produce("f")
        assert topology.select_job(set(), set(), admit=False) == 1

    def test_busy_fabric_blocks_stage(self):
        topology = PipelineTopology(_stages([1, 1], fabric_index=1))
        topology.buffers[0].begin_produce()
        topology.buffers[0].finish_produce("f")
        # With the fabric busy nothing can run: stage 1 needs the fabric and
        # stage 0's output buffer is still occupied.
        assert topology.select_job(set(), {FABRIC}) is None
        assert topology.select_job(set(), set()) == 1

    def test_full_output_buffer_blocks(self):
        topology = PipelineTopology(_stages([1, 1]))
        topology.buffers[0].begin_produce()
        topology.buffers[0].finish_produce("f")
        # stage 1 is running (its output considered), stage 0's output full:
        assert topology.select_job({1}, set()) is None

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PipelineTopology([])


class TestSimulator:
    def test_single_stage_throughput(self):
        result = PipelineSimulator(
            _stages([0.010]), workers=1, job_overhead_s=0.0
        ).run(50)
        assert result.fps == pytest.approx(100.0, rel=0.02)

    def test_frames_complete_in_order(self):
        result = PipelineSimulator(
            _stages([0.005, 0.020, 0.003, 0.010]), workers=4, job_overhead_s=0.001
        ).run(100)
        assert result.completion_order == sorted(result.completion_order)

    def test_pipeline_beats_sequential(self):
        stages = _stages([0.02, 0.03, 0.025, 0.03, 0.02, 0.025])
        sim = PipelineSimulator(stages, workers=4, job_overhead_s=0.0).run(100)
        sequential_fps = 1.0 / sequential_time(stages)
        assert sim.fps > 2.0 * sequential_fps

    def test_speedup_bounded_by_cores_and_bottleneck(self):
        stages = _stages([0.02, 0.03, 0.025, 0.03, 0.02, 0.025])
        sim = PipelineSimulator(stages, workers=4, job_overhead_s=0.0).run(200)
        sequential_fps = 1.0 / sequential_time(stages)
        # Allow 1% slack: fps is measured from the first completion, which
        # excludes the pipeline-fill work already in flight at that instant.
        assert sim.fps <= 4.0 * sequential_fps * 1.01
        assert sim.fps <= (1.0 / 0.03) * 1.01  # bottleneck stage bound

    def test_fabric_stage_serializes(self):
        # Two-stage pipeline where both stages need the fabric: throughput
        # halves compared to CPU-only stages.
        fabric_stages = [
            StageDescriptor("a", duration_s=0.01, resource=FABRIC),
            StageDescriptor("b", duration_s=0.01, resource=FABRIC),
        ]
        cpu_stages = _stages([0.01, 0.01])
        fps_fabric = PipelineSimulator(fabric_stages, 4, 0.0).run(100).fps
        fps_cpu = PipelineSimulator(cpu_stages, 4, 0.0).run(100).fps
        assert fps_cpu > 1.8 * fps_fabric

    def test_more_workers_help_until_stage_count(self):
        stages = _stages([0.01] * 6)
        fps = [
            PipelineSimulator(stages, workers=n, job_overhead_s=0.0).run(100).fps
            for n in (1, 2, 4, 6)
        ]
        assert fps[0] < fps[1] < fps[2] <= fps[3] + 1e-9

    def test_overhead_hurts_finer_division(self):
        """§III-F's tradeoff: splitting a stage helps with free sync but the
        per-job overhead can eat the gain."""
        coarse = _stages([0.040, 0.040])
        fine = _stages([0.020, 0.020, 0.020, 0.020])
        fps_fine_free = PipelineSimulator(fine, 4, 0.0).run(200).fps
        fps_coarse_free = PipelineSimulator(coarse, 4, 0.0).run(200).fps
        assert fps_fine_free > fps_coarse_free
        fps_fine_tax = PipelineSimulator(fine, 2, 0.015).run(200).fps
        fps_coarse_tax = PipelineSimulator(coarse, 2, 0.015).run(200).fps
        assert fps_fine_tax < fps_coarse_tax * 1.15

    @given(
        durations=st.lists(st.floats(0.001, 0.05), min_size=1, max_size=8),
        workers=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_no_overtake_property(self, durations, workers):
        result = PipelineSimulator(
            _stages(durations), workers=workers, job_overhead_s=0.001
        ).run(30)
        assert result.completion_order == list(range(30))
        assert len(result.frame_completion_s) == 30

    def test_worker_utilization_sane(self):
        result = PipelineSimulator(_stages([0.01] * 4), 4, 0.0).run(100)
        for u in result.worker_utilization():
            assert 0.0 <= u <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSimulator(_stages([0.01]), workers=0)
        with pytest.raises(ValueError):
            PipelineSimulator(_stages([0.01]), workers=1).run(0)
