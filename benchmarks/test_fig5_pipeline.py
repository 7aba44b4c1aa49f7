"""Fig. 5 — the pipeline stages of the new demo mode.

The paper's pipeline is four stages longer than the underlying network
(#0 read frame, #1 letter boxing, per-layer stages, N+2 object boxing,
N+3 frame drawing) and reaches 16 fps on four cores.  We regenerate the
stage list with its modeled durations, simulate it deterministically and
benchmark the simulator itself.
"""

import pytest

from repro.perf.ladder import ladder_steps
from repro.pipeline.scheduler import StageDescriptor
from repro.pipeline.simulate import DEFAULT_JOB_OVERHEAD_S, PipelineSimulator
from repro.util.tables import format_table


@pytest.fixture(scope="module")
def pipeline_step():
    return ladder_steps()[-1]


def test_fig5_stage_breakdown(benchmark, pipeline_step, report):
    benchmark(lambda: sum(s.seconds for s in pipeline_step.stages))
    rows = [
        (stage.name, f"{stage.milliseconds:6.1f} ms", stage.resource)
        for stage in pipeline_step.stages
    ]
    rows.append(("=> pipelined frame rate", f"{pipeline_step.fps:6.2f} fps",
                 "4 workers"))
    report(
        "Fig. 5: demo-mode pipeline stages (modeled, paper: 16 fps)",
        format_table(["Stage", "Duration", "Resource"], rows),
    )
    # Fig. 5's structure: read + letterbox + 3 layer groups + boxing + drawing.
    assert len(pipeline_step.stages) == 7
    assert 14.0 <= pipeline_step.fps <= 18.5


def test_fig5_worker_gantt(benchmark, pipeline_step, report):
    """A traced run of the Fig. 5 pipeline, rendered as a worker timeline."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    descriptors = [
        StageDescriptor(
            name=stage.name,
            duration_s=stage.seconds,
            resource="fabric" if stage.resource == "fabric" else "cpu",
        )
        for stage in pipeline_step.stages
    ]
    trace = PipelineSimulator(
        descriptors, workers=4, job_overhead_s=DEFAULT_JOB_OVERHEAD_S
    ).run(12).trace()
    legend = "  ".join(
        f"{index}={stage.name}" for index, stage in enumerate(descriptors)
    )
    busy = "  ".join(
        f"w{w}: {trace.busy_fraction(w) * 100:.0f}%" for w in range(4)
    )
    report(
        "Fig. 5: worker timeline of the pipelined demo "
        "(glyph = stage index, '.' = idle)",
        trace.render_gantt(width=76) + f"\n{legend}\nutilization: {busy}",
    )
    for worker in range(4):
        assert 0.0 < trace.busy_fraction(worker) <= 1.0


def test_fig5_simulator_throughput(benchmark, pipeline_step):
    descriptors = [
        StageDescriptor(
            name=stage.name,
            duration_s=stage.seconds,
            resource="fabric" if stage.resource == "fabric" else "cpu",
        )
        for stage in pipeline_step.stages
    ]
    simulator = PipelineSimulator(
        descriptors, workers=4, job_overhead_s=DEFAULT_JOB_OVERHEAD_S
    )
    result = benchmark(simulator.run, 200)
    assert result.completion_order == list(range(200))
    assert 14.0 <= result.fps <= 18.5
