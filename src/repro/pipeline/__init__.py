"""The pipelined demo mode of §III-F (Fig. 5/6).

Single-slot stage buffers (:mod:`repro.pipeline.buffers`), the
most-mature-first no-overtake scheduler (:mod:`repro.pipeline.scheduler`)
and a deterministic discrete-event simulator with per-worker traces
(:mod:`repro.pipeline.simulate`, :mod:`repro.pipeline.trace`) are the
paper's timing model.  The demo itself (:mod:`repro.pipeline.demo`) runs
on the product: a :class:`~repro.serve.server.InferenceServer` executes
each frame's CPU and FABRIC stage jobs on its worker pool.
"""

from repro.pipeline.batching import forward_frames, iter_batches
from repro.pipeline.buffers import StageBuffer
from repro.pipeline.demo import DemoPayload, run_demo
from repro.pipeline.scheduler import CPU, FABRIC, PipelineTopology, StageDescriptor
from repro.pipeline.simulate import (
    DEFAULT_JOB_OVERHEAD_S,
    PipelineSimulator,
    SimResult,
    sequential_time,
)
from repro.pipeline.trace import PipelineTrace, TraceEntry

__all__ = [
    "StageBuffer",
    "iter_batches",
    "forward_frames",
    "StageDescriptor",
    "PipelineTopology",
    "CPU",
    "FABRIC",
    "PipelineSimulator",
    "SimResult",
    "sequential_time",
    "DEFAULT_JOB_OVERHEAD_S",
    "PipelineTrace",
    "TraceEntry",
    "DemoPayload",
    "run_demo",
]
