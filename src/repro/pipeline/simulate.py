"""Discrete-event simulation of the pipelined demo mode: its timing model.

The simulator executes the Fig. 5 pipeline on ``n`` worker threads pinned
to ``n`` cores, with the Fig. 6 buffer discipline and the most-mature-first
job selection.  It is deterministic, so the frame-rate numbers of the
benchmarks are reproducible, and every run records its jobs
(:attr:`SimResult.entries`) for the per-worker Gantt of
:mod:`repro.pipeline.trace`.  The served pipeline — a frame's CPU and
FABRIC stage jobs on the serving pool — is :mod:`repro.serve`'s.

Per-job *overhead* models the synchronization cost the paper fights in
§III-F: lock competition at the stage boundaries plus scheduling latency.
The finer the stage division, the more the overhead bites — which is why
splitting stages only pays off "in a pipelined parallel execution".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.pipeline.scheduler import CPU, PipelineTopology, StageDescriptor
from repro.pipeline.trace import PipelineTrace, TraceEntry

#: Default synchronization overhead per executed job (lock handover,
#: scheduling latency, and feature-map cache migration between pinned
#: cores).  Calibrated once so the Fig. 5 pipeline reproduces the paper's
#: observed dilution of the theoretical 4x core speedup to ~2.8x (16 fps).
DEFAULT_JOB_OVERHEAD_S = 10.0e-3


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    n_frames: int
    total_time_s: float
    frame_completion_s: List[float]
    completion_order: List[int]
    workers: int
    #: Every executed job, in dispatch order.
    entries: List[TraceEntry]

    @property
    def worker_busy_s(self) -> List[float]:
        """Seconds each worker spent running jobs."""
        busy = [0.0] * self.workers
        for entry in self.entries:
            busy[entry.worker] += entry.duration_s
        return busy

    @property
    def fps(self) -> float:
        """Steady-state frame rate (first frame's fill latency excluded)."""
        if self.n_frames < 2:
            return self.n_frames / self.total_time_s
        span = self.frame_completion_s[-1] - self.frame_completion_s[0]
        return (self.n_frames - 1) / span if span > 0 else float("inf")

    @property
    def latency_s(self) -> float:
        """Time from start to the first completed frame."""
        return self.frame_completion_s[0]

    def worker_utilization(self) -> List[float]:
        return [busy / self.total_time_s for busy in self.worker_busy_s]

    def trace(self) -> PipelineTrace:
        """The run's jobs as a per-worker :class:`PipelineTrace`."""
        return PipelineTrace(
            entries=self.entries,
            workers=self.workers,
            total_time_s=self.total_time_s,
        )


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    worker: int = field(compare=False)
    stage: int = field(compare=False)
    frame: int = field(compare=False)


class PipelineSimulator:
    """Deterministic n-worker simulation of one pipeline topology."""

    def __init__(
        self,
        stages: Sequence[StageDescriptor],
        workers: int = 4,
        job_overhead_s: float = DEFAULT_JOB_OVERHEAD_S,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.stage_list = list(stages)
        self.workers = workers
        self.job_overhead_s = job_overhead_s

    def run(self, n_frames: int = 100) -> SimResult:
        if n_frames < 1:
            raise ValueError("need at least one frame")
        topology = PipelineTopology(self.stage_list)
        n_stages = len(topology)
        running: Set[int] = set()
        busy_resources: Set[str] = set()
        #: frame id travelling through each stage / buffer
        buffer_frame: Dict[int, int] = {}
        next_input_frame = 0
        idle_workers = list(range(self.workers))
        entries: List[TraceEntry] = []
        events: List[_Event] = []
        seq = 0
        now = 0.0
        completions: List[Tuple[float, int]] = []

        def try_dispatch() -> None:
            nonlocal next_input_frame, seq
            while idle_workers:
                # The source runs dry after n_frames: then only frames in
                # flight are advanced.
                choice = topology.select_job(
                    running, busy_resources, admit=next_input_frame < n_frames
                )
                if choice is None:
                    break
                stage = topology.stages[choice]
                # Claim input and output.
                if choice == 0:
                    frame = next_input_frame
                    next_input_frame += 1
                else:
                    frame = buffer_frame.pop(choice - 1)
                    topology.buffers[choice - 1].take()
                topology.buffers[choice].begin_produce()
                running.add(choice)
                if stage.resource != CPU:
                    busy_resources.add(stage.resource)
                worker = idle_workers.pop(0)
                duration = stage.duration_s + self.job_overhead_s
                entries.append(
                    TraceEntry(
                        worker=worker,
                        stage=choice,
                        stage_name=stage.name,
                        frame=frame,
                        start_s=now,
                        end_s=now + duration,
                    )
                )
                seq += 1
                heapq.heappush(
                    events, _Event(now + duration, seq, worker, choice, frame)
                )

        try_dispatch()
        while events:
            event = heapq.heappop(events)
            now = event.time
            stage = topology.stages[event.stage]
            running.discard(event.stage)
            if stage.resource != CPU:
                busy_resources.discard(stage.resource)
            topology.buffers[event.stage].finish_produce(event.frame)
            buffer_frame[event.stage] = event.frame
            idle_workers.append(event.worker)
            idle_workers.sort()
            if event.stage == n_stages - 1:
                # The sink is always free: drain immediately.
                topology.buffers[event.stage].take()
                buffer_frame.pop(event.stage)
                completions.append((now, event.frame))
            try_dispatch()

        completions.sort()
        return SimResult(
            n_frames=n_frames,
            total_time_s=now,
            frame_completion_s=[t for t, _ in completions],
            completion_order=[f for _, f in completions],
            workers=self.workers,
            entries=entries,
        )


def sequential_time(stages: Sequence[StageDescriptor]) -> float:
    """Frame time of the same stages run strictly one after the other."""
    return sum(stage.duration_s for stage in stages)


__all__ = [
    "DEFAULT_JOB_OVERHEAD_S",
    "SimResult",
    "PipelineSimulator",
    "sequential_time",
]
