"""Job selection for the pipelined demo mode (§III-F).

"A new job is selected for execution by finding the most mature one whose
output buffer is free and whose input buffer has data pending.  The video
source and sink are always available and free, respectively."

The discrete-event simulator describes the pipeline as a list of
:class:`StageDescriptor` and asks :meth:`PipelineTopology.select_job`
which stage should run next given the buffer states and resource
occupancy.  The serving pool (:mod:`repro.serve.workers`) runs a served
frame's stage jobs by the same most-mature-first rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.core.resources import CPU, FABRIC
from repro.pipeline.buffers import StageBuffer


@dataclass
class StageDescriptor:
    """One pipeline stage: a name, its duration, and the resource it occupies."""

    name: str
    #: Seconds one job of this stage takes.
    duration_s: float = 0.0
    resource: str = CPU


class PipelineTopology:
    """Stages plus their inter-stage buffers.

    ``buffers[i]`` is the *output* buffer of stage ``i``; stage ``i``
    consumes ``buffers[i-1]``.  Stage 0 consumes the always-available video
    source; the last buffer drains into the always-free sink, so the final
    stage's output buffer is conceptually the sink and is modeled as a
    buffer that is taken immediately by the harness.
    """

    def __init__(self, stages: Sequence[StageDescriptor]) -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        self.stages = list(stages)
        self.buffers: List[StageBuffer] = [
            StageBuffer(name=f"out:{stage.name}") for stage in self.stages
        ]

    def __len__(self) -> int:
        return len(self.stages)

    def stage_runnable(
        self, index: int, running: Set[int], busy_resources: Set[str]
    ) -> bool:
        """Can stage *index* start a job right now?"""
        if index in running:
            return False  # single engine per stage: no frame overtakes another
        stage = self.stages[index]
        if stage.resource != CPU and stage.resource in busy_resources:
            return False
        if not self.buffers[index].is_free():
            return False
        if index == 0:
            return True  # the video source is always available
        return self.buffers[index - 1].has_data()

    def select_job(
        self, running: Set[int], busy_resources: Set[str], admit: bool = True
    ) -> Optional[int]:
        """Most mature runnable stage, or ``None``.

        "Most mature" = closest to the video sink, i.e. the highest stage
        index; this drains frames in flight before admitting new ones and
        (with single-slot buffers) makes overtaking impossible.  With
        *admit* False the source has run dry and stage 0 is never chosen.
        """
        for index in range(len(self.stages) - 1, -1 if admit else 0, -1):
            if self.stage_runnable(index, running, busy_resources):
                return index
        return None


__all__ = ["CPU", "FABRIC", "StageDescriptor", "PipelineTopology"]
