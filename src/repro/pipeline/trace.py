"""Pipeline execution tracing and text Gantt rendering.

The §III-F analysis lives and dies by *where the workers spend their
time*: every simulated run records each job (worker, stage, frame, start,
end), and :meth:`~repro.pipeline.simulate.SimResult.trace` renders them as
a per-worker timeline, making stalls — fabric contention, empty input
buffers, the no-overtake discipline — visible in plain text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class TraceEntry:
    """One executed job."""

    worker: int
    stage: int
    stage_name: str
    frame: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class PipelineTrace:
    """The jobs of one simulated run, per worker."""

    entries: List[TraceEntry]
    workers: int
    total_time_s: float

    def worker_entries(self, worker: int) -> List[TraceEntry]:
        return sorted(
            (e for e in self.entries if e.worker == worker),
            key=lambda e: e.start_s,
        )

    def busy_fraction(self, worker: int) -> float:
        busy = sum(e.duration_s for e in self.entries if e.worker == worker)
        return busy / self.total_time_s if self.total_time_s else 0.0

    def stage_occupancy(self) -> Dict[str, float]:
        """Fraction of total wall time each stage kept *some* worker busy."""
        byname: Dict[str, float] = {}
        for entry in self.entries:
            byname[entry.stage_name] = byname.get(entry.stage_name, 0.0) + (
                entry.duration_s
            )
        return {
            name: time / (self.total_time_s * self.workers)
            for name, time in byname.items()
        }

    def render_gantt(self, width: int = 72, max_time_s: Optional[float] = None) -> str:
        """Per-worker timeline; each job prints its stage index, idle is '.'"""
        horizon = max_time_s if max_time_s is not None else self.total_time_s
        if horizon <= 0:
            return ""
        lines = []
        for worker in range(self.workers):
            cells = ["."] * width
            for entry in self.worker_entries(worker):
                if entry.start_s >= horizon:
                    continue
                start = int(entry.start_s / horizon * width)
                end = max(start + 1, int(min(entry.end_s, horizon) / horizon * width))
                glyph = _stage_glyph(entry.stage)
                for pos in range(start, min(end, width)):
                    cells[pos] = glyph
            lines.append(f"worker {worker}: " + "".join(cells))
        return "\n".join(lines)


def _stage_glyph(stage_index: int) -> str:
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
    return glyphs[stage_index % len(glyphs)]


__all__ = ["TraceEntry", "PipelineTrace"]
