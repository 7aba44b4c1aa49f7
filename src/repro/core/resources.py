"""Canonical execution-resource tags of the heterogeneous platform.

The paper's Zynq UltraScale+ target has many interchangeable CPU/NEON
cores but exactly *one* FINN dataflow engine on the programmable fabric
(§III-F).  Everything that schedules work — the pipeline simulator, the
plan VM's stage cut, the serving worker pool that runs those stages, and
the execution engine's :class:`~repro.engine.plan.PlanStep` — keys its
routing and serialization off these two tags.

They live in :mod:`repro.core` so the layer classes (:mod:`repro.nn`) can
declare the resource they occupy without depending on the pipeline or
serving subsystems; :mod:`repro.pipeline.scheduler` re-exports them for
backwards compatibility.
"""

from __future__ import annotations

#: Plain CPU work: fans out over any number of interchangeable workers.
CPU = "cpu"

#: The single serialized FINN fabric engine: at most one job at a time.
FABRIC = "fabric"

__all__ = ["CPU", "FABRIC"]
