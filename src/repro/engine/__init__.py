"""repro.engine — what the runtime is built from, and its oracle.

Nothing in this package executes a network; :class:`repro.isa.vm.PlanVM`
is the one runtime.  The engine holds its compile-time input, its
run-time parts and the reference it is pinned against:

* :func:`~repro.engine.plan.compile_plan` lowers a
  :class:`~repro.nn.network.Network` into an
  :class:`~repro.engine.plan.ExecutionPlan` — a compile-time *table* of
  explicit per-step input edges, :data:`~repro.core.resources.FABRIC`/CPU
  resource tags and a buffer liveness schedule with a memory high-water,
  read by the ISA frontend, the static analyzers and the memory model.
* :class:`~repro.engine.arena.Arena` (buffer reuse from release points)
  and :class:`~repro.engine.fused.FusedChain` (the executable form of a
  ``FUSED`` instruction) are what the VM allocates from and binds to.
* :mod:`repro.engine.reference` keeps the frozen pre-engine batched walk as
  the **one** bit-identity oracle (``make opt-check``).

See ``docs/ENGINE.md`` for the full design.
"""

from repro.engine.arena import Arena
from repro.engine.fused import FusedChain
from repro.engine.plan import INPUT, ExecutionPlan, PlanStep, compile_plan
from repro.engine.reference import legacy_forward_batch_all

__all__ = [
    "INPUT",
    "PlanStep",
    "ExecutionPlan",
    "compile_plan",
    "Arena",
    "FusedChain",
    "legacy_forward_batch_all",
]
