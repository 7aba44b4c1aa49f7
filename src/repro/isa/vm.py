"""The plan VM: the one runtime that executes a network.

:class:`PlanVM` interprets an ISA :class:`~repro.isa.ops.Program`
against a network's registered kernels and offload backend.  Everything
that runs a network runs it here — ``Network.forward*`` (an in-process
compile), the serving workers, the shard processes and the CLIs (a
decoded ``.rpb`` artifact) — so the per-instruction
:class:`StepStats` instrumentation, the fault-injection seam
(:func:`run_fabric_step` drives fabric/reference/scrub routing) and the
liveness-driven :class:`~repro.engine.arena.Arena` recycling exist
exactly once.  Bit-identity to the frozen :mod:`repro.engine.reference`
oracle is pinned by the equivalence tests, ``make opt-check`` and
``make isa-roundtrip``.

A program is cut into :class:`Stage` jobs at bind time — the §III-F
demo mode's split of a frame into CPU and FABRIC jobs.  The hybrid
Tincy YOLO program is three: the first conv on the CPU, the offload on
the fabric, the last conv and the region head on the CPU.  A
:class:`RunState` carries the run from one stage to the next, so the
serving pool runs each stage on a worker of its resource; :meth:`PlanVM.
run` runs them all in turn on the calling thread.  Both go through the
one interpreter loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core import workspace
from repro.core.resources import CPU, FABRIC
from repro.core.tensor import FeatureMapBatch
from repro.engine.arena import Arena, ArenaPool
from repro.isa.bind import bind
from repro.isa.ops import (
    LOAD_INPUT,
    PART_ACC,
    PART_PRE,
    RELEASE,
    STORE_OUTPUT,
    THRESHOLD,
    BindError,
    Program,
)

#: FABRIC-instruction routing policies of :meth:`PlanVM.run`:
#: ``fabric`` (default) runs fabric steps on the fabric engine; ``reference``
#: runs them on the bit-identical CPU reference path (degraded mode, no
#: offload guard needed); ``scrub`` runs the fabric *and* the reference and
#: raises :class:`~repro.faults.FabricCorruption` on any mismatch — runtime
#: co-simulation, the serving watchdog's silent-corruption detector.
FABRIC_MODES = ("fabric", "reference", "scrub")


@dataclass(frozen=True)
class StepStats:
    """Instrumentation record of one executed compute instruction."""

    #: The network layer the instruction executes (the last constituent
    #: of a ``FUSED`` chain).
    index: int
    name: str
    ltype: str
    resource: str
    #: Wall time of this step's batched execution (seconds).
    wall_s: float
    #: Operations executed: the step's per-frame count times the batch.
    ops: int
    #: Bytes of this step's output buffer.
    out_bytes: int
    #: Bytes of all live buffers right after this step produced its output
    #: (before the liveness release) — the run's memory high-water is the
    #: maximum of these.
    live_bytes: int


@dataclass
class ExecutionReport:
    """Per-run instrumentation: one :class:`StepStats` per compute step."""

    batch: int
    steps: List[StepStats] = field(default_factory=list)
    wall_s: float = 0.0
    peak_live_bytes: int = 0
    #: Snapshot of the run's arena allocator (hits/misses/high-water); see
    #: :meth:`repro.engine.arena.Arena.stats`.  ``None`` for zero-frame runs.
    arena: Optional[Dict[str, int]] = None

    @property
    def total_ops(self) -> int:
        """Operations executed across all steps (batch included)."""
        return sum(step.ops for step in self.steps)


@dataclass(frozen=True)
class Stage:
    """One job of a run: a run of the program on one resource.

    ``start``/``stop`` index ``program.instructions``.  A stage opens at a
    compute instruction and carries the pseudo-ops that follow it.  CPU
    stages are maximal runs of CPU instructions; every FABRIC instruction
    is a stage of its own, so a fabric step that fails has changed
    nothing and its stage can be run again.
    """

    resource: str
    start: int
    stop: int


@dataclass
class RunState:
    """A run in flight: what one stage hands to the next.

    Built by :meth:`PlanVM.start`, advanced by :meth:`PlanVM.run_stage`.
    The state moves between threads with its run; only one thread
    touches it at a time.
    """

    fmb: FeatureMapBatch
    #: Number of stages of the program.
    stages: int
    keep_all: bool = False
    #: Index of the next stage to run (``stages`` once the run is done).
    stage: int = 0
    slots: Dict[int, FeatureMapBatch] = field(default_factory=dict)
    #: layer index -> the last slot an instruction of that layer wrote.
    final_slot: Dict[int, int] = field(default_factory=dict)
    live_bytes: int = 0
    report: ExecutionReport = field(init=False)
    arena: Optional[Arena] = None
    started: float = 0.0
    #: The stored output slot (``run_all``: every layer's final slot),
    #: set once the run is done.
    output: object = None

    def __post_init__(self) -> None:
        self.report = ExecutionReport(batch=self.fmb.batch)

    @property
    def done(self) -> bool:
        """True once every stage ran."""
        return self.stage == self.stages


def _cut_stages(instructions) -> Tuple[Stage, ...]:
    """Cut an instruction stream into its :class:`Stage` list.

    A program without compute instructions is one empty CPU stage.
    """
    opens = []
    for index, instr in enumerate(instructions):
        if instr.is_compute and (
            not opens
            or instr.resource == FABRIC
            or instr.resource != opens[-1][1]
        ):
            opens.append((index, instr.resource))
    if not opens:
        opens = [(len(instructions), CPU)]
    stops = [start for start, _ in opens[1:]] + [len(instructions)]
    return tuple(
        Stage(resource, start, stop)
        for (start, resource), stop in zip(opens, stops)
    )


def run_fabric_step(layer, name, inputs, guard, fabric_mode) -> FeatureMapBatch:
    """Execute FABRIC-tagged *layer* according to *fabric_mode*.

    The one place the fault-injection seam
    (:data:`repro.faults.FABRIC_STEP`), the offload guard and the scrub
    co-simulation live; *name* labels the step in a corruption report.
    """
    if fabric_mode == "reference":
        return layer.run_batch_reference(inputs)
    if guard is not None:
        with guard:
            out = faults.call(
                faults.FABRIC_STEP, lambda: layer.run_batch(inputs)
            )
    else:
        out = faults.call(faults.FABRIC_STEP, lambda: layer.run_batch(inputs))
    if fabric_mode == "scrub":
        expected = layer.run_batch_reference(inputs)
        if (
            not np.array_equal(out.data, expected.data)
            or out.scale != expected.scale
        ):
            raise faults.FabricCorruption(
                f"fabric output of step '{name}' diverged from the "
                f"CPU reference path (scrub mode)"
            )
    return out


class PlanVM:
    """Interprets a :class:`~repro.isa.ops.Program` over feature batches.

    Binding happens at construction (:func:`~repro.isa.bind.bind`):
    every compute instruction is attached to its layer object, the
    program's pre-pack constants are derived and its content digests are
    checked against the network (*digests*: the network's
    :func:`~repro.isa.bind.network_digests` pair if the caller already
    hashed it) — the derivations and the hash on every lane — so ``run``
    itself never inspects the network again.
    Re-entrant: concurrent runs (the serving worker pool) each carry
    their own :class:`RunState` and a pooled arena.  *offload_guard*, when
    given (at construction or per call), is a context manager entered
    around every FABRIC instruction — the serving subsystem passes its
    fabric gate so the single simulated FINN engine is never occupied
    twice.  *on_step* is called with each :class:`StepStats` as it
    completes; ``last_report`` holds the report of the most recent run.
    """

    def __init__(
        self,
        program: Program,
        network,
        offload_guard=None,
        on_step: Optional[Callable[[StepStats], None]] = None,
        digests: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.program = program
        self.offload_guard = offload_guard
        self.on_step = on_step
        self.last_report: Optional[ExecutionReport] = None
        if program.output_slot() is None:
            raise BindError("program has no STORE_OUTPUT instruction")
        self._layers = bind(program, network, digests=digests)
        self._calls = [
            self._executable(instr, layer)
            for instr, layer in zip(program.instructions, self._layers)
        ]
        steps = list(zip(program.instructions, self._layers, self._calls))
        #: The run's stages in order; a served run hands each to a worker
        #: of its resource.
        self.stages = _cut_stages(program.instructions)
        self._prefix = steps[: self.stages[0].start]
        self._stage_steps = [
            steps[stage.start : stage.stop] for stage in self.stages
        ]
        self._arenas = ArenaPool()

    @staticmethod
    def _executable(instr, layer):
        """The CPU callable for a compute instruction (None otherwise).

        Split-epilogue instructions dispatch to the layer's half entry
        points; whole instructions (including bound ``FUSED`` chains)
        run the standard ``run_batch``.  FABRIC instructions route
        through :func:`run_fabric_step` in the interpreter loop instead.
        """
        if not instr.is_compute or instr.resource == FABRIC:
            return None
        if instr.opcode == THRESHOLD:
            if instr.part == PART_ACC:
                return lambda inputs: layer.forward_batch_thresholds(
                    inputs[0]
                )
            return lambda inputs: layer.forward_batch_to_levels(inputs[0])
        if instr.part == PART_ACC:
            return lambda inputs: layer.forward_batch_acc(inputs[0])
        if instr.part == PART_PRE:
            return lambda inputs: layer.forward_batch_pre(inputs[0])
        return layer.run_batch

    @property
    def uses_fabric(self) -> bool:
        """True when any instruction occupies the serialized fabric engine."""
        return self.program.uses_fabric

    def start(self, fmb: FeatureMapBatch, keep_all: bool = False) -> RunState:
        """Begin a run of *fmb*: the state :meth:`run_stage` carries along.

        Checks the input, acquires the run's arena and executes the
        pseudo-ops ahead of the first stage (``LOAD_INPUT``).  A
        zero-frame batch returns a state that is already :attr:`RunState.
        done`, holding a well-formed empty output.  *keep_all* keeps every
        slot alive for :meth:`run_all`.
        """
        program = self.program
        if tuple(fmb.frame_shape) != tuple(program.input_shape):
            raise ValueError(
                f"input frames {tuple(fmb.frame_shape)} do not match "
                f"network input {tuple(program.input_shape)} compiled "
                f"into the program"
            )
        state = RunState(fmb=fmb, stages=len(self.stages), keep_all=keep_all)
        if fmb.batch == 0:
            self.last_report = state.report
            state.stage = state.stages
            if not keep_all:
                state.output = _empty(program.output_shape)
            else:
                shapes = {
                    _step_index(instr): instr.shape
                    for instr in program.compute_instructions()
                }
                state.output = [_empty(shapes[index]) for index in sorted(shapes)]
            return state
        # The arena turns the program's release points into buffer reuse:
        # kernels allocate through repro.core.workspace, and a victim's
        # backing buffer is recycled the moment no live slot can see it
        # (the guard check).  begin_run() lets a previous run's escaped
        # outputs keep their memory — recycled buffers never alias results.
        state.arena = self._arenas.acquire()
        state.arena.begin_run()
        state.started = time.perf_counter()
        self._interpret(state, self._prefix, None, "fabric")  # no compute
        return state

    def run_stage(
        self, state: RunState, offload_guard=None, fabric_mode: str = "fabric"
    ) -> None:
        """Execute the next stage of *state*'s run, on the calling thread.

        The run's arena is installed for this thread while the stage
        runs, so consecutive stages may run on different threads.  After
        the last stage the arena goes back to the pool and
        ``state.output`` holds the result.  A FABRIC stage that raises
        leaves *state* as it found it, so the caller may run it again —
        or run it with ``fabric_mode="reference"``.
        """
        if fabric_mode not in FABRIC_MODES:
            raise ValueError(
                f"fabric_mode must be one of {FABRIC_MODES}, "
                f"got {fabric_mode!r}"
            )
        guard = (
            offload_guard if offload_guard is not None else self.offload_guard
        )
        self._interpret(state, self._stage_steps[state.stage], guard, fabric_mode)
        state.stage += 1
        if not state.done:
            return
        report, arena = state.report, state.arena
        report.wall_s = time.perf_counter() - state.started
        report.arena = arena.stats()
        self.last_report = report
        self._arenas.release(arena)
        if state.keep_all:
            state.output = [
                state.slots[state.final_slot[index]]
                for index in sorted(state.final_slot)
            ]
        elif state.output is None:  # unreachable: bind requires STORE_OUTPUT
            raise RuntimeError("program finished without STORE_OUTPUT")

    def run(
        self,
        fmb: FeatureMapBatch,
        offload_guard=None,
        fabric_mode: str = "fabric",
    ) -> FeatureMapBatch:
        """Execute the program on *fmb*; returns the stored output slot.

        Every stage runs in turn on the calling thread.  Slots are
        released where the program says so and their buffers recycled
        through the arena.  A zero-frame batch short-circuits to a
        well-formed empty output.  *fabric_mode* picks the FABRIC
        routing (:data:`FABRIC_MODES`): the serving layer runs
        ``reference`` while its circuit breaker is open and ``scrub``
        when fabric outputs must be cross-checked.
        """
        return self._run(self.start(fmb), offload_guard, fabric_mode)

    def run_all(
        self, fmb: FeatureMapBatch, offload_guard=None
    ) -> List[FeatureMapBatch]:
        """Execute keeping every slot; returns each layer's final slot.

        The keep-everything traversal behind
        ``Network.forward_batch_all``, which runs it on the ``-O0`` program: one
        output per layer, in layer order (the ``THRESHOLD`` half of a
        split layer is its final slot).  A layer absorbed into a
        ``FUSED`` chain has no slot of its own and is left out.
        """
        return self._run(self.start(fmb, keep_all=True), offload_guard, "fabric")

    def _run(self, state: RunState, offload_guard, fabric_mode: str):
        while not state.done:
            self.run_stage(state, offload_guard, fabric_mode)
        return state.output

    def _interpret(self, state: RunState, steps, guard, fabric_mode) -> None:
        """The interpreter loop: execute *steps* against *state*."""
        slots, report = state.slots, state.report
        batch = state.fmb.batch
        with workspace.install(state.arena):
            for instr, layer, call in steps:
                if instr.opcode == LOAD_INPUT:
                    slots[instr.dest] = state.fmb
                    state.live_bytes += state.fmb.data.nbytes
                    report.peak_live_bytes = max(
                        report.peak_live_bytes, state.live_bytes
                    )
                    continue
                if instr.opcode == RELEASE:
                    self._release(state, instr.dest)
                    continue
                if instr.opcode == STORE_OUTPUT:
                    state.output = slots[instr.dest]
                    continue
                inputs = [slots[src] for src in instr.srcs]
                start = time.perf_counter()
                if instr.resource == FABRIC:
                    out = run_fabric_step(
                        layer, instr.name, inputs, guard, fabric_mode
                    )
                else:
                    out = call(inputs)
                wall = time.perf_counter() - start
                slots[instr.dest] = out
                state.live_bytes += out.data.nbytes
                report.peak_live_bytes = max(
                    report.peak_live_bytes, state.live_bytes
                )
                stats = StepStats(
                    index=_step_index(instr),
                    name=instr.name,
                    ltype=instr.ltype,
                    resource=instr.resource,
                    wall_s=wall,
                    ops=instr.ops * batch,
                    out_bytes=out.data.nbytes,
                    live_bytes=state.live_bytes,
                )
                state.final_slot[stats.index] = instr.dest
                report.steps.append(stats)
                if self.on_step is not None:
                    self.on_step(stats)
                # Embedded release points: the liveness pass's slot death
                # schedule, executed exactly like standalone RELEASEs.
                for victim in instr.releases:
                    self._release(state, victim)

    @staticmethod
    def _release(state: RunState, victim: int) -> None:
        slots = state.slots
        dead = None if state.keep_all else slots.pop(victim, None)
        if dead is not None:
            state.live_bytes -= dead.data.nbytes
            if victim != 0:
                state.arena.release(
                    dead.data, guard=[b.data for b in slots.values()]
                )


def _step_index(instr) -> int:
    """The layer a compute instruction reports as (bind checked the range)."""
    return instr.fused_layers[-1] if instr.fused_layers else instr.layer


def _empty(shape) -> FeatureMapBatch:
    return FeatureMapBatch(np.zeros((0,) + tuple(shape), dtype=np.float32))


__all__ = [
    "FABRIC_MODES",
    "StepStats",
    "ExecutionReport",
    "Stage",
    "RunState",
    "run_fabric_step",
    "PlanVM",
]
