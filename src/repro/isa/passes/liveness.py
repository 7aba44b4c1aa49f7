"""``liveness`` — dead-code elimination + embedded release points.

Three rewrites, in order:

1. Strip every standalone ``RELEASE`` instruction and any embedded
   release metadata — liveness is recomputed from scratch, so the pass
   is idempotent and safe on both frontend output (which carries no
   liveness at all) and hand-written streams with ``RELEASE`` ops.
2. Dead-code elimination to a fixpoint: a CPU compute instruction whose
   destination slot is never read and is not the program output is
   deleted (removing one dead def can orphan its producers, hence the
   fixpoint loop).  FABRIC instructions are never deleted — the offload
   schedule is part of the program's observable contract (the analyzer's
   PASS-DATAFLOW rule pins the fabric instruction count).
3. Recompute each slot's death point and embed it as the ``releases``
   tuple of the last consuming instruction — the embedded form of a
   standalone ``RELEASE`` op, executed identically by the VM (slot 0's
   backing buffer is the caller's and is popped but never
   arena-recycled).  A def that is never read (possible only for FABRIC
   instructions after step 2) releases itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.core.resources import FABRIC
from repro.isa.ops import RELEASE, Program
from repro.isa.passes.witness import (
    AX_DEAD_SLOT,
    AX_RELEASE_SCHEDULE,
    Witness,
)


def liveness(program: Program, network=None) -> Tuple[Program, str, Witness]:
    out_slot = program.output_slot()
    instructions = [
        replace(instr, releases=()) if instr.releases else instr
        for instr in program.instructions
        if instr.opcode != RELEASE
    ]

    removed = 0
    while True:
        consumed = set()
        for instr in instructions:
            consumed.update(instr.srcs)
        dead = [
            instr
            for instr in instructions
            if instr.is_compute
            and instr.resource != FABRIC
            and instr.dest not in consumed
            and instr.dest != out_slot
        ]
        if not dead:
            break
        removed += len(dead)
        dead_ids = {id(instr) for instr in dead}
        instructions = [
            instr for instr in instructions if id(instr) not in dead_ids
        ]

    # Death points: a slot dies at its last read; unread defs die at
    # their own def.  The output slot never dies.
    last_use: Dict[int, int] = {}
    for position, instr in enumerate(instructions):
        if instr.is_compute:
            last_use[instr.dest] = position
        for src in instr.srcs:
            last_use[src] = position
    release_at: Dict[int, list] = {}
    for slot, position in last_use.items():
        if slot == out_slot:
            continue
        if instructions[position].is_compute:
            release_at.setdefault(position, []).append(slot)
    embedded = 0
    result = []
    for position, instr in enumerate(instructions):
        victims = release_at.get(position)
        if victims:
            instr = replace(instr, releases=tuple(sorted(victims)))
            embedded += len(victims)
        result.append(instr)
    axioms = (AX_RELEASE_SCHEDULE,) + (
        (AX_DEAD_SLOT,) if removed else ()
    )
    return (
        replace(program, instructions=tuple(result)),
        f"removed {removed} dead instruction(s), "
        f"embedded {embedded} release point(s)",
        Witness("liveness", axioms=axioms),
    )


__all__ = ["liveness"]
