"""Pass witnesses — each pass declares what it rewrote and why it may.

The translation validator (:mod:`repro.analyze.tv`) proves every pass
semantics-preserving by symbolically evaluating the before/after
programs and comparing their ``STORE_OUTPUT`` expressions.  Passes that
genuinely *rewrite* arithmetic (fold a split requantization, fuse a
layer chain) change the expression's spelling, so plain equality would
reject them; instead each pass returns a :class:`Witness` declaring
exactly which instructions it touched and which **axiom** justifies each
rewrite.  The validator checks the witness — it applies only the
declared rewrites, each at most the declared number of times — rather
than guessing what the pass might have meant.  An undeclared rewrite
fails equivalence (``TV-OUTPUT``); a declared rewrite whose
side-condition does not hold fails the axiom check (``TV-AXIOM``); a
declared rewrite that never fired is a ``TV-WITNESS`` warning.

The axiom catalog (the full table lives in ``docs/ANALYSIS.md``):

* :data:`AX_REQUANT_FOLD` — ``threshold_p(conv_p(x)) == conv_whole(x)``
  for a split requantization pair: the two halves are the whole layer's
  forward path cut at the accumulator (``.acc``) or the
  pre-quantization activation (``.pre``), so their composition is the
  whole layer by the split construction; the ``.acc`` form additionally
  rests on :func:`repro.core.thresholds.derive_thresholds`' table being
  the float epilogue on every accumulator of the layer's range (a
  bisection of :func:`~repro.core.thresholds.float_reference_activation`
  over ``[-B, B]``).
* :data:`AX_FUSED_CHAIN` — ``fused[a,b](x) == b(a(x))`` for a
  :data:`~repro.isa.passes.fuse.FUSABLE` pair.  Most chains run both
  layers' own batched kernels back to back; an exact-integer
  conv→maxpool runs :class:`repro.core.fused.BandKernel`, which pools
  accumulators *before* thresholding — sound because the sign-folded
  hit count is non-decreasing in the accumulator, and pinned against
  the unfused single-frame chain by :data:`AXIOM_KERNEL_TESTS`.
* :data:`AX_DATAFLOW_COMMUTE` — instructions with no dataflow edge
  between them commute; a reorder that respects every edge (checked by
  symbolic evaluation reading slots in the new order) cannot change any
  computed value.
* :data:`AX_DEAD_SLOT` — an instruction whose destination slot is never
  read and is not the program output is unobservable and may be
  deleted.
* :data:`AX_RELEASE_SCHEDULE` — release points (standalone ``RELEASE``
  or embedded ``releases``) only recycle buffers; moving them is sound
  exactly when no instruction reads a slot after its release — which
  the symbolic evaluator checks by deleting released bindings.
* :data:`AX_HEADER_CONSTANTS` — header ``constants`` only pre-warm
  caches the VM would fill lazily with identical contents; adding or
  removing them never changes a computed value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.isa.ops import PART_WHOLE

AX_REQUANT_FOLD = "requant-split-compose"
AX_FUSED_CHAIN = "fused-chain-compose"
AX_DATAFLOW_COMMUTE = "dataflow-commute"
AX_DEAD_SLOT = "dead-slot-elim"
AX_RELEASE_SCHEDULE = "release-schedule"
AX_HEADER_CONSTANTS = "header-constants"

#: Every axiom name a witness may claim.
AXIOM_NAMES = frozenset(
    (
        AX_REQUANT_FOLD,
        AX_FUSED_CHAIN,
        AX_DATAFLOW_COMMUTE,
        AX_DEAD_SLOT,
        AX_RELEASE_SCHEDULE,
        AX_HEADER_CONSTANTS,
    )
)

#: axiom -> pytest node id of the property test that pins it against the
#: real kernels (ROADMAP "test the axioms"); axioms without an entry are
#: still trusted, not tested.
AXIOM_KERNEL_TESTS = {
    AX_REQUANT_FOLD: (
        "tests/test_threshold_properties.py::TestRequantSplitCompose::"
        "test_float_tables_equal_the_float_epilogue"
    ),
    AX_FUSED_CHAIN: (
        "tests/test_dtype_kernels.py::TestBandKernel::"
        "test_equals_single_frame_chain_and_bitserial"
    ),
}


@dataclass(frozen=True)
class Rewrite:
    """One declared expression rewrite: the axiom plus its instantiation.

    ``layers`` are the network layer indices involved (producer first),
    ``opcodes`` the instruction opcodes in the same order, and ``part``
    the split part of a requantization fold.  The validator uses these
    to build the exact before/after expression patterns the axiom
    permits — nothing else is rewritten.
    """

    axiom: str
    layers: Tuple[int, ...] = ()
    opcodes: Tuple[int, ...] = ()
    part: int = PART_WHOLE

    def __post_init__(self) -> None:
        if self.axiom not in AXIOM_NAMES:
            raise ValueError(f"unknown axiom {self.axiom!r}")


@dataclass(frozen=True)
class Witness:
    """What one pass invocation claims about its own rewrite.

    ``rewrites`` carry per-instruction expression rewrites;
    ``axioms`` are structural claims covering the whole pass (reorders,
    deletions, header edits) that leave every expression intact.
    """

    pass_name: str
    rewrites: Tuple[Rewrite, ...] = field(default=())
    axioms: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for axiom in self.axioms:
            if axiom not in AXIOM_NAMES:
                raise ValueError(f"unknown axiom {axiom!r}")


#: The no-claims witness of a pass that changed nothing.
def identity_witness(pass_name: str) -> Witness:
    return Witness(pass_name=pass_name)


__all__ = [
    "AX_REQUANT_FOLD",
    "AX_FUSED_CHAIN",
    "AX_DATAFLOW_COMMUTE",
    "AX_DEAD_SLOT",
    "AX_RELEASE_SCHEDULE",
    "AX_HEADER_CONSTANTS",
    "AXIOM_NAMES",
    "AXIOM_KERNEL_TESTS",
    "Rewrite",
    "Witness",
    "identity_witness",
]
