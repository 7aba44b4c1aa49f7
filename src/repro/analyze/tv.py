"""Translation validation — prove every optimizer pass, per compile.

The optimizer's passes were *tested* correct (bit-identity on the zoo at
every ``-O`` level); this module makes them *checked* correct on the
actual program being compiled.  After every pass the before- and
after-``Program`` are *symbolically evaluated*: each slot carries an
expression naming the instruction chain that produced it, so the
program's meaning is the expression its ``STORE_OUTPUT`` publishes plus
the ordered trace of FABRIC offload expressions.  Two programs are
observationally equivalent when those agree **modulo the pass's declared
rewrite axioms** (:mod:`repro.isa.passes.witness`):

* ``requant-split-compose`` — a split ``compute.acc/.pre`` +
  ``THRESHOLD`` pair composes to the whole layer (the frontend's split
  construction; the ``.acc`` form rests on
  :func:`repro.core.thresholds.derive_thresholds`' table being the float
  epilogue on every accumulator of the layer's range), so the validator
  folds declared ``threshold(compute_p(x))`` subterms to
  ``compute_whole(x)``;
* ``fused-chain-compose`` — a ``FUSED`` instruction is its
  constituents applied in order, so declared ``fused[a,b](x)`` subterms
  unfold to ``b(a(x))`` (side-condition: the pair is
  :data:`~repro.isa.passes.fuse.FUSABLE`);
* ``dataflow-commute`` / ``dead-slot-elim`` / ``release-schedule`` /
  ``header-constants`` — structural axioms: reorders, dead-code
  deletion and release/constant edits never change any expression, and
  the evaluator itself refutes an unsound instance (a dependency-
  breaking reorder or premature release reads an undefined slot —
  ``TV-UNDEF``).

The validator checks the witness rather than guessing: an *undeclared*
rewrite fails output equivalence (``TV-OUTPUT``), a declared rewrite
with a false side-condition fails the axiom check (``TV-AXIOM``), and a
declared rewrite that never fired is flagged (``TV-WITNESS``).  A
failed obligation aborts compilation (:class:`~repro.isa.passes.
manager.TranslationValidationError`) before any weights run.

Rule ids: ``TV-UNDEF``, ``TV-OUTPUT``, ``TV-FABRIC``, ``TV-SHAPE``,
``TV-CONST``, ``TV-AXIOM`` (errors), ``TV-WITNESS`` (warning).  See the
axiom table in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.findings import ERROR, WARNING, Finding
from repro.core.resources import FABRIC
from repro.isa.ops import (
    CONV,
    FUSED,
    GEMM,
    LOAD_INPUT,
    OPCODE_NAMES,
    PART_ACC,
    PART_PRE,
    PART_WHOLE,
    RELEASE,
    STORE_OUTPUT,
    THRESHOLD,
    Program,
)
from repro.isa.passes.fuse import FUSABLE
from repro.isa.passes.witness import (
    AX_FUSED_CHAIN,
    AX_HEADER_CONSTANTS,
    AX_REQUANT_FOLD,
    Rewrite,
    Witness,
)

# -- the symbolic domain ------------------------------------------------------
#
# An expression is a nested hashable tuple:
#   ("in", slot)                    — the network input
#   ("app", head, args)             — a compute instruction applied to args
# with head = (opcode, layer, part, fused_layers).  Two instructions
# compute the same value exactly when they run the same layer code
# (opcode + layer binding + split part) on the same operands — names,
# slot numbers, stream positions and op counts are spelling, not
# meaning, so they stay out of the head.

Expr = tuple


def _head(instr) -> tuple:
    return (instr.opcode, instr.layer, instr.part, instr.fused_layers)


def _describe(expr: Expr) -> str:
    """A short human rendering of *expr*'s outermost node."""
    if not isinstance(expr, tuple) or not expr:
        return repr(expr)
    if expr[0] == "in":
        return f"input slot {expr[1]}"
    opcode, layer, part, fused = expr[1]
    name = OPCODE_NAMES.get(opcode, f"0x{opcode:02x}")
    suffix = {PART_ACC: ".acc", PART_PRE: ".pre"}.get(part, "")
    where = f"layers {'+'.join(map(str, fused))}" if fused else f"layer {layer}"
    return f"{name}{suffix}({where})"


@dataclass(frozen=True)
class SymbolicState:
    """One program's symbolic meaning: output, fabric trace, eval findings."""

    output: Optional[Expr]
    fabric_trace: Tuple[Expr, ...]
    findings: Tuple[Finding, ...]


def symbolic_eval(program: Program, where: str = "program") -> SymbolicState:
    """Evaluate *program* over the symbolic domain, in stream order.

    Reading an undefined or already-released slot is a ``TV-UNDEF``
    error — this is what refutes dependency-breaking reorders and
    premature releases, which a spelling-level diff would miss.
    """
    env: Dict[int, Expr] = {}
    fabric: List[Expr] = []
    findings: List[Finding] = []
    output: Optional[Expr] = None

    def read(slot: int, position: int, instr) -> Expr:
        expr = env.get(slot)
        if expr is None:
            findings.append(
                Finding(
                    ERROR,
                    "TV-UNDEF",
                    where,
                    f"instruction {position} ({instr.mnemonic} "
                    f"layer {instr.layer}) reads slot {slot}, which is "
                    f"undefined or already released at this point",
                    hint="a reorder broke a dataflow edge, or a release "
                    "point moved before the slot's last read",
                )
            )
            return ("undef", slot, position)
        return expr

    for position, instr in enumerate(program.instructions):
        if instr.opcode == LOAD_INPUT:
            env[instr.dest] = ("in", instr.dest)
        elif instr.opcode == RELEASE:
            env.pop(instr.dest, None)
            continue
        elif instr.opcode == STORE_OUTPUT:
            output = read(instr.dest, position, instr)
            continue
        else:
            args = tuple(
                read(src, position, instr) for src in instr.srcs
            )
            expr = ("app", _head(instr), args)
            env[instr.dest] = expr
            if instr.resource == FABRIC:
                fabric.append(expr)
        for victim in instr.releases:
            env.pop(victim, None)
    if output is None:
        findings.append(
            Finding(
                ERROR,
                "TV-UNDEF",
                where,
                "program has no STORE_OUTPUT — nothing is observable",
            )
        )
    return SymbolicState(output, tuple(fabric), tuple(findings))


# -- axiom-directed normalization ---------------------------------------------


def _axiom_findings(
    witness: Optional[Witness], network, where: str
) -> List[Finding]:
    """Check every declared rewrite's side-conditions (``TV-AXIOM``)."""
    findings: List[Finding] = []
    if witness is None:
        return findings

    def bad(rewrite: Rewrite, why: str, hint: str = "") -> None:
        findings.append(
            Finding(
                ERROR,
                "TV-AXIOM",
                where,
                f"witness claims {rewrite.axiom} for layers "
                f"{rewrite.layers}, but {why}",
                hint=hint,
            )
        )

    layers = list(network.layers) if network is not None else None
    for rewrite in witness.rewrites:
        if rewrite.axiom == AX_REQUANT_FOLD:
            if (
                len(rewrite.layers) != 1
                or rewrite.layers[0] < 0
                or len(rewrite.opcodes) != 2
                or rewrite.opcodes[0] not in (CONV, GEMM)
                or rewrite.opcodes[1] != THRESHOLD
            ):
                bad(rewrite, "the instantiation is malformed")
                continue
            if rewrite.part not in (PART_ACC, PART_PRE):
                bad(
                    rewrite,
                    f"part {rewrite.part} is not a split half — only "
                    f".acc/.pre pairs compose to a whole layer",
                )
                continue
            if layers is not None:
                index = rewrite.layers[0]
                if not 0 <= index < len(layers):
                    bad(rewrite, f"layer {index} does not exist")
                    continue
                layer = layers[index]
                if getattr(layer, "out_quant", None) is None:
                    bad(
                        rewrite,
                        f"layer {index} has no output quantizer, so "
                        f"there is no requantization epilogue to fold",
                    )
                    continue
                eligible = hasattr(
                    layer, "threshold_epilogue_eligible"
                ) and layer.threshold_epilogue_eligible()
                if rewrite.part == PART_ACC and not eligible:
                    bad(
                        rewrite,
                        f"layer {index} is not threshold-epilogue "
                        f"eligible — the monotone-threshold lemma does "
                        f"not apply to its .acc split",
                        hint="only a provably-integer epilogue may be "
                        "cut at the accumulator",
                    )
                if rewrite.part == PART_PRE and eligible:
                    bad(
                        rewrite,
                        f"layer {index} is threshold-epilogue eligible, "
                        f"so its split must be .acc, not .pre",
                    )
        elif rewrite.axiom == AX_FUSED_CHAIN:
            if len(rewrite.layers) != 2 or len(rewrite.opcodes) != 2:
                bad(rewrite, "the instantiation is malformed")
                continue
            if tuple(rewrite.opcodes) not in FUSABLE:
                first = OPCODE_NAMES.get(rewrite.opcodes[0], "?")
                second = OPCODE_NAMES.get(rewrite.opcodes[1], "?")
                bad(
                    rewrite,
                    f"({first}, {second}) is not a FUSABLE pair",
                    hint="fused execution is only defined for the "
                    "cataloged chains",
                )
                continue
            if layers is not None and not all(
                0 <= index < len(layers) for index in rewrite.layers
            ):
                bad(rewrite, "a fused layer index does not exist")
        else:
            bad(
                rewrite,
                f"axiom {rewrite.axiom} is structural and takes no "
                f"per-instruction rewrites",
            )
    return findings


def _normalize(expr: Expr, fold_rules: Set, fuse_rules: Dict, fired: Set):
    """Rewrite *expr* bottom-up modulo the declared axioms.

    ``fold_rules`` is a set of ``(opcode, layer, part)`` keys permitting
    ``threshold_p(compute_p(x)) -> compute_whole(x)``; ``fuse_rules``
    maps ``(layer_a, layer_b)`` to ``(opcode_a, opcode_b)`` permitting
    ``fused[a,b](x) -> b(a(x))``.  Keys that fire land in *fired* so
    unused witness entries can be reported.
    """
    if not isinstance(expr, tuple) or not expr or expr[0] != "app":
        return expr
    _tag, head, args = expr
    args = tuple(
        _normalize(arg, fold_rules, fuse_rules, fired) for arg in args
    )
    opcode, layer, part, fused_layers = head
    if opcode == FUSED and fused_layers in fuse_rules:
        first_op, second_op = fuse_rules[fused_layers]
        fired.add(("fuse", fused_layers))
        inner = ("app", (first_op, fused_layers[0], PART_WHOLE, ()), args)
        return ("app", (second_op, fused_layers[1], PART_WHOLE, ()), (inner,))
    if opcode == THRESHOLD and part != PART_WHOLE and len(args) == 1:
        inner = args[0]
        if (
            isinstance(inner, tuple)
            and inner
            and inner[0] == "app"
            and inner[1][1] == layer
            and inner[1][2] == part
            and (inner[1][0], layer, part) in fold_rules
        ):
            fired.add(("fold", (inner[1][0], layer, part)))
            return ("app", (inner[1][0], layer, PART_WHOLE, ()), inner[2])
    return ("app", head, args)


def _first_difference(a: Expr, b: Expr) -> str:
    """Name the outermost point where two expressions diverge."""
    if a == b:
        return "expressions agree"
    if (
        isinstance(a, tuple)
        and isinstance(b, tuple)
        and a[:1] == b[:1] == ("app",)
        and a[1] == b[1]
        and len(a[2]) == len(b[2])
    ):
        for left, right in zip(a[2], b[2]):
            if left != right:
                return _first_difference(left, right)
    return f"{_describe(a)} vs {_describe(b)}"


def validate_pass(
    before: Program,
    after: Program,
    pass_name: str,
    witness: Optional[Witness],
    network=None,
    where: Optional[str] = None,
) -> List[Finding]:
    """Prove *after* observationally equivalent to *before*.

    Returns the ``TV-*`` findings; empty means the obligation is
    discharged.  *witness* is the pass's declaration (``None`` claims no
    rewrites at all); *network* enables the axioms' semantic
    side-conditions (eligibility, layer bounds) and may be ``None`` for
    structural-only validation.
    """
    label = where or f"{before.network_name or 'program'}:{pass_name}"
    findings: List[Finding] = []
    findings.extend(_axiom_findings(witness, network, label))

    fold_rules: Set = set()
    fuse_rules: Dict = {}
    if witness is not None:
        for rewrite in witness.rewrites:
            if rewrite.axiom == AX_REQUANT_FOLD and len(rewrite.opcodes) == 2:
                fold_rules.add(
                    (rewrite.opcodes[0], rewrite.layers[0], rewrite.part)
                )
            elif rewrite.axiom == AX_FUSED_CHAIN and len(rewrite.layers) == 2:
                fuse_rules[tuple(rewrite.layers)] = tuple(rewrite.opcodes)

    state_before = symbolic_eval(before, where=f"{label} (input program)")
    state_after = symbolic_eval(after, where=label)
    # Pre-existing breakage is not this pass's fault, but equivalence
    # against a broken input proves nothing — surface both.
    findings.extend(state_before.findings)
    findings.extend(state_after.findings)
    if any(f.severity == ERROR for f in findings):
        return findings

    fired: Set = set()
    out_before = _normalize(
        state_before.output, fold_rules, fuse_rules, fired
    )
    out_after = _normalize(state_after.output, fold_rules, fuse_rules, fired)
    if out_before != out_after:
        findings.append(
            Finding(
                ERROR,
                "TV-OUTPUT",
                label,
                f"output expressions differ after applying the declared "
                f"axioms: {_first_difference(out_before, out_after)}",
                hint="the pass performed a rewrite its witness does not "
                "declare, or dropped/duplicated real work",
            )
        )

    fabric_before = tuple(
        _normalize(e, fold_rules, fuse_rules, fired)
        for e in state_before.fabric_trace
    )
    fabric_after = tuple(
        _normalize(e, fold_rules, fuse_rules, fired)
        for e in state_after.fabric_trace
    )
    if fabric_before != fabric_after:
        findings.append(
            Finding(
                ERROR,
                "TV-FABRIC",
                label,
                f"FABRIC offload trace changed: "
                f"{len(fabric_before)} span(s) "
                f"[{', '.join(map(_describe, fabric_before))}] became "
                f"{len(fabric_after)} span(s) "
                f"[{', '.join(map(_describe, fabric_after))}]",
                hint="the offload schedule is observable — passes may "
                "move CPU work around spans, never reorder, invent or "
                "drop the spans themselves",
            )
        )

    if tuple(before.output_shape) != tuple(after.output_shape) or tuple(
        before.input_shape
    ) != tuple(after.input_shape):
        findings.append(
            Finding(
                ERROR,
                "TV-SHAPE",
                label,
                f"program I/O shapes changed: "
                f"{tuple(before.input_shape)}->{tuple(before.output_shape)} "
                f"became "
                f"{tuple(after.input_shape)}->{tuple(after.output_shape)}",
            )
        )

    axioms = witness.axioms if witness is not None else ()
    if after.constants != before.constants:
        if AX_HEADER_CONSTANTS not in axioms:
            findings.append(
                Finding(
                    ERROR,
                    "TV-CONST",
                    label,
                    f"header constants changed from "
                    f"{len(before.constants)} to {len(after.constants)} "
                    f"entries without declaring {AX_HEADER_CONSTANTS}",
                )
            )
        else:
            known_layers = (
                len(network.layers) if network is not None else None
            )
            for kind, layer, _param in after.constants:
                if kind not in ("weights", "thresholds") or (
                    known_layers is not None
                    and not 0 <= layer < known_layers
                ):
                    findings.append(
                        Finding(
                            ERROR,
                            "TV-CONST",
                            label,
                            f"constant ({kind!r}, layer {layer}) does not "
                            f"name a warmable cache of this network",
                        )
                    )

    if witness is not None:
        for rewrite in witness.rewrites:
            if rewrite.axiom == AX_REQUANT_FOLD:
                key = ("fold", (rewrite.opcodes[0], rewrite.layers[0],
                                rewrite.part))
            elif rewrite.axiom == AX_FUSED_CHAIN:
                key = ("fuse", tuple(rewrite.layers))
            else:
                continue
            if key not in fired:
                findings.append(
                    Finding(
                        WARNING,
                        "TV-WITNESS",
                        label,
                        f"declared {rewrite.axiom} rewrite for layers "
                        f"{rewrite.layers} never fired during "
                        f"normalization",
                        hint="the witness over-claims; tighten the pass's "
                        "rewrite accounting",
                    )
                )
    return findings


# -- whole-pipeline entry points ----------------------------------------------


def validate_pipeline(
    program: Program,
    pass_names,
    network=None,
    name: str = "",
    manager=None,
) -> Tuple[Program, List[Finding]]:
    """Run *pass_names* over *program*, validating each; never raises.

    Returns the final program and all collected findings — the
    findings-mode twin of ``PassManager.run(validate=True)``, used by
    ``repro analyze --tv``.
    """
    from repro.isa.passes import default_manager

    manager = manager or default_manager()
    header = name or program.network_name or "program"
    findings: List[Finding] = []
    for pass_name in pass_names:
        before = program
        program, stats = manager.run_one(
            program, pass_name, network=network, verify=False
        )
        findings.extend(
            validate_pass(
                before,
                program,
                pass_name,
                stats.witness,
                network=network,
                where=f"{header}:{pass_name}",
            )
        )
    return program, findings


def tv_findings(network, name: str = "", levels=None) -> List[Finding]:
    """Validate every ``-O`` pipeline on *network* (``repro analyze --tv``)."""
    from repro.analyze.findings import sort_findings
    from repro.isa.compiler import frontend
    from repro.isa.passes import PIPELINES

    findings: List[Finding] = []
    header = name or "program"
    for level in sorted(PIPELINES) if levels is None else sorted(levels):
        _program, level_findings = validate_pipeline(
            frontend(network, name=name),
            PIPELINES[level],
            network=network,
            name=f"{header}:-O{level}",
        )
        findings.extend(level_findings)
    return sort_findings(findings)


__all__ = [
    "SymbolicState",
    "symbolic_eval",
    "validate_pass",
    "validate_pipeline",
    "tv_findings",
]
