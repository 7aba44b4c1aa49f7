"""ISA verification: static checks over decoded plan artifacts.

A serialized plan is input from outside the process, so it gets the
compiler treatment on the way back in: :func:`verify_program` re-checks
on the *decoded* form every invariant lowering guaranteed on the way
out — the slot-liveness discipline (no use of an undefined or released
slot, no silent redefinition, nothing still live at the end but the
output), the framing pseudo-ops, and the format version.  Given the
live network it also checks the content hashes, the same comparison
:func:`repro.isa.bind.bind` enforces at execution time.

:func:`verify_artifact` is the byte-level entry point (decode + verify),
and :func:`roundtrip_findings` is what ``repro analyze`` runs per zoo
network on the compiled ``-O2`` program: encode, decode, verify, demand
the decoded program equal the encoded one, and demand identical overflow
verdicts on both — serialization must not be able to change what runs
or what the analyzers prove.

All rules share the ``ISA-`` prefix in the common
:class:`~repro.analyze.findings.Finding` model.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analyze.findings import ERROR, INFO, Finding, sort_findings
from repro.isa.ops import (
    FORMAT_VERSION,
    INPUT_SLOT,
    LOAD_INPUT,
    RELEASE,
    STORE_OUTPUT,
    Program,
)


def _where(program: Program, position: int, instr) -> str:
    name = program.network_name or "program"
    return f"{name}:{position:04d} {instr.mnemonic}"


def verify_program(
    program: Program, network=None
) -> List[Finding]:
    """Static checks over a decoded program; returns shared findings.

    Structural rules always run; the content-hash rules additionally
    run when the *network* the artifact claims to schedule is given.
    """
    findings: List[Finding] = []
    header = program.network_name or "program"

    if program.version != FORMAT_VERSION:
        findings.append(
            Finding(
                ERROR,
                "ISA-VERSION",
                header,
                f"format version {program.version} does not match this "
                f"build's version {FORMAT_VERSION}",
                hint="re-lower the network with this build to regenerate "
                "the artifact",
            )
        )

    live: Set[int] = set()
    released: Set[int] = set()
    output_slot: Optional[int] = None
    saw_input = False
    for position, instr in enumerate(program.instructions):
        where = _where(program, position, instr)
        if instr.opcode == LOAD_INPUT:
            saw_input = True
            if instr.dest in live:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-REDEF",
                        where,
                        f"slot %{instr.dest} loaded while already live",
                    )
                )
            live.add(instr.dest)
            continue
        if instr.opcode == RELEASE:
            if instr.dest in released:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-RELEASED",
                        where,
                        f"slot %{instr.dest} released twice",
                    )
                )
            elif instr.dest not in live:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-UNDEF",
                        where,
                        f"release of slot %{instr.dest}, which was never "
                        f"defined",
                    )
                )
            live.discard(instr.dest)
            released.add(instr.dest)
            continue
        if instr.opcode == STORE_OUTPUT:
            if instr.dest in released:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-RELEASED",
                        where,
                        f"output slot %{instr.dest} was already released",
                    )
                )
            elif instr.dest not in live:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-UNDEF",
                        where,
                        f"output slot %{instr.dest} is not live",
                    )
                )
            output_slot = instr.dest
            continue
        # Compute instruction: sources must be live, dest must be fresh.
        for src in instr.srcs:
            if src in released:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-RELEASED",
                        where,
                        f"source slot %{src} is used after its RELEASE",
                        hint="the artifact's liveness schedule is corrupt; "
                        "re-lower the plan",
                    )
                )
            elif src not in live:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-UNDEF",
                        where,
                        f"source slot %{src} was never defined",
                    )
                )
        if instr.dest in live:
            findings.append(
                Finding(
                    ERROR,
                    "ISA-REDEF",
                    where,
                    f"destination slot %{instr.dest} is redefined while "
                    f"still live",
                )
            )
        if instr.dest in released:
            findings.append(
                Finding(
                    ERROR,
                    "ISA-RELEASED",
                    where,
                    f"destination slot %{instr.dest} reuses a released id",
                )
            )
        live.add(instr.dest)
        # Embedded release points (the liveness pass's slot death
        # schedule) follow the same discipline as standalone RELEASEs;
        # they take effect after this instruction's def.
        for victim in instr.releases:
            if victim in released:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-RELEASED",
                        where,
                        f"slot %{victim} released twice",
                    )
                )
            elif victim not in live:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-UNDEF",
                        where,
                        f"release of slot %{victim}, which was never "
                        f"defined",
                    )
                )
            live.discard(victim)
            released.add(victim)

    if not saw_input:
        findings.append(
            Finding(
                ERROR,
                "ISA-NO-INPUT",
                header,
                "program has no LOAD_INPUT instruction",
            )
        )
    if output_slot is None:
        findings.append(
            Finding(
                ERROR,
                "ISA-NO-OUTPUT",
                header,
                "program has no STORE_OUTPUT instruction",
                hint="an artifact without an output cannot be executed; "
                "PlanVM refuses to bind it",
            )
        )
    leaked = sorted(
        slot
        for slot in live
        if slot != output_slot and slot != INPUT_SLOT
    )
    if leaked:
        findings.append(
            Finding(
                INFO,
                "ISA-LEAK",
                header,
                "slot(s) "
                + ", ".join(f"%{slot}" for slot in leaked)
                + " are still live at the end of the program",
                hint="missing RELEASE instructions cost arena high-water, "
                "not correctness",
            )
        )

    if network is not None:
        from repro.isa.bind import cfg_digest, weights_digest

        for label, expected, actual in (
            ("weights", weights_digest(network), program.weights_sha256),
            ("cfg", cfg_digest(network), program.cfg_sha256),
        ):
            if not actual:
                findings.append(
                    Finding(
                        INFO,
                        "ISA-HASH",
                        header,
                        f"artifact carries no {label} hash; bind-time "
                        f"verification is skipped for it",
                    )
                )
            elif actual != expected:
                findings.append(
                    Finding(
                        ERROR,
                        "ISA-HASH",
                        header,
                        f"{label} hash mismatch: artifact has "
                        f"{actual[:12]}..., the network hashes to "
                        f"{expected[:12]}...",
                        hint="the artifact was lowered from different "
                        "parameters; recompile it for this network",
                    )
                )
    return sort_findings(findings)


def verify_artifact(data: bytes, network=None) -> List[Finding]:
    """Decode ``.rpb`` bytes and verify; decode failures become findings."""
    from repro.isa.encode import decode
    from repro.isa.ops import DecodeError

    try:
        program = decode(data)
    except DecodeError as exc:
        return [
            Finding(
                ERROR,
                "ISA-DECODE",
                "artifact",
                f"artifact does not decode: {exc}",
                hint="regenerate the .rpb file; partial or corrupted "
                "artifacts are rejected wholesale",
            )
        ]
    return verify_program(program, network=network)


def roundtrip_findings(network, program: Program) -> List[Finding]:
    """Serialize *program*, decode it back, and verify the decoded form.

    *program* is what the compiler produced for *network* (``repro
    analyze`` passes the default ``-O2`` program — what serving runs).
    A serialization failure, or a decoded program that differs from the
    one encoded, is an ``ISA-ROUNDTRIP`` error; so is any difference
    between the overflow prover's verdicts on the two — the serialized
    form must be analytically indistinguishable from the in-memory one.
    """
    from repro.analyze.overflow import prove_program
    from repro.isa.encode import decode, encode
    from repro.isa.ops import IsaError

    header = program.network_name or "program"
    try:
        decoded = decode(encode(program))
    except IsaError as exc:
        return [
            Finding(
                ERROR,
                "ISA-ROUNDTRIP",
                header,
                f"program does not survive serialization: {exc}",
            )
        ]
    findings = verify_program(decoded, network=network)
    if decoded != program:
        findings.append(
            Finding(
                ERROR,
                "ISA-ROUNDTRIP",
                header,
                "the decoded program differs from the one encoded",
                hint="the encoder dropped or the decoder misread a "
                "program field",
            )
        )
    if prove_program(decoded, network) != prove_program(program, network):
        findings.append(
            Finding(
                ERROR,
                "ISA-ROUNDTRIP",
                header,
                "overflow verdicts differ between the compiled program "
                "and its decoded artifact",
                hint="the serialized form dropped metadata the prover "
                "depends on",
            )
        )
    return sort_findings(findings)


__all__ = ["verify_program", "verify_artifact", "roundtrip_findings"]
