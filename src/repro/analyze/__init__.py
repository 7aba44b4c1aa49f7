"""Static analysis of compiled plans, kernels and the threaded runtime.

Three passes, one finding model (:mod:`repro.analyze.findings`):

* :mod:`repro.analyze.dataflow` — abstract interpretation over an
  :class:`~repro.engine.plan.ExecutionPlan`: dtype/domain, shapes and
  value intervals propagated through every step using the loaded
  weights.
* :mod:`repro.analyze.overflow` — worst-case accumulator bounds per
  step: *proved safe*, *saturation possible* or *error*.
* :mod:`repro.analyze.isa` — verification of serialized plan artifacts:
  slot liveness on the decoded instruction stream, content-hash and
  format-version checks, and the compile→encode→decode round-trip run on
  every analyzed network.
* :mod:`repro.analyze.passes` — PASS-* rules re-running the optimizer's
  full ``-O2`` pipeline and re-verifying slot liveness and dataflow
  conservation after every pass.
* :mod:`repro.analyze.concurrency` / :mod:`repro.analyze.astlint` —
  AST rules over the threaded serve/pipeline/core code and the integer hot
  paths, run in CI as ``repro analyze --self``.

The cfg-text linter (:mod:`repro.nn.lint`) emits the same findings, so
``repro analyze`` renders and exit-codes all four sources identically.
See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analyze.findings import (
    ERROR,
    INFO,
    WARNING,
    Finding,
    exit_code,
    findings_to_json,
    has_errors,
    max_severity,
    sort_findings,
)


def analyze_network(
    network,
    config=None,
    input_interval: Tuple[float, float] = (0.0, 1.0),
) -> List[Finding]:
    """Run the plan passes (dataflow + overflow) and the cfg lint.

    *network* must be initialized (weights present) — the whole point of
    the plan passes is reasoning over the actual parameters.  *config*
    is the parsed cfg when available (zoo factories return it); without
    it the cfg-text lint is skipped.
    """
    from repro.analyze.dataflow import verify_plan
    from repro.analyze.isa import roundtrip_findings
    from repro.analyze.overflow import (
        prove_plan,
        prove_program,
        verdict_findings,
    )
    from repro.analyze.passes import pass_findings
    from repro.engine.plan import compile_plan
    from repro.isa.ops import LoweringError

    findings: List[Finding] = []
    if config is not None:
        from repro.nn.lint import lint_config

        findings.extend(lint_config(config))
    plan = compile_plan(network)
    findings.extend(verify_plan(plan, input_interval=input_interval))
    findings.extend(verdict_findings(prove_plan(plan)))
    try:
        from repro.isa.compiler import compile_network

        program, _stats = compile_network(network, validate=False)
        findings.extend(roundtrip_findings(network, program))
        findings.extend(pass_findings(network))
        # The overflow prover again, over the *optimized* instruction
        # stream — FUSED chains and split requant halves included.
        findings.extend(
            verdict_findings(prove_program(program, network), label="-O2 ")
        )
    except LoweringError:
        # A plan with layer types the ISA cannot express simply has no
        # serialized form to verify; that is not a finding.
        pass
    return sort_findings(findings)


def analyze_self(paths: Optional[List[str]] = None) -> List[Finding]:
    """Run the AST passes over the repo's own source (CI's ``--self``)."""
    from repro.analyze.astlint import lint_hot_paths
    from repro.analyze.concurrency import lint_concurrency

    if paths is not None:
        from repro.analyze import astlint, concurrency

        findings = list(concurrency.lint_concurrency(paths))
        findings.extend(astlint.lint_hot_paths(paths))
        return sort_findings(findings)
    findings = list(lint_concurrency())
    findings.extend(lint_hot_paths())
    return sort_findings(findings)


__all__ = [
    "Finding",
    "INFO",
    "WARNING",
    "ERROR",
    "sort_findings",
    "max_severity",
    "has_errors",
    "exit_code",
    "findings_to_json",
    "analyze_network",
    "analyze_self",
]
