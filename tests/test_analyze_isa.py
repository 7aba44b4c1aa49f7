"""The ISA-* verifier over decoded plan artifacts."""

from dataclasses import replace

import pytest

from repro.analyze import analyze_network, has_errors
from repro.analyze.isa import (
    roundtrip_findings,
    verify_artifact,
    verify_program,
)
from repro.isa import compile_network, encode
from repro.isa.ops import (
    CONV,
    FORMAT_VERSION,
    GEMM,
    LOAD_INPUT,
    RELEASE,
    STORE_OUTPUT,
    Instruction,
    Program,
)
from repro.nn import zoo
from repro.nn.network import Network


@pytest.fixture()
def mlp4(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    return network


def _compiled(network, name=""):
    return compile_network(network, name=name)[0]


def _program(instructions, version=FORMAT_VERSION):
    return Program(
        network_name="synthetic",
        weights_sha256="",
        cfg_sha256="",
        input_shape=(1, 4, 4),
        output_shape=(2, 1, 1),
        instructions=tuple(instructions),
        version=version,
    )


_WELL_FORMED = (
    Instruction(LOAD_INPUT, 0, shape=(1, 4, 4)),
    Instruction(CONV, 1, srcs=(0,), shape=(2, 2, 2), ltype="convolutional"),
    Instruction(RELEASE, 0),
    Instruction(GEMM, 2, srcs=(1,), shape=(2, 1, 1), ltype="connected"),
    Instruction(RELEASE, 1),
    Instruction(STORE_OUTPUT, 2, shape=(2, 1, 1)),
)


def _rules(findings):
    return [finding.rule for finding in findings]


class TestLivenessRules:
    def test_well_formed_program_is_clean(self):
        assert verify_program(_program(_WELL_FORMED)) == []

    def test_lowered_zoo_program_is_clean(self, mlp4):
        program = _compiled(mlp4, name="mlp4")
        assert verify_program(program, network=mlp4) == []

    def test_use_after_release(self):
        # The GEMM reads %1 after %1 was released.
        stream = [
            Instruction(LOAD_INPUT, 0, shape=(1, 4, 4)),
            Instruction(CONV, 1, srcs=(0,), shape=(2, 2, 2)),
            Instruction(RELEASE, 1),
            Instruction(GEMM, 2, srcs=(1,), shape=(2, 1, 1)),
            Instruction(STORE_OUTPUT, 2),
        ]
        findings = verify_program(_program(stream))
        assert "ISA-RELEASED" in _rules(findings)
        assert has_errors(findings)

    def test_undefined_source(self):
        stream = [
            Instruction(LOAD_INPUT, 0),
            Instruction(CONV, 1, srcs=(7,)),
            Instruction(STORE_OUTPUT, 1),
        ]
        assert "ISA-UNDEF" in _rules(verify_program(_program(stream)))

    def test_redefined_destination(self):
        stream = [
            Instruction(LOAD_INPUT, 0),
            Instruction(CONV, 1, srcs=(0,)),
            Instruction(CONV, 1, srcs=(0,)),
            Instruction(STORE_OUTPUT, 1),
        ]
        assert "ISA-REDEF" in _rules(verify_program(_program(stream)))

    def test_double_release(self):
        stream = [
            Instruction(LOAD_INPUT, 0),
            Instruction(CONV, 1, srcs=(0,)),
            Instruction(RELEASE, 0),
            Instruction(RELEASE, 0),
            Instruction(STORE_OUTPUT, 1),
        ]
        assert "ISA-RELEASED" in _rules(verify_program(_program(stream)))

    def test_release_of_undefined_slot(self):
        stream = [
            Instruction(LOAD_INPUT, 0),
            Instruction(CONV, 1, srcs=(0,)),
            Instruction(RELEASE, 9),
            Instruction(STORE_OUTPUT, 1),
        ]
        assert "ISA-UNDEF" in _rules(verify_program(_program(stream)))

    def test_missing_framing_ops(self):
        rules = _rules(
            verify_program(_program([Instruction(CONV, 1, srcs=(0,))]))
        )
        assert "ISA-NO-INPUT" in rules
        assert "ISA-NO-OUTPUT" in rules

    def test_leaked_slots_are_informational(self):
        stream = [
            Instruction(LOAD_INPUT, 0),
            Instruction(CONV, 1, srcs=(0,)),
            Instruction(CONV, 2, srcs=(1,)),
            Instruction(STORE_OUTPUT, 2),
        ]
        findings = verify_program(_program(stream))
        leak = [f for f in findings if f.rule == "ISA-LEAK"]
        assert len(leak) == 1
        assert leak[0].severity == "info"
        assert "%1" in leak[0].message
        assert not has_errors(findings)


class TestHeaderRules:
    def test_cross_version_program_is_an_error(self):
        findings = verify_program(
            _program(_WELL_FORMED, version=FORMAT_VERSION + 1)
        )
        assert "ISA-VERSION" in _rules(findings)
        assert has_errors(findings)

    def test_hash_mismatch_against_the_live_network(self, mlp4):
        program = _compiled(mlp4, name="mlp4")
        mlp4.layers[0].weights[0, 0] += 1.0
        findings = verify_program(program, network=mlp4)
        hash_findings = [f for f in findings if f.rule == "ISA-HASH"]
        assert len(hash_findings) == 1
        assert hash_findings[0].severity == "error"
        assert "weights" in hash_findings[0].message

    def test_absent_hashes_are_informational(self, mlp4):
        program = replace(
            _compiled(mlp4, name="mlp4"),
            weights_sha256="",
            cfg_sha256="",
        )
        findings = verify_program(program, network=mlp4)
        assert _rules(findings) == ["ISA-HASH", "ISA-HASH"]
        assert not has_errors(findings)


class TestArtifactEntryPoint:
    def test_decode_failure_is_a_finding_not_an_exception(self):
        findings = verify_artifact(b"not an artifact at all")
        assert _rules(findings) == ["ISA-DECODE"]
        assert has_errors(findings)

    def test_valid_bytes_verify_clean(self, mlp4):
        data = encode(_compiled(mlp4, name="mlp4"))
        assert verify_artifact(data, network=mlp4) == []

    def test_corrupted_bytes_are_an_isa_decode_error(self, mlp4):
        data = bytearray(encode(_compiled(mlp4)))
        data[30] ^= 0xFF
        assert _rules(verify_artifact(bytes(data))) == ["ISA-DECODE"]


class TestRoundTripPass:
    def test_zoo_networks_round_trip_clean(self, mlp4):
        findings = roundtrip_findings(mlp4, _compiled(mlp4, name="mlp4"))
        assert [f for f in findings if f.rule == "ISA-ROUNDTRIP"] == []
        assert not has_errors(findings)

    def test_a_program_that_cannot_serialize_is_a_roundtrip_error(self, mlp4):
        program = replace(_compiled(mlp4, name="mlp4"), weights_sha256="xyz")
        findings = roundtrip_findings(mlp4, program)
        assert _rules(findings) == ["ISA-ROUNDTRIP"]
        assert has_errors(findings)

    def test_analyze_network_includes_the_isa_pass(self, mlp4):
        findings = analyze_network(mlp4)
        # The zoo plans serialize clean: the pass contributes no errors.
        assert not any(
            f.rule.startswith("ISA-") and f.severity == "error"
            for f in findings
        )
