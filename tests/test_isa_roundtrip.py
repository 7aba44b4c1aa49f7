"""Serialization round-trip and strict-decode tests for repro.isa."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resources import CPU, FABRIC
from repro.isa import (
    FORMAT_VERSION,
    DecodeError,
    EncodeError,
    Instruction,
    Program,
    decode,
    disassemble,
    encode,
    read_program,
    write_program,
)
from repro.isa.encode import MAGIC
from repro.isa.ops import (
    CONV,
    FUSED,
    GEMM,
    LOAD_INPUT,
    MAXPOOL,
    OFFLOAD,
    OPCODE_NAMES,
    PART_ACC,
    PART_VALUES,
    RELEASE,
    STORE_OUTPUT,
    THRESHOLD,
)

HEX = "0123456789abcdef"


def _recrc(body: bytes) -> bytes:
    """Re-seal arbitrary *body* bytes with a valid CRC footer."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _simple_program(**overrides) -> Program:
    fields = dict(
        network_name="mini",
        weights_sha256="ab" * 32,
        cfg_sha256="cd" * 32,
        input_shape=(3, 8, 8),
        output_shape=(4, 1, 1),
        instructions=(
            Instruction(LOAD_INPUT, 0, shape=(3, 8, 8), name="input"),
            Instruction(
                CONV, 1, srcs=(0,), shape=(2, 6, 6), ops=100,
                name="#00 conv", ltype="convolutional",
            ),
            Instruction(RELEASE, 0),
            Instruction(
                GEMM, 2, srcs=(1,), shape=(4, 1, 1), ops=288,
                name="#01 fc", ltype="connected",
            ),
            Instruction(RELEASE, 1),
            Instruction(STORE_OUTPUT, 2, shape=(4, 1, 1)),
        ),
    )
    fields.update(overrides)
    return Program(**fields)


# -- hypothesis strategies ---------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=12,
)
_shapes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 1024),
    st.integers(0, 1024),
)
_instructions = st.builds(
    Instruction,
    opcode=st.sampled_from(sorted(OPCODE_NAMES)),
    dest=st.integers(0, 2**32 - 1),
    srcs=st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
    resource=st.sampled_from([CPU, FABRIC]),
    shape=_shapes,
    ops=st.integers(0, 2**64 - 1),
    name=_names,
    ltype=_names,
    layer=st.integers(-1, 2**31 - 1),
    part=st.sampled_from(sorted(PART_VALUES)),
    fused_layers=st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple),
    releases=st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple),
)
_constants = st.tuples(
    _names,
    st.integers(0, 2**32 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_programs = st.builds(
    Program,
    network_name=_names,
    weights_sha256=st.sampled_from(["", "ab" * 32, "0f" * 32]),
    cfg_sha256=st.sampled_from(["", "12" * 32]),
    input_shape=_shapes,
    output_shape=_shapes,
    instructions=st.lists(_instructions, max_size=12).map(tuple),
    opt_level=st.integers(0, 255),
    passes=st.lists(_names, max_size=4).map(tuple),
    constants=st.lists(_constants, max_size=4).map(tuple),
)


class TestRoundTrip:
    @given(program=_programs)
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_encode_is_byte_identical(self, program):
        data = encode(program)
        decoded = decode(data)
        assert decoded == program
        assert encode(decoded) == data

    def test_artifact_file_round_trip(self, tmp_path):
        program = _simple_program()
        path = str(tmp_path / "mini.rpb")
        size = write_program(program, path)
        assert size == (tmp_path / "mini.rpb").stat().st_size
        assert read_program(path) == program

    def test_disassembly_names_every_instruction(self):
        program = _simple_program()
        text = disassemble(program)
        for instr in program.instructions:
            assert instr.mnemonic in text
        assert program.weights_sha256 in text
        assert "3x8x8" in text and "4x1x1" in text

    def test_optimized_program_round_trips(self, tmp_path):
        # The v2 vocabulary end to end: a split epilogue, a FUSED chain
        # with embedded releases, pass/constant header records.
        program = _simple_program(
            instructions=(
                Instruction(LOAD_INPUT, 0, shape=(3, 8, 8), name="input"),
                Instruction(
                    CONV, 1, srcs=(0,), shape=(2, 6, 6), ops=100,
                    name="#00 conv", ltype="convolutional", layer=0,
                    part=PART_ACC, releases=(0,),
                ),
                Instruction(
                    THRESHOLD, 2, srcs=(1,), shape=(2, 6, 6),
                    name="#00 threshold", ltype="threshold", layer=0,
                    part=PART_ACC, releases=(1,),
                ),
                Instruction(
                    FUSED, 3, srcs=(2,), shape=(4, 1, 1), ops=388,
                    name="#01 conv+maxpool", ltype="convolutional+maxpool",
                    fused_layers=(1, 2), releases=(2,),
                ),
                Instruction(STORE_OUTPUT, 3, shape=(4, 1, 1)),
            ),
            opt_level=2,
            passes=("fold-requant", "fuse-chains", "liveness"),
            constants=(("weights", 1, 0.0), ("thresholds", 0, 0.125)),
        )
        data = encode(program)
        decoded = decode(data)
        assert decoded == program
        assert encode(decoded) == data
        path = str(tmp_path / "opt.rpb")
        write_program(program, path)
        assert read_program(path) == program
        text = disassemble(program)
        assert "CONV.acc" in text and "THRESHOLD.acc" in text
        assert "layers 1+2" in text and "rel %2" in text
        assert "opt -O2" in text and "fold-requant" in text
        assert "const weights layer 1" in text


    def test_unbound_layer_survives_the_wire_but_never_binds(self):
        # layer=-1 is what pseudo-ops and FUSED carry, so the format can
        # represent it on a compute instruction too and the decoder lets it
        # through; bind is what refuses it — the layer is never guessed
        # from the slot number, even when dest - 1 names a matching layer.
        from dataclasses import replace

        from repro.isa import BindError, bind
        from repro.nn.network import Network

        network = Network.from_cfg(
            "[net]\nwidth=8\nheight=8\nchannels=3\n"
            "[convolutional]\nfilters=2\nsize=3\nstride=1\npad=0\n"
            "activation=linear\n"
            "[connected]\noutput=4\nactivation=linear\n"
        )
        unbound = decode(
            encode(_simple_program(weights_sha256="", cfg_sha256=""))
        )
        assert [i.layer for i in unbound.compute_instructions()] == [-1, -1]
        with pytest.raises(BindError, match="executes layer -1"):
            bind(unbound, network)
        named = replace(
            unbound,
            instructions=tuple(
                replace(instr, layer=instr.dest - 1) if instr.is_compute
                else instr
                for instr in unbound.instructions
            ),
        )
        assert len([layer for layer in bind(named, network) if layer]) == 2


class TestStrictDecode:
    def test_bad_magic_is_rejected(self):
        data = encode(_simple_program())
        with pytest.raises(DecodeError, match="bad magic"):
            decode(b"NOPE" + data[4:])

    def test_too_short_to_be_an_artifact(self):
        with pytest.raises(DecodeError, match="shorter than"):
            decode(MAGIC)

    def test_every_single_byte_corruption_is_caught(self):
        data = encode(_simple_program())
        # CRC-before-structure means any flipped byte anywhere in the
        # stream is one clear error, never a half-parsed program.
        for offset in range(len(MAGIC), len(data), 7):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0xFF
            with pytest.raises(DecodeError, match="CRC mismatch"):
                decode(bytes(corrupt))

    def test_plain_truncation_is_rejected(self):
        data = encode(_simple_program())
        for cut in (len(data) - 1, len(data) // 2, len(MAGIC) + 5):
            with pytest.raises(DecodeError):
                decode(data[:cut])

    def test_resealed_truncation_names_the_missing_field(self):
        # Truncate the body and restore a valid CRC: the bounds-checked
        # reader (not the checksum) must still refuse, naming the field.
        data = encode(_simple_program())
        body = data[:-4]
        with pytest.raises(DecodeError, match="truncated program"):
            decode(_recrc(body[: len(body) - 6]))

    def test_cross_version_header_is_refused(self):
        data = encode(_simple_program())
        body = bytearray(data[:-4])
        offset = len(MAGIC)
        body[offset : offset + 2] = struct.pack("<H", FORMAT_VERSION + 1)
        with pytest.raises(
            DecodeError, match=f"format version {FORMAT_VERSION + 1} not"
        ):
            decode(_recrc(bytes(body)))

    def test_reserved_flags_are_refused(self):
        data = encode(_simple_program())
        body = bytearray(data[:-4])
        offset = len(MAGIC) + 2
        body[offset : offset + 2] = struct.pack("<H", 0x8000)
        with pytest.raises(DecodeError, match="reserved header flags"):
            decode(_recrc(bytes(body)))

    def test_trailing_bytes_are_refused(self):
        data = encode(_simple_program())
        with pytest.raises(DecodeError, match="trailing bytes"):
            decode(_recrc(data[:-4] + b"\x00\x01"))

    def test_unknown_opcode_is_refused(self):
        program = Program(
            network_name="",
            weights_sha256="",
            cfg_sha256="",
            input_shape=(1, 1, 1),
            output_shape=(1, 1, 1),
            instructions=(Instruction(LOAD_INPUT, 0),),
        )
        data = encode(program)
        body = bytearray(data[:-4])
        # The single instruction starts right after the fixed header
        # (magic, version/flags, empty name, two 32-byte hashes, two
        # 3xu32 shapes, the v2 opt_level u8 + empty pass list u8 + empty
        # constant table u16, u32 instruction count); its first byte is
        # the opcode.
        opcode_offset = len(MAGIC) + 4 + 2 + 32 + 32 + 12 + 12 + 1 + 1 + 2 + 4
        assert body[opcode_offset] == LOAD_INPUT
        body[opcode_offset] = 0xEE
        with pytest.raises(DecodeError, match="unknown opcode"):
            decode(_recrc(bytes(body)))


class TestEncodeValidation:
    def test_non_hex_hash_is_an_encode_error(self):
        with pytest.raises(EncodeError, match="not a hex digest"):
            encode(_simple_program(weights_sha256="zz" * 32))

    def test_wrong_length_hash_is_an_encode_error(self):
        with pytest.raises(EncodeError, match="32 bytes"):
            encode(_simple_program(cfg_sha256="abcd"))

    def test_wrong_version_is_an_encode_error(self):
        with pytest.raises(EncodeError, match="version"):
            encode(_simple_program(version=FORMAT_VERSION + 1))

    def test_shape_must_be_three_dimensional(self):
        with pytest.raises(EncodeError, match=r"\(C, H, W\)"):
            encode(_simple_program(input_shape=(3, 8)))

    def test_overlong_ltype_is_an_encode_error(self):
        program = _simple_program(
            instructions=(
                Instruction(LOAD_INPUT, 0),
                Instruction(MAXPOOL, 1, srcs=(0,), ltype="x" * 300),
                Instruction(STORE_OUTPUT, 1),
            )
        )
        with pytest.raises(EncodeError, match="too long"):
            encode(program)


class TestProgramModel:
    def test_instruction_validates_opcode_and_resource(self):
        with pytest.raises(ValueError, match="unknown opcode"):
            Instruction(0x7F, 0)
        with pytest.raises(ValueError, match="unknown resource"):
            Instruction(CONV, 1, resource="gpu")
        with pytest.raises(ValueError, match="non-negative"):
            Instruction(CONV, -1)

    def test_uses_fabric_and_output_slot(self):
        program = _simple_program()
        assert not program.uses_fabric
        assert program.output_slot() == 2
        assert len(program.compute_instructions()) == 2
        fabric = _simple_program(
            instructions=program.instructions[:1]
            + (
                Instruction(
                    OFFLOAD, 1, srcs=(0,), resource=FABRIC,
                    shape=(1, 1, 1), ltype="offload",
                ),
                Instruction(STORE_OUTPUT, 1),
            )
        )
        assert fabric.uses_fabric
