"""Binary serialization of ISA programs — the ``.rpb`` artifact.

Layout (all integers little-endian, lengths in bytes)::

    header   magic        4   b"RPB\\x1a"
             version      u16 FORMAT_VERSION (decode refuses others)
             flags        u16 bit 0 = tv_ok (translation-validated);
                              other bits reserved, decode refuses them
             name         u16 length + utf-8 bytes
             weights_hash 32  raw weights_digest root (zeros when absent; v3)
             cfg_hash     32  raw sha256 (zeros when absent)
             input_shape  3 x u32
             output_shape 3 x u32
             opt_level    u8  (v2)
             n_passes     u8  + n_passes x (u8 length + utf-8)  (v2)
             n_constants  u16 + n_constants x constant  (v2)
               constant:  kind (u8 length + utf-8), layer u32, param f64
             n_instr      u32
    body     n_instr instructions:
             opcode       u8
             resource     u8  (0 CPU, 1 FABRIC)
             dest         u32
             n_srcs       u8  + n_srcs x u32
             shape        3 x u32
             ops          u64
             ltype        u8 length + utf-8 bytes
             name         u8 length + utf-8 bytes
             layer        i32 (-1 = unbound)  (v2)
             part         u8  (v2)
             n_fused      u8  + n_fused x u32  (v2)
             n_releases   u8  + n_releases x u32  (v2)
    footer   crc32        u32 of everything before it

Encoding is a pure function of the :class:`~repro.isa.ops.Program`
fields, so ``encode(decode(encode(p)))`` is byte-identical by
construction — the round-trip property tests pin it.  Decoding is
strict: truncation, trailing garbage, unknown opcodes/resources, a
foreign magic, a cross-version header, or a CRC mismatch each raise a
:class:`~repro.isa.ops.DecodeError` naming the problem and the offset.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

from repro.isa.ops import (
    FLAG_RESOURCES,
    FORMAT_VERSION,
    OPCODE_NAMES,
    PART_VALUES,
    RESOURCE_FLAGS,
    DecodeError,
    EncodeError,
    Instruction,
    Program,
)

MAGIC = b"RPB\x1a"

#: Header flag bit 0: the artifact's passes were translation-validated.
FLAG_TV_OK = 0x0001
#: Every flag bit this build understands; others are refused on decode.
_KNOWN_FLAGS = FLAG_TV_OK

_U8_MAX = 0xFF
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1


def _slot_list(slots, what: str) -> bytes:
    """A u8-counted list of u32 slot/layer ids."""
    if len(slots) > _U8_MAX:
        raise EncodeError(f"{what}: too many entries ({len(slots)})")
    out = struct.pack("<B", len(slots))
    for slot in slots:
        if not 0 <= slot <= _U32_MAX:
            raise EncodeError(f"{what}: id {slot} out of u32 range")
        out += struct.pack("<I", slot)
    return out


def _hash_bytes(hexdigest: str, what: str) -> bytes:
    if not hexdigest:
        return bytes(32)
    try:
        raw = bytes.fromhex(hexdigest)
    except ValueError:
        raise EncodeError(f"{what} is not a hex digest: {hexdigest!r}")
    if len(raw) != 32:
        raise EncodeError(
            f"{what} must be a sha256 (32 bytes), got {len(raw)}"
        )
    return raw


def _hash_hex(raw: bytes) -> str:
    return "" if raw == bytes(32) else raw.hex()


def _short_str(value: str, what: str) -> bytes:
    data = value.encode("utf-8")
    if len(data) > _U8_MAX:
        raise EncodeError(f"{what} too long to encode ({len(data)} bytes)")
    return struct.pack("<B", len(data)) + data


def _shape3(shape, what: str) -> bytes:
    if len(shape) != 3:
        raise EncodeError(f"{what} must be (C, H, W), got {tuple(shape)}")
    for value in shape:
        if not 0 <= int(value) <= _U32_MAX:
            raise EncodeError(f"{what} component {value} out of u32 range")
    return struct.pack("<3I", *(int(v) for v in shape))


def encode(program: Program) -> bytes:
    """Serialize *program* to ``.rpb`` bytes (header + body + CRC)."""
    if program.version != FORMAT_VERSION:
        raise EncodeError(
            f"can only encode format version {FORMAT_VERSION}, "
            f"got {program.version}"
        )
    name = program.network_name.encode("utf-8")
    if len(name) > _U16_MAX:
        raise EncodeError("network name too long to encode")
    out = bytearray()
    out += MAGIC
    out += struct.pack(
        "<HH", program.version, FLAG_TV_OK if program.tv_ok else 0
    )
    out += struct.pack("<H", len(name)) + name
    out += _hash_bytes(program.weights_sha256, "weights_sha256")
    out += _hash_bytes(program.cfg_sha256, "cfg_sha256")
    out += _shape3(program.input_shape, "input_shape")
    out += _shape3(program.output_shape, "output_shape")
    if not 0 <= program.opt_level <= _U8_MAX:
        raise EncodeError(f"opt_level {program.opt_level} out of u8 range")
    out += struct.pack("<B", program.opt_level)
    if len(program.passes) > _U8_MAX:
        raise EncodeError("too many applied passes to encode")
    out += struct.pack("<B", len(program.passes))
    for pass_name in program.passes:
        out += _short_str(pass_name, "pass name")
    if len(program.constants) > _U16_MAX:
        raise EncodeError("too many prepack constants to encode")
    out += struct.pack("<H", len(program.constants))
    for kind, layer, param in program.constants:
        out += _short_str(kind, "constant kind")
        if not 0 <= int(layer) <= _U32_MAX:
            raise EncodeError(f"constant layer {layer} out of u32 range")
        out += struct.pack("<Id", int(layer), float(param))
    if len(program.instructions) > _U32_MAX:
        raise EncodeError("too many instructions to encode")
    out += struct.pack("<I", len(program.instructions))
    for position, instr in enumerate(program.instructions):
        where = f"instruction {position} ({instr.mnemonic})"
        if instr.dest > _U32_MAX:
            raise EncodeError(f"{where}: dest slot out of u32 range")
        if len(instr.srcs) > _U8_MAX:
            raise EncodeError(f"{where}: too many source slots")
        if not 0 <= instr.ops <= 0xFFFFFFFFFFFFFFFF:
            raise EncodeError(f"{where}: ops count out of u64 range")
        out += struct.pack(
            "<BBI", instr.opcode, RESOURCE_FLAGS[instr.resource], instr.dest
        )
        out += struct.pack("<B", len(instr.srcs))
        for src in instr.srcs:
            if src > _U32_MAX:
                raise EncodeError(f"{where}: source slot out of u32 range")
            out += struct.pack("<I", src)
        out += _shape3(instr.shape, f"{where} shape")
        out += struct.pack("<Q", instr.ops)
        out += _short_str(instr.ltype, f"{where} ltype")
        out += _short_str(instr.name, f"{where} name")
        if not _I32_MIN <= instr.layer <= _I32_MAX:
            raise EncodeError(f"{where}: layer index out of i32 range")
        out += struct.pack("<iB", instr.layer, instr.part)
        out += _slot_list(instr.fused_layers, f"{where} fused_layers")
        out += _slot_list(instr.releases, f"{where} releases")
    out += struct.pack("<I", zlib.crc32(bytes(out)) & _U32_MAX)
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over the encoded byte stream."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise DecodeError(
                f"truncated program: wanted {count} bytes for {what} at "
                f"offset {self.offset}, only {len(self.data) - self.offset} "
                f"left"
            )
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def unpack(self, fmt: str, what: str) -> Tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def short_str(self, what: str) -> str:
        (length,) = self.unpack("<B", f"{what} length")
        return self.take(length, what).decode("utf-8")


def decode(data: bytes) -> Program:
    """Parse ``.rpb`` bytes back into a :class:`Program` (strict)."""
    if len(data) < len(MAGIC) + 4:
        raise DecodeError(
            f"not a plan artifact: {len(data)} bytes is shorter than the "
            f"fixed header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise DecodeError(
            f"not a plan artifact: bad magic {data[:len(MAGIC)]!r} "
            f"(expected {MAGIC!r})"
        )
    # CRC before structure: corruption anywhere becomes one clear error.
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    actual = zlib.crc32(body) & _U32_MAX
    if actual != crc:
        raise DecodeError(
            f"corrupted program: CRC mismatch (stored 0x{crc:08x}, "
            f"computed 0x{actual:08x})"
        )
    reader = _Reader(body)
    reader.take(len(MAGIC), "magic")
    version, flags = reader.unpack("<HH", "version/flags")
    if version != FORMAT_VERSION:
        raise DecodeError(
            f"format version {version} not supported: this build reads "
            f"version {FORMAT_VERSION} only"
        )
    if flags & ~_KNOWN_FLAGS:
        raise DecodeError(f"reserved header flags set (0x{flags:04x})")
    (name_len,) = reader.unpack("<H", "name length")
    network_name = reader.take(name_len, "network name").decode("utf-8")
    weights_hash = _hash_hex(reader.take(32, "weights hash"))
    cfg_hash = _hash_hex(reader.take(32, "cfg hash"))
    input_shape = reader.unpack("<3I", "input shape")
    output_shape = reader.unpack("<3I", "output shape")
    (opt_level,) = reader.unpack("<B", "opt level")
    (n_passes,) = reader.unpack("<B", "pass count")
    passes = tuple(
        reader.short_str(f"pass {i} name") for i in range(n_passes)
    )
    (n_constants,) = reader.unpack("<H", "constant count")
    constants = []
    for i in range(n_constants):
        kind = reader.short_str(f"constant {i} kind")
        layer, param = reader.unpack("<Id", f"constant {i}")
        constants.append((kind, int(layer), float(param)))
    (n_instr,) = reader.unpack("<I", "instruction count")
    instructions: List[Instruction] = []
    for position in range(n_instr):
        what = f"instruction {position}"
        opcode, flag, dest = reader.unpack("<BBI", what)
        if opcode not in OPCODE_NAMES:
            raise DecodeError(f"{what}: unknown opcode 0x{opcode:02x}")
        if flag not in FLAG_RESOURCES:
            raise DecodeError(f"{what}: unknown resource flag {flag}")
        (n_srcs,) = reader.unpack("<B", f"{what} src count")
        srcs = tuple(
            reader.unpack("<I", f"{what} src")[0] for _ in range(n_srcs)
        )
        shape = reader.unpack("<3I", f"{what} shape")
        (ops,) = reader.unpack("<Q", f"{what} ops")
        ltype = reader.short_str(f"{what} ltype")
        name = reader.short_str(f"{what} name")
        layer, part = reader.unpack("<iB", f"{what} layer/part")
        if layer < -1:
            raise DecodeError(f"{what}: layer index {layer} out of range")
        if part not in PART_VALUES:
            raise DecodeError(f"{what}: unknown instruction part {part}")
        (n_fused,) = reader.unpack("<B", f"{what} fused count")
        fused_layers = tuple(
            reader.unpack("<I", f"{what} fused layer")[0]
            for _ in range(n_fused)
        )
        (n_releases,) = reader.unpack("<B", f"{what} release count")
        releases = tuple(
            reader.unpack("<I", f"{what} release slot")[0]
            for _ in range(n_releases)
        )
        instructions.append(
            Instruction(
                opcode=opcode,
                dest=dest,
                srcs=srcs,
                resource=FLAG_RESOURCES[flag],
                shape=shape,
                ops=ops,
                name=name,
                ltype=ltype,
                layer=layer,
                part=part,
                fused_layers=fused_layers,
                releases=releases,
            )
        )
    if reader.offset != len(body):
        raise DecodeError(
            f"{len(body) - reader.offset} trailing bytes after the last "
            f"instruction"
        )
    return Program(
        network_name=network_name,
        weights_sha256=weights_hash,
        cfg_sha256=cfg_hash,
        input_shape=input_shape,
        output_shape=output_shape,
        instructions=tuple(instructions),
        version=version,
        opt_level=opt_level,
        passes=passes,
        constants=tuple(constants),
        tv_ok=bool(flags & FLAG_TV_OK),
    )


def write_program(program: Program, path: str) -> int:
    """Encode *program* to *path*; returns the artifact size in bytes."""
    data = encode(program)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def read_program(path: str) -> Program:
    """Read and decode the ``.rpb`` artifact at *path*."""
    with open(path, "rb") as handle:
        return decode(handle.read())


__all__ = [
    "MAGIC",
    "FLAG_TV_OK",
    "encode",
    "decode",
    "write_program",
    "read_program",
]
