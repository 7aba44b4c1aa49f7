"""repro.isa — the compiler and the one runtime: bytecode, VM, plan cache.

A network is compiled once into an ISA program and everything that
executes it — ``Network.forward*``, serving, the shard tier, the CLIs —
runs that program on :class:`~repro.isa.vm.PlanVM`.  Programs are also
portable artifacts (FINN-R's lower-to-an-IR move, done at our plan
level):

* :mod:`repro.isa.ops` — the fixed op set (``LOAD_INPUT``/``PACK``/
  ``GEMM``/``CONV``/``THRESHOLD``/``MAXPOOL``/``OFFLOAD``/``ROUTE``/
  ``RELEASE``/``STORE_OUTPUT`` + the ``REGION``/``SOFTMAX`` head ops)
  over numbered buffer slots, with resource tags and explicit liveness.
* :mod:`repro.isa.bind` — content digests and program -> layer
  binding (nothing in an artifact is trusted or guessed).
* :mod:`repro.isa.encode` — the versioned, CRC-guarded ``.rpb`` binary
  round-trip (``repro compile``).
* :mod:`repro.isa.disasm` — human-readable listings (``repro disasm``).
* :mod:`repro.isa.vm` — :class:`~repro.isa.vm.PlanVM`, the
  interpreter, bit-identical to the frozen :mod:`repro.engine.reference`
  oracle (pinned by the equivalence tests, ``make opt-check`` and
  ``make isa-roundtrip``).
* :mod:`repro.isa.cache` — the content-addressed plan cache behind
  serving's instant warm cold-start, and :func:`~repro.isa.cache.
  build_vm`, the one way a server comes up.
* :mod:`repro.isa.compiler` / :mod:`repro.isa.passes` — the optimizing
  three-stage compiler: frontend lowering, the ``-O{0,1,2}`` pass
  pipelines (requant folding, chain fusion, offload overlap, liveness,
  pre-packing) under a :class:`~repro.isa.passes.PassManager`, and the
  bind/VM backend.

See ``docs/ISA.md`` for the format specification and a worked
disassembly, and ``docs/COMPILER.md`` for the pass catalog.
"""

from repro.isa.bind import bind, cfg_digest, network_digests, weights_digest
from repro.isa.cache import PlanCache, build_vm, plan_cache_key
from repro.isa.compiler import (
    DEFAULT_OPT_LEVEL,
    compile_network,
    frontend,
    optimize,
)
from repro.isa.disasm import diff_disassembly, disassemble
from repro.isa.encode import decode, encode, read_program, write_program
from repro.isa.ops import (
    FORMAT_VERSION,
    BindError,
    DecodeError,
    EncodeError,
    Instruction,
    IsaError,
    LoweringError,
    Program,
)
from repro.isa.passes import (
    PIPELINES,
    PassError,
    PassManager,
    PassStats,
    TranslationValidationError,
    Witness,
    peak_live_elements,
)
from repro.isa.vm import (
    FABRIC_MODES,
    ExecutionReport,
    PlanVM,
    StepStats,
    run_fabric_step,
)

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_OPT_LEVEL",
    "PIPELINES",
    "PassError",
    "PassManager",
    "PassStats",
    "TranslationValidationError",
    "Witness",
    "compile_network",
    "frontend",
    "optimize",
    "peak_live_elements",
    "diff_disassembly",
    "Instruction",
    "Program",
    "IsaError",
    "LoweringError",
    "EncodeError",
    "DecodeError",
    "BindError",
    "bind",
    "weights_digest",
    "cfg_digest",
    "network_digests",
    "encode",
    "decode",
    "write_program",
    "read_program",
    "disassemble",
    "FABRIC_MODES",
    "StepStats",
    "ExecutionReport",
    "run_fabric_step",
    "PlanVM",
    "PlanCache",
    "plan_cache_key",
    "build_vm",
]
