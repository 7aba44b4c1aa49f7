"""Hot-path AST lint over the kernels in ``core/``, ``neon/`` and ``isa/``.

The integer kernels are the reproduction's arithmetic contract: they
must stay integer (a silently promoted float makes the fabric numbers
*wrong*, not slow — §III-D) and they must stay vectorized (a per-pixel
Python loop melts the §III-C NEON speedups back into the generic
baseline).  The rules:

* ``AST-FLOAT-LIT`` — a bare float literal participating in arithmetic
  inside an integer-kernel function (name mentions ``i8``/``u8``/
  ``acc16``/``acc32``/``popcount``/``bitserial``).  Floats wrapped in an
  explicit dtype constructor (``np.float32(...)``, ``fdt(...)``,
  ``float(...)``) are deliberate and exempt.
* ``AST-PROMOTE`` — ``.astype(float)`` / ``.astype(int)`` / ``dtype=float``
  with the Python *builtins*: their width is platform-dependent, which is
  exactly the non-reproducibility the pinned ``np.float32``/``np.int32``
  spellings avoid.
* ``AST-NESTED-LOOP`` — ``for`` nesting three levels or deeper in one
  function: the per-pixel-Python shape.  The instruction-level fidelity
  models (:mod:`repro.neon.gemmlowp`) document their loops with
  ``# analyze: allow(AST-NESTED-LOOP)``.
* ``AST-F64-TEMP`` — a numpy call that silently allocates a float64
  temporary on a hot path (``core/``, ``neon/``, ``nn/layers/``,
  ``finn/mvtu.py``): an allocator (``np.zeros``/``np.empty``/``np.ones``/
  ``np.full``) without a ``dtype=``, a ufunc (``np.maximum`` & co.)
  mixing a bare float literal into an array with neither ``out=`` nor
  ``dtype=``, or an ``np.where`` selecting between two Python floats
  (literals, or ``self.<field>`` annotated ``float`` in the module) —
  all double the temporary's footprint and break dtype preservation.
  Checked in ``def`` bodies and in module- and class-level code alike
  (a ``lambda`` in an activation table is as hot as a ``def``).
* ``AST-HASH-COPY`` — anywhere in the package, a ``hashlib`` constructor
  or ``.update(...)`` fed a ``.tobytes()`` call or an ``np.concatenate``
  result: the array is copied whole before a byte is hashed.  Hash the
  contiguous array itself (buffer protocol), chunk by chunk
  (:class:`repro.nn.layers.base.StreamSink`).

Suppression: a finding is dropped when its own line, the line above it,
or the enclosing ``def`` line carries ``# analyze: allow(RULE-ID)``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Optional, Sequence

from repro.analyze.findings import WARNING, Finding

#: Packages holding the hot-path kernels this pass audits by default.
DEFAULT_MODULES = ("core", "neon", "isa")

#: Function names treated as integer kernels for AST-FLOAT-LIT.
_INT_KERNEL_RE = re.compile(r"i8|u8|acc16|acc32|popcount|bitserial|int8")

#: Calls that make a float literal an explicit, deliberate conversion.
_DTYPE_CALL_RE = re.compile(r"float|int|fdt|wdt|sdt|dtype|np\.")

_ALLOW_RE = re.compile(r"#\s*analyze:\s*allow\(([A-Z0-9_,\s-]+)\)")

#: Paths where AST-F64-TEMP applies (dtype-preserving hot paths).
_F64_SCOPE_RE = re.compile(
    r"(^|[/\\])(core|neon|nn[/\\]layers)[/\\]|finn[/\\]mvtu\.py$"
)

#: numpy allocators that default to float64 without ``dtype=`` — mapped
#: to the positional index their dtype argument occupies.
_F64_ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}

#: numpy ufuncs commonly mixed with scalar literals on the hot paths.
_F64_UFUNCS = {
    "maximum",
    "minimum",
    "add",
    "subtract",
    "multiply",
    "divide",
    "true_divide",
    "power",
    "clip",
}


def relative_to_package(path: str) -> str:
    """Render *path* relative to the repro package root when possible."""
    try:
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        rel = os.path.relpath(os.path.abspath(path), root)
        if not rel.startswith(".."):
            return rel
    except Exception:  # pragma: no cover - degraded rendering only
        pass
    return path


def is_suppressed(lines: List[str], lineno: int, rule: str) -> bool:
    """True when an ``# analyze: allow(RULE)`` comment covers *lineno*."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            match = _ALLOW_RE.search(lines[candidate - 1])
            if match and rule in {
                part.strip() for part in match.group(1).split(",")
            }:
                return True
    return False


def _def_suppressed(lines: List[str], func, rule: str) -> bool:
    return is_suppressed(lines, func.lineno, rule) or is_suppressed(
        lines, func.lineno + 1, rule
    )


def default_paths() -> List[str]:
    import repro

    root = os.path.dirname(repro.__file__)
    paths: List[str] = []
    for module in DEFAULT_MODULES:
        directory = os.path.join(root, module)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                paths.append(os.path.join(directory, name))
    # The offload's MVTU lives outside the package directories above but
    # is exactly the dtype-preserving hot path AST-F64-TEMP exists to guard.
    paths.append(os.path.join(root, "finn", "mvtu.py"))
    return paths


def package_paths() -> List[str]:
    """Every ``.py`` file of the repro package (AST-HASH-COPY's scope)."""
    import repro

    return sorted(
        os.path.join(directory, name)
        for directory, _dirs, names in os.walk(os.path.dirname(repro.__file__))
        for name in names
        if name.endswith(".py")
    )


def lint_hot_paths(paths: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run every rule over *paths*; by default the hot-path kernels get
    every rule and the rest of the package the path-scoped ones alone
    (AST-HASH-COPY everywhere, AST-F64-TEMP where its scope says)."""
    findings: List[Finding] = []
    hot = paths if paths is not None else default_paths()
    kernel_rules = {path: True for path in hot}
    if paths is None:
        for path in package_paths():
            kernel_rules.setdefault(path, False)
    for path, kernel in kernel_rules.items():
        with open(path) as handle:
            source = handle.read()
        findings.extend(
            lint_source(source, filename=path, kernel_rules=kernel)
        )
    return findings


def lint_source(
    source: str, filename: str = "<string>", kernel_rules: bool = True
) -> List[Finding]:
    """Lint one file's *source*.  AST-HASH-COPY and (inside its path
    scope) AST-F64-TEMP follow the file's location; the kernel rules
    (nested loops, float literals, builtin-width casts) run when
    *kernel_rules* says the file is a hot-path kernel."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    label = relative_to_package(filename)
    findings = _lint_hash_copies(tree, label, lines)
    funcs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if kernel_rules:
        for func in funcs:
            findings.extend(_lint_function(func, label, lines))
    if _F64_SCOPE_RE.search(label):
        float_fields = _float_fields(tree)
        scopes = [(_outside_defs(tree), "<module>")] + [
            (ast.walk(func), func.name)
            for func in funcs
            if not _def_suppressed(lines, func, "AST-F64-TEMP")
        ]
        for nodes, owner in scopes:
            findings.extend(
                _lint_f64_temps(nodes, owner, label, lines, float_fields)
            )
    return findings


def _outside_defs(tree):
    """Every node of *tree* that no ``def`` encloses: module- and
    class-level statements, lambdas and dict-literal values included."""
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )


def _float_fields(tree) -> frozenset:
    """Names of class-level fields annotated plain ``float`` in the module."""
    return frozenset(
        stmt.target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and isinstance(stmt.annotation, ast.Name)
        and stmt.annotation.id == "float"
    )


def _lint_function(func, label: str, lines: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    depth = _max_for_depth(func)
    if depth >= 3 and not _def_suppressed(lines, func, "AST-NESTED-LOOP"):
        findings.append(
            Finding(
                WARNING,
                "AST-NESTED-LOOP",
                f"{label}:{func.lineno}",
                f"{func.name} nests {depth} Python for-loops; per-pixel "
                f"Python iteration undoes the vectorized hot path",
                hint="vectorize with numpy, or mark an intentional "
                "fidelity model with # analyze: allow(AST-NESTED-LOOP)",
            )
        )
    if _INT_KERNEL_RE.search(func.name) and not _def_suppressed(
        lines, func, "AST-FLOAT-LIT"
    ):
        findings.extend(_lint_float_literals(func, label, lines))
    findings.extend(_lint_promotions(func, label, lines))
    return findings


def _max_for_depth(func) -> int:
    def depth_of(node: ast.AST, current: int) -> int:
        deepest = current
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are linted on their own
            bump = 1 if isinstance(child, ast.For) else 0
            deepest = max(deepest, depth_of(child, current + bump))
        return deepest

    return depth_of(func, 0)


def _lint_float_literals(func, label: str, lines: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    wrapped: set = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _is_dtype_call(node):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Constant) and isinstance(
                    inner.value, float
                ):
                    wrapped.add(id(inner))
    for node in ast.walk(func):
        if not isinstance(node, ast.BinOp):
            continue
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                and id(operand) not in wrapped
                and not is_suppressed(lines, operand.lineno, "AST-FLOAT-LIT")
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "AST-FLOAT-LIT",
                        f"{label}:{operand.lineno}",
                        f"float literal {operand.value!r} in integer kernel "
                        f"{func.name}; implicit promotion changes the "
                        f"arithmetic contract",
                        hint="wrap in an explicit dtype constructor "
                        "(np.float32(...)) if the float is deliberate",
                    )
                )
    return findings


def _is_dtype_call(call: ast.Call) -> bool:
    name = ""
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        prefix = ""
        if isinstance(call.func.value, ast.Name):
            prefix = call.func.value.id + "."
        name = prefix + call.func.attr
    return bool(_DTYPE_CALL_RE.search(name))


def _is_python_float(node, float_fields: frozenset) -> bool:
    """A float literal or ``self.<float field>``, possibly negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in float_fields
    )


def _lint_f64_temps(
    nodes,
    owner: str,
    label: str,
    lines: List[str],
    float_fields: frozenset = frozenset(),
) -> List[Finding]:
    """Flag numpy calls among *nodes* (the code of *owner*) that allocate
    float64 temporaries on a hot path."""
    findings: List[Finding] = []
    for node in nodes:
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        value = node.func.value
        if not (isinstance(value, ast.Name) and value.id in ("np", "numpy")):
            continue
        attr = node.func.attr
        kwargs = {kw.arg for kw in node.keywords}
        if attr in _F64_ALLOCATORS:
            has_dtype = (
                "dtype" in kwargs
                or len(node.args) > _F64_ALLOCATORS[attr]
            )
            if not has_dtype and not is_suppressed(
                lines, node.lineno, "AST-F64-TEMP"
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "AST-F64-TEMP",
                        f"{label}:{node.lineno}",
                        f"np.{attr} without dtype= in {owner} defaults "
                        f"to float64; the hot path allocates a double-width "
                        f"temporary",
                        hint="pass the intended dtype= explicitly (the "
                        "batching PR made these kernels dtype-preserving)",
                    )
                )
        elif attr == "where":
            if (
                len(node.args) == 3
                and all(_is_python_float(a, float_fields) for a in node.args[1:])
                and not is_suppressed(lines, node.lineno, "AST-F64-TEMP")
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "AST-F64-TEMP",
                        f"{label}:{node.lineno}",
                        f"np.where selects between two Python floats in "
                        f"{owner}; the result is a float64 array",
                        hint="select between scalars of the intended dtype "
                        "(np.float32(scale)) instead of casting afterwards",
                    )
                )
        elif attr in _F64_UFUNCS:
            if "out" in kwargs or "dtype" in kwargs:
                continue
            bare_float = any(
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, float)
                for arg in node.args
            )
            if bare_float and not is_suppressed(
                lines, node.lineno, "AST-F64-TEMP"
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "AST-F64-TEMP",
                        f"{label}:{node.lineno}",
                        f"np.{attr} mixes a bare float literal into the "
                        f"array in {owner} with neither out= nor "
                        f"dtype=; numpy promotes the result to float64",
                        hint="wrap the literal in the array's dtype "
                        "(np.float32(0.0)) or supply out=",
                    )
                )
    return findings


def _lint_hash_copies(tree, label: str, lines: List[str]) -> List[Finding]:
    """Flag a ``hashlib`` constructor / ``.update`` fed a whole-array copy."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        owner = node.func.value
        if node.func.attr != "update" and not (
            isinstance(owner, ast.Name) and owner.id == "hashlib"
        ):
            continue
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr in ("tobytes", "concatenate")
                and not is_suppressed(lines, node.lineno, "AST-HASH-COPY")
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "AST-HASH-COPY",
                        f"{label}:{node.lineno}",
                        f".{arg.func.attr}() copies the whole array before "
                        f"a byte of it is hashed",
                        hint="pass the C-contiguous array itself to update() "
                        "(buffer protocol), chunk by chunk — see "
                        "repro.nn.layers.base.StreamSink",
                    )
                )
    return findings


def _lint_promotions(func, label: str, lines: List[str]) -> List[Finding]:
    """Flag width-ambiguous ``astype(float)`` / ``dtype=int`` spellings."""
    findings: List[Finding] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        builtin = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in ("float", "int")
        ):
            builtin = node.args[0].id
        for keyword in node.keywords:
            if (
                keyword.arg == "dtype"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id in ("float", "int")
            ):
                builtin = keyword.value.id
        if builtin and not is_suppressed(lines, node.lineno, "AST-PROMOTE"):
            findings.append(
                Finding(
                    WARNING,
                    "AST-PROMOTE",
                    f"{label}:{node.lineno}",
                    f"{func.name} converts through the platform-width "
                    f"builtin '{builtin}'",
                    hint="pin the width: np.float64/np.int64 (or the "
                    "narrow dtype the kernel contract names)",
                )
            )
    return findings


__all__ = [
    "lint_hot_paths",
    "lint_source",
    "default_paths",
    "package_paths",
    "is_suppressed",
    "relative_to_package",
    "DEFAULT_MODULES",
]
