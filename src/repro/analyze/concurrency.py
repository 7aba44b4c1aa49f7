"""Concurrency lint: AST checks over the threaded serving/pipeline code.

The serving subsystem's correctness argument rests on a handful of
lock-discipline conventions (one lock owns each piece of shared mutable
state; the fabric gate serializes the single FINN engine; worker threads
only start once the shared state they read exists).  Those conventions
are invisible to the type system and to the runtime until a race
actually fires — this pass checks them statically, per class, from the
source AST:

* ``CC-LOCK-DISCIPLINE`` — an instance attribute that is written under a
  ``with self.<lock>:`` block somewhere in the class is also written
  *outside* any such block (outside ``__init__``).  Whatever lock the
  guarded sites rely on, the unguarded write bypasses it.
* ``CC-THREAD-BEFORE-INIT`` — a method starts a thread and *then*
  assigns instance state; the thread may observe the attribute missing
  or stale.
* ``CC-GATE-INVARIANT`` — a context-manager class (``__enter__`` +
  ``__exit__``, the :class:`~repro.serve.workers.FabricGate` shape)
  mutates counters outside any ``with`` block; the gate's
  ``max_in_flight`` audit trail is only trustworthy if every counter
  update is serialized.
* ``CC-CIRCUIT-STATE`` — a state-machine class (``__init__`` binds both a
  lock and a ``*state*`` attribute, the
  :class:`~repro.serve.resilience.CircuitBreaker` shape) writes its state
  attribute outside ``with self.<lock>:``.  Stricter than
  ``CC-LOCK-DISCIPLINE``: it fires even when *no* write is guarded,
  because an unserialized state transition can tear the breaker's
  closed → open → half-open trajectory.
* ``CC-BLOCKING-UNDER-LOCK`` — a blocking call (``recv``, ``wait``,
  ``join``, ``sleep``, ``result``, ``select``) is made while holding a
  ``with self.<lock>:`` block.  A pipe recv or thread join under a lock
  turns every other acquirer into a hostage of the slow peer — the
  router's death-handling path must never wait on a shard while holding
  the routing lock.  ``Condition`` attributes bound in ``__init__`` are
  exempt when the wait is on the condition itself (``with
  self._not_empty: self._not_empty.wait()`` is *the* condition idiom).

Findings can be suppressed per line with ``# analyze: allow(RULE-ID)``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.astlint import is_suppressed, relative_to_package
from repro.analyze.findings import ERROR, WARNING, Finding

#: Packages holding the threaded code this pass audits by default
#: (``core`` for the kernel lanes, :mod:`repro.core.lanes`; ``isa`` for
#: the VM's run state, which a served run hands from thread to thread).
DEFAULT_MODULES = ("serve", "pipeline", "core", "isa")


def default_paths() -> List[str]:
    """The :data:`DEFAULT_MODULES` source files of the installed package."""
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
    return paths


def lint_concurrency(paths: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the concurrency rules over *paths* (default: :data:`DEFAULT_MODULES`)."""
    findings: List[Finding] = []
    for path in paths if paths is not None else default_paths():
        with open(path) as handle:
            source = handle.read()
        findings.extend(lint_source(source, filename=path))
    return findings


def lint_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Lint one module's source text (the unit tests inject fixtures here)."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    findings: List[Finding] = []
    label = relative_to_package(filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_lint_class(node, label, lines))
    for func in _all_functions(tree):
        findings.extend(_lint_thread_start_order(func, label, lines))
    return findings


# -- class-level rules --------------------------------------------------------


def _lint_class(
    cls: ast.ClassDef, label: str, lines: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    #: attr -> lock names it was written under somewhere in the class
    guarded: Dict[str, Set[str]] = {}
    #: attr -> (line, method) of writes outside any with-block
    unguarded: List[Tuple[str, int, str]] = []
    methods = [n for n in cls.body if isinstance(n, _FUNC_TYPES)]
    for method in methods:
        if method.name == "__init__":
            continue  # construction happens-before every other thread
        for attr, lock, line in _attribute_writes(method):
            if lock is not None:
                guarded.setdefault(attr, set()).add(lock)
            else:
                unguarded.append((attr, line, method.name))
    for attr, line, method in unguarded:
        if attr in guarded and not is_suppressed(lines, line, "CC-LOCK-DISCIPLINE"):
            locks = "/".join(sorted(guarded[attr]))
            findings.append(
                Finding(
                    ERROR,
                    "CC-LOCK-DISCIPLINE",
                    f"{label}:{line}",
                    f"{cls.name}.{method} writes self.{attr} outside a "
                    f"'with' block, but other methods guard it with "
                    f"self.{locks}",
                    hint=f"move the write under 'with self.{locks}:' (or "
                    "document why it is safe with "
                    "# analyze: allow(CC-LOCK-DISCIPLINE))",
                )
            )
    if _is_context_manager(cls):
        findings.extend(_lint_gate(cls, label, lines))
    findings.extend(_lint_circuit_state(cls, label, lines))
    findings.extend(_lint_blocking_under_lock(cls, label, lines))
    return findings


#: Method names that block the calling thread (pipe reads, thread joins,
#: timed waits).  A call to one of these while holding a lock makes every
#: other acquirer wait on the slow peer too.
_BLOCKING_ATTRS = ("recv", "recv_bytes", "wait", "wait_for", "join", "sleep", "select")


def _lint_blocking_under_lock(
    cls: ast.ClassDef, label: str, lines: List[str]
) -> List[Finding]:
    """No blocking call may run while a ``with self.<lock>:`` is held.

    The one exemption is the condition-variable idiom: ``with
    self._cond: self._cond.wait()`` *must* hold the condition while
    waiting on it — waiting on the very attribute named in the enclosing
    ``with`` is how conditions work, not a lock-discipline bug.
    """
    findings: List[Finding] = []
    for method in (n for n in cls.body if isinstance(n, _FUNC_TYPES)):
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _BLOCKING_ATTRS:
                continue
            lock = _enclosing_lock(method, node)
            if lock is None:
                continue
            owner = func.value
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
                and owner.attr == lock
            ):
                continue  # condition idiom: waiting on the held condition
            if is_suppressed(lines, node.lineno, "CC-BLOCKING-UNDER-LOCK"):
                continue
            findings.append(
                Finding(
                    ERROR,
                    "CC-BLOCKING-UNDER-LOCK",
                    f"{label}:{node.lineno}",
                    f"{cls.name}.{method.name} calls .{func.attr}(...) "
                    f"while holding self.{lock}; every other acquirer "
                    f"blocks on the slow peer for the duration",
                    hint="move the blocking call outside the lock (copy "
                    "the state you need first), or document why it is "
                    "safe with # analyze: allow(CC-BLOCKING-UNDER-LOCK)",
                )
            )
    return findings


def _lint_circuit_state(
    cls: ast.ClassDef, label: str, lines: List[str]
) -> List[Finding]:
    """State-machine classes must serialize every state-attribute write.

    Applies to classes whose ``__init__`` binds both a threading
    lock/condition and an attribute whose name contains ``state``.  Unlike
    ``CC-LOCK-DISCIPLINE`` this does not require a guarded write elsewhere
    to establish the convention — holding the class's own lock is the
    convention, and any bare write is an error.
    """
    init = next(
        (
            n
            for n in cls.body
            if isinstance(n, _FUNC_TYPES) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return []
    lock_attrs: Set[str] = set()
    state_attrs: Set[str] = set()
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _creates_lock(node.value):
                lock_attrs.add(target.attr)
            if "state" in target.attr.lower():
                state_attrs.add(target.attr)
    if not lock_attrs or not state_attrs:
        return []
    findings: List[Finding] = []
    for method in (n for n in cls.body if isinstance(n, _FUNC_TYPES)):
        if method.name == "__init__":
            continue
        for attr, lock, line in _attribute_writes(method):
            if attr not in state_attrs:
                continue
            if lock in lock_attrs:
                continue
            if is_suppressed(lines, line, "CC-CIRCUIT-STATE"):
                continue
            locks = "/".join(sorted(lock_attrs))
            findings.append(
                Finding(
                    ERROR,
                    "CC-CIRCUIT-STATE",
                    f"{label}:{line}",
                    f"state machine {cls.name}.{method.name} writes "
                    f"self.{attr} outside 'with self.{locks}:'; an "
                    f"unserialized transition can tear the state "
                    f"trajectory",
                    hint=f"transition under 'with self.{locks}:' (or, for "
                    "helpers whose callers hold the lock, document with "
                    "# analyze: allow(CC-CIRCUIT-STATE))",
                )
            )
    return findings


def _lint_gate(cls: ast.ClassDef, label: str, lines: List[str]) -> List[Finding]:
    """Context-manager classes must serialize their counter updates."""
    findings: List[Finding] = []
    for method in (n for n in cls.body if isinstance(n, _FUNC_TYPES)):
        if method.name == "__init__":
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _enclosing_lock(method, node) is None and not is_suppressed(
                lines, node.lineno, "CC-GATE-INVARIANT"
            ):
                findings.append(
                    Finding(
                        ERROR,
                        "CC-GATE-INVARIANT",
                        f"{label}:{node.lineno}",
                        f"gate class {cls.name} updates counter "
                        f"self.{target.attr} outside any lock; the "
                        f"max-in-flight audit trail is not trustworthy",
                        hint="wrap counter updates in the gate's stats lock",
                    )
                )
    return findings


def _lint_thread_start_order(
    func, label: str, lines: List[str]
) -> List[Finding]:
    """A method must not assign instance state after starting a thread."""
    findings: List[Finding] = []
    start_line = None
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Call) and _is_thread_start(stmt, func):
            start_line = min(start_line or stmt.lineno, stmt.lineno)
    if start_line is None:
        return findings
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        if _enclosing_lock(func, node) is not None:
            continue  # lock-guarded writes synchronize with the thread
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and node.lineno > start_line
                and not is_suppressed(lines, node.lineno, "CC-THREAD-BEFORE-INIT")
            ):
                findings.append(
                    Finding(
                        WARNING,
                        "CC-THREAD-BEFORE-INIT",
                        f"{label}:{node.lineno}",
                        f"{func.name} assigns self.{target.attr} after "
                        f"starting a thread (line {start_line}); the thread "
                        f"can observe the attribute missing or stale",
                        hint="initialize all shared state before the "
                        "thread starts",
                    )
                )
    return findings


# -- AST plumbing -------------------------------------------------------------

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _all_functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_TYPES):
            yield node


def _is_context_manager(cls: ast.ClassDef) -> bool:
    names = {n.name for n in cls.body if isinstance(n, _FUNC_TYPES)}
    return "__enter__" in names and "__exit__" in names


def _with_lock_name(item: ast.withitem) -> Optional[str]:
    """``with self.<name>:`` -> ``<name>``; anything else -> None."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. with self._lock.acquire_timeout(...)
        expr = expr.func
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _attribute_writes(func) -> List[Tuple[str, Optional[str], int]]:
    """All ``self.<attr>`` writes in *func* as (attr, lock-or-None, line)."""
    writes: List[Tuple[str, Optional[str], int]] = []

    def visit(node: ast.AST, lock: Optional[str]) -> None:
        if isinstance(node, ast.With):
            inner = lock
            for item in node.items:
                name = _with_lock_name(item)
                if name is not None:
                    inner = name
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    writes.append((target.attr, lock, node.lineno))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_TYPES) and child is not node:
                continue  # nested defs audit separately
            visit(child, lock)

    for stmt in func.body:
        visit(stmt, None)
    return writes


def _enclosing_lock(func, node: ast.AST) -> Optional[str]:
    """The ``with self.<lock>`` context *node* sits in, if any."""
    found: List[Optional[str]] = [None]

    def visit(current: ast.AST, lock: Optional[str]) -> None:
        if current is node:
            found[0] = lock
            return
        if isinstance(current, ast.With):
            inner = lock
            for item in current.items:
                name = _with_lock_name(item)
                if name is not None:
                    inner = name
            for child in ast.iter_child_nodes(current):
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(current):
            visit(child, lock)

    visit(func, None)
    return found[0]


def _is_thread_start(call: ast.Call, func) -> bool:
    """``<thread-ish>.start()`` — a name bound to a Thread() in *func*,
    or iteration over an attribute whose name says threads/workers."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "start"):
        return False
    owner = call.func.value
    thread_names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _creates_thread(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    thread_names.add(target.id)
    if isinstance(owner, ast.Name) and owner.id in thread_names:
        return True
    if isinstance(owner, ast.Name) and "thread" in owner.id.lower():
        return True
    if isinstance(owner, ast.Attribute) and "thread" in owner.attr.lower():
        return True
    return False


def _creates_lock(value: ast.AST) -> bool:
    """Does *value* construct a threading Lock / RLock / Condition?"""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", ""
            )
            if name in ("Lock", "RLock", "Condition"):
                return True
    return False


def _creates_thread(value: ast.AST) -> bool:
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", ""
            )
            if name == "Thread":
                return True
    return False


__all__ = ["lint_concurrency", "lint_source", "default_paths", "DEFAULT_MODULES"]
