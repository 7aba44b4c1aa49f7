"""Concurrency + hot-path AST lint: seeded fixture modules per rule.

Each rule gets a minimal source fixture exhibiting the violation, a
clean counterpart that must NOT fire (the rules must not cry wolf over
the repo's own disciplined code), and a suppressed variant proving the
``# analyze: allow(...)`` escape hatch works.
"""

import textwrap

from repro.analyze import analyze_self
from repro.analyze.astlint import lint_source as lint_ast
from repro.analyze.concurrency import lint_concurrency
from repro.analyze.concurrency import lint_source as lint_cc
from repro.analyze.findings import ERROR, WARNING


def _rules(findings):
    return [f.rule for f in findings]


BAD_LOCK = textwrap.dedent(
    """
    import threading

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = []

        def add(self, job):
            with self._lock:
                self._jobs = self._jobs + [job]

        def reset(self):
            self._jobs = []
    """
)


class TestLockDiscipline:
    def test_mixed_guarded_and_unguarded_write_is_error(self):
        findings = lint_cc(BAD_LOCK)
        hits = [f for f in findings if f.rule == "CC-LOCK-DISCIPLINE"]
        assert hits and hits[0].severity == ERROR
        assert "_jobs" in hits[0].message and "_lock" in hits[0].message

    def test_init_writes_are_exempt(self):
        source = textwrap.dedent(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []

                def add(self, job):
                    with self._lock:
                        self._jobs = self._jobs + [job]
            """
        )
        assert lint_cc(source) == []

    def test_allow_comment_suppresses(self):
        source = BAD_LOCK.replace(
            "self._jobs = []\n",
            "self._jobs = []  # analyze: allow(CC-LOCK-DISCIPLINE)\n",
        )
        # Only replace the occurrence inside reset(), not __init__.
        assert source.count("allow(CC-LOCK-DISCIPLINE)") == 2
        assert lint_cc(source) == []


class TestThreadStartOrder:
    def test_assignment_after_start_is_flagged(self):
        source = textwrap.dedent(
            """
            import threading

            class Runner:
                def go(self):
                    worker = threading.Thread(target=self._run)
                    worker.start()
                    self.ready = True
            """
        )
        findings = lint_cc(source)
        hits = [f for f in findings if f.rule == "CC-THREAD-BEFORE-INIT"]
        assert hits and hits[0].severity == WARNING

    def test_lock_guarded_assignment_after_join_is_not_flagged(self):
        # The serve/pipeline shutdown shape: threads joined, then state
        # cleared under the lock — properly synchronized, not a race.
        source = textwrap.dedent(
            """
            import threading

            class Runner:
                def go(self):
                    worker = threading.Thread(target=self._run)
                    worker.start()
                    worker.join()
                    with self._control:
                        self.active = None
            """
        )
        assert _rules(lint_cc(source)) == []

    def test_assignment_before_start_is_fine(self):
        source = textwrap.dedent(
            """
            import threading

            class Runner:
                def go(self):
                    self.ready = False
                    worker = threading.Thread(target=self._run)
                    worker.start()
            """
        )
        assert lint_cc(source) == []


class TestGateInvariant:
    def test_unlocked_counter_updates_are_errors(self):
        source = textwrap.dedent(
            """
            class Gate:
                def __enter__(self):
                    self.in_flight += 1
                    return self

                def __exit__(self, *exc_info):
                    self.in_flight -= 1
            """
        )
        findings = lint_cc(source)
        assert _rules(findings) == ["CC-GATE-INVARIANT", "CC-GATE-INVARIANT"]
        assert all(f.severity == ERROR for f in findings)

    def test_locked_counters_are_clean(self):
        source = textwrap.dedent(
            """
            class Gate:
                def __enter__(self):
                    with self._stats:
                        self.in_flight += 1
                    return self

                def __exit__(self, *exc_info):
                    with self._stats:
                        self.in_flight -= 1
            """
        )
        assert lint_cc(source) == []


BAD_BREAKER = textwrap.dedent(
    """
    import threading

    class Breaker:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = "closed"

        def trip(self):
            self._state = "open"
    """
)


class TestCircuitState:
    def test_bare_state_write_is_error(self):
        findings = lint_cc(BAD_BREAKER)
        hits = [f for f in findings if f.rule == "CC-CIRCUIT-STATE"]
        assert hits and hits[0].severity == ERROR
        assert "_state" in hits[0].message and "_lock" in hits[0].message

    def test_fires_even_when_no_write_is_guarded(self):
        # The distinction from CC-LOCK-DISCIPLINE: one bare write with NO
        # guarded sibling anywhere is still an error for state machines.
        assert "with self._lock" not in BAD_BREAKER
        assert "CC-CIRCUIT-STATE" in _rules(lint_cc(BAD_BREAKER))

    def test_guarded_state_write_is_clean(self):
        source = textwrap.dedent(
            """
            import threading

            class Breaker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = "closed"

                def trip(self):
                    with self._lock:
                        self._state = "open"
            """
        )
        assert _rules(lint_cc(source)) == []

    def test_non_state_machine_classes_are_exempt(self):
        # No lock in __init__ -> not the breaker shape, rule stays quiet.
        source = textwrap.dedent(
            """
            class Plain:
                def __init__(self):
                    self._state = "closed"

                def trip(self):
                    self._state = "open"
            """
        )
        assert _rules(lint_cc(source)) == []

    def test_allow_comment_suppresses(self):
        source = BAD_BREAKER.replace(
            'self._state = "open"',
            'self._state = "open"  # analyze: allow(CC-CIRCUIT-STATE)',
        )
        assert _rules(lint_cc(source)) == []


BAD_BLOCKING = textwrap.dedent(
    """
    import threading
    import time

    class Collector:
        def __init__(self):
            self._lock = threading.Lock()
            self._conn = make_pipe()

        def pull(self):
            with self._lock:
                return self._conn.recv()

        def nap(self):
            with self._lock:
                time.sleep(1.0)
    """
)


class TestBlockingUnderLock:
    def test_recv_and_sleep_under_lock_are_errors(self):
        findings = lint_cc(BAD_BLOCKING)
        hits = [f for f in findings if f.rule == "CC-BLOCKING-UNDER-LOCK"]
        assert len(hits) == 2
        assert all(f.severity == ERROR for f in hits)
        assert ".recv(" in hits[0].message and "_lock" in hits[0].message
        assert ".sleep(" in hits[1].message

    def test_condition_wait_idiom_is_exempt(self):
        # Waiting on the very condition you hold is how conditions work —
        # the exemption keys on the call owner matching the held lock.
        source = textwrap.dedent(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._ready = False

                def wait_ready(self):
                    with self._cond:
                        while not self._ready:
                            self._cond.wait()
            """
        )
        assert _rules(lint_cc(source)) == []

    def test_waiting_on_a_different_object_under_a_lock_still_fires(self):
        # Holding one lock while waiting on a *different* condition is
        # exactly the convoy the rule exists for.
        source = textwrap.dedent(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()

                def wait_other(self):
                    with self._lock:
                        self._cond.wait()
            """
        )
        assert "CC-BLOCKING-UNDER-LOCK" in _rules(lint_cc(source))

    def test_blocking_outside_any_lock_is_clean(self):
        source = textwrap.dedent(
            """
            import time

            class Collector:
                def pull(self):
                    message = self._conn.recv()
                    time.sleep(0.01)
                    return message
            """
        )
        assert _rules(lint_cc(source)) == []

    def test_allow_comment_suppresses(self):
        source = BAD_BLOCKING.replace(
            "return self._conn.recv()",
            "return self._conn.recv()  "
            "# analyze: allow(CC-BLOCKING-UNDER-LOCK)",
        ).replace(
            "time.sleep(1.0)",
            "time.sleep(1.0)  # analyze: allow(CC-BLOCKING-UNDER-LOCK)",
        )
        assert _rules(lint_cc(source)) == []


class TestHotPathRules:
    def test_three_nested_loops_are_flagged(self):
        source = textwrap.dedent(
            """
            def conv_pixels(image, kernel, out):
                for row in range(4):
                    for col in range(4):
                        for tap in range(9):
                            out[row, col] += image[row, col, tap] * kernel[tap]
            """
        )
        findings = lint_ast(source)
        assert _rules(findings) == ["AST-NESTED-LOOP"]

    def test_def_line_allow_comment_suppresses_nested_loop(self):
        source = textwrap.dedent(
            """
            # analyze: allow(AST-NESTED-LOOP)
            def conv_pixels(image, kernel, out):
                for row in range(4):
                    for col in range(4):
                        for tap in range(9):
                            out[row, col] += image[row, col, tap] * kernel[tap]
            """
        )
        assert lint_ast(source) == []

    def test_float_literal_in_integer_kernel(self):
        findings = lint_ast("def scale_i8(x):\n    return x * 1.5\n")
        assert _rules(findings) == ["AST-FLOAT-LIT"]

    def test_float_literal_outside_kernel_is_fine(self):
        assert lint_ast("def scale(x):\n    return x * 1.5\n") == []

    def test_wrapped_float_is_deliberate(self):
        source = (
            "import numpy as np\n"
            "def scale_i8(x):\n    return x * np.float32(1.5)\n"
        )
        assert lint_ast(source) == []

    def test_platform_width_builtins_are_flagged(self):
        findings = lint_ast("def pack(x):\n    return x.astype(float)\n")
        assert _rules(findings) == ["AST-PROMOTE"]
        findings = lint_ast(
            "import numpy as np\n"
            "def pack(n):\n    return np.zeros(n, dtype=int)\n"
        )
        assert _rules(findings) == ["AST-PROMOTE"]

    def test_where_between_python_floats_is_a_float64_temp(self):
        source = textwrap.dedent(
            """
            import numpy as np
            class Binarizer:
                scale: float = 1.0
                def quantize(self, x):
                    return np.where(x >= 0, {pos}, {neg}).astype(np.float32)
            """
        )
        for pos, neg in (("self.scale", "-self.scale"), ("1.0", "-1.0")):
            findings = lint_ast(
                source.format(pos=pos, neg=neg), "repro/core/quantize.py"
            )
            assert _rules(findings) == ["AST-F64-TEMP"]
            # only dtype-preserving hot paths are in scope
            assert lint_ast(source.format(pos=pos, neg=neg), "repro/cli.py") == []
        typed = source.format(
            pos="np.float32(self.scale)", neg="np.float32(-self.scale)"
        )
        assert lint_ast(typed, "repro/core/quantize.py") == []

    def test_f64_temps_are_seen_outside_def_bodies_and_in_the_layers(self):
        # The W1A1 sign activation lived in a module-level dict of lambdas
        # in nn/layers/ — outside every def and outside the old scope.
        table = textwrap.dedent(
            """
            import numpy as np
            _ACTIVATIONS = {{
                "linear": lambda x: x,
                "sign": lambda x: {select},
            }}
            sign = lambda x: {select}
            class Layer:
                activate = staticmethod(lambda x: {select})
            """
        )
        bad = table.format(select="np.where(x >= 0, 1.0, -1.0)")
        for path in ("repro/nn/layers/connected.py", "repro/core/ops.py"):
            findings = lint_ast(bad, path)
            assert _rules(findings) == ["AST-F64-TEMP"] * 3
            assert all("<module>" in f.message for f in findings)
        assert lint_ast(bad, "repro/nn/network.py") == []
        # the path scope, not the kernel-file flag, decides: nn/layers/ is
        # linted as part of the package walk, not as a kernel directory
        assert _rules(
            lint_ast(bad, "repro/nn/layers/connected.py", kernel_rules=False)
        ) == ["AST-F64-TEMP"] * 3
        good = table.format(select="np.where(x >= 0, np.int8(1), np.int8(-1))")
        assert lint_ast(good, "repro/nn/layers/connected.py") == []
        allowed = bad.replace(
            "sign = lambda", "# analyze: allow(AST-F64-TEMP)\nsign = lambda"
        )
        assert len(lint_ast(allowed, "repro/nn/layers/connected.py")) == 2
        # a def-line allow still covers the def body and only it
        in_def = textwrap.dedent(
            """
            import numpy as np
            def sign(x):  # analyze: allow(AST-F64-TEMP)
                return np.where(x >= 0, 1.0, -1.0)
            """
        )
        assert lint_ast(in_def, "repro/nn/layers/connected.py") == []

    def test_f64_scope_follows_the_kernels(self):
        from repro.analyze.astlint import default_paths

        alloc = "import numpy as np\ndef acc(n):\n    return np.zeros(n)\n"
        assert _rules(lint_ast(alloc, "repro/core/fused.py")) == ["AST-F64-TEMP"]
        assert _rules(lint_ast(alloc, "repro/nn/layers/maxpool.py")) == [
            "AST-F64-TEMP"
        ]
        # engine/fused.py is a numpy-free dispatcher since the band kernel
        # moved to core/fused.py
        assert lint_ast(alloc, "repro/engine/fused.py") == []
        assert not any(
            path.replace("\\", "/").endswith("engine/fused.py")
            for path in default_paths()
        )

    def test_offload_mvtu_is_on_the_hot_path_lint(self):
        from repro.analyze.astlint import default_paths

        assert any(
            path.replace("\\", "/").endswith("finn/mvtu.py")
            for path in default_paths()
        )
        findings = lint_ast(
            "import numpy as np\ndef acc(n):\n    return np.zeros(n)\n",
            "repro/finn/mvtu.py",
        )
        assert _rules(findings) == ["AST-F64-TEMP"]


    def test_hashing_a_whole_array_copy_is_flagged_package_wide(self):
        source = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            def digest(chunks):
                {body}
            """
        )
        for body in (
            "return hashlib.sha256(chunks[0].tobytes()).hexdigest()",
            "h = hashlib.sha256(); h.update(np.concatenate(chunks))",
            "h = hashlib.sha256(); h.update(chunks[0].tobytes())",
        ):
            # not a hot-path rule: it holds anywhere in the package
            findings = lint_ast(source.format(body=body), "repro/serve/x.py")
            assert _rules(findings) == ["AST-HASH-COPY"]
        for body in (
            "h = hashlib.sha256(); h.update(np.ascontiguousarray(chunks[0]))",
            "h = hashlib.sha256(); h.update(repr(chunks).encode())",
            "return chunks[0].tobytes()",
            "h = hashlib.sha256()\n    # analyze: allow(AST-HASH-COPY)\n"
            "    h.update(chunks[0].tobytes())",
        ):
            assert lint_ast(source.format(body=body), "repro/serve/x.py") == []

    def test_hash_copy_rule_walks_the_whole_package(self):
        from repro.analyze.astlint import default_paths, package_paths

        everything = [path.replace("\\", "/") for path in package_paths()]
        assert set(default_paths()) < set(package_paths())
        for module in ("serve/admission.py", "nn/weights.py", "isa/bind.py"):
            assert any(path.endswith(module) for path in everything)


class TestRepoIsClean:
    def test_self_lint_passes_on_the_repo_source(self):
        # The CI gate: repro analyze --self must stay clean.
        assert analyze_self() == []

    def test_concurrency_pass_alone_is_clean(self):
        assert lint_concurrency() == []
