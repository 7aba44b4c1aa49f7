"""Content-addressed plan cache — instant warm cold-starts.

Plans are deployable artifacts once they serialize; the cache makes them
*reusable* artifacts: keyed by network name + format version + **opt
level** + cfg hash + weights hash, a ``.rpb`` under the cache directory
is exactly the program :func:`~repro.isa.compiler.compile_network`
would produce for that network at that ``-O`` level, so a restarting
server decodes and binds instead of recompiling.  Any change to the
topology, the weights, or the optimization level changes the key —
``-O0`` and ``-O2`` artifacts never collide, stale artifacts are
unreachable by construction, and the bind-time hash check backstops a
key collision.

A corrupt or cross-version cache entry is treated as a **miss** (and
removed): the cache must never be able to take a server down — worst
case it recompiles, which is the cold path it existed to avoid.  On a
miss, leftover artifacts of the same network written by an older format
version are likewise evicted (their key shape makes them unreachable;
removing them keeps the directory from accreting dead files across
upgrades).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.isa.bind import NO_DIGESTS, network_digests
from repro.isa.compiler import DEFAULT_OPT_LEVEL, compile_network
from repro.isa.encode import decode, write_program
from repro.isa.ops import FORMAT_VERSION, DecodeError, Program
from repro.isa.vm import PlanVM


def _sanitize_name(network_name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "-"
        for ch in (network_name or "network")
    )


def plan_cache_key(
    network_name: str,
    weights_sha256: str,
    cfg_sha256: str,
    version: int = FORMAT_VERSION,
    opt_level: int = 0,
) -> str:
    """The artifact's content address (also its cache file stem)."""
    return (
        f"{_sanitize_name(network_name)}-v{version}-O{int(opt_level)}"
        f"-{(cfg_sha256 or 'nocfg')[:12]}"
        f"-{(weights_sha256 or 'noweights')[:12]}"
    )


class PlanCache:
    """A directory of content-addressed ``.rpb`` plan artifacts."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + ".rpb")

    def load(self, key: str) -> Optional[Program]:
        """The cached program for *key*, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            return decode(data)
        except DecodeError:
            # A corrupt entry is a miss, and it must not stay around to
            # be re-parsed on every start.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, program: Program) -> str:
        """Write *program* under its content address; returns the path."""
        key = plan_cache_key(
            program.network_name,
            program.weights_sha256,
            program.cfg_sha256,
            program.version,
            program.opt_level,
        )
        path = self.path_for(key)
        # Write-then-rename so a concurrent reader never sees a torn file.
        tmp = path + ".tmp"
        write_program(program, tmp)
        os.replace(tmp, path)
        return path

    def evict_stale(self, network_name: str) -> int:
        """Remove this network's artifacts from other format versions.

        Old-version entries can never load (the decoder refuses their
        header) and — under older key shapes — can never even be
        addressed; they are dead weight.  Current-version entries at
        *any* opt level are kept.  Returns the number of files removed.
        """
        sanitized = _sanitize_name(network_name)
        current = f"{sanitized}-v{FORMAT_VERSION}-O"
        removed = 0
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return 0
        for filename in entries:
            if not filename.endswith(".rpb"):
                continue
            stem = filename[: -len(".rpb")]
            if stem.startswith(f"{sanitized}-v") and not stem.startswith(
                current
            ):
                try:
                    os.remove(os.path.join(self.directory, filename))
                    removed += 1
                except OSError:
                    pass
        return removed

    def get_or_compile(
        self,
        network,
        name: str = "",
        opt_level: Optional[int] = None,
        validate: Optional[bool] = None,
        digests: Optional[Tuple[str, str]] = None,
    ) -> Tuple[Program, bool]:
        """The network's program, from cache when possible.

        Returns ``(program, hit)``: on a miss the network is compiled at
        *opt_level* (the compiler default when ``None``), stale
        old-version artifacts are evicted, and the fresh artifact is
        stored for the next start with ``hit`` False.

        *validate* is the translation-validation admission contract
        (default: the compiler's own policy — on at ``-O2``).  When
        validation is in force, a cached artifact **must** carry the
        ``tv_ok`` provenance flag; one that does not — written by an
        unvalidated compile or hand-edited — is treated as a miss and
        replaced by a freshly validated compile.  A miscompiled stream
        therefore cannot hide in the cache: it either re-validates or
        never gets served.

        *digests* is the network's ``(weights, cfg)`` digest pair when
        the caller already hashed it; the key and a miss's compile both
        use the one pair, so the weights are hashed at most once here.
        """
        level = DEFAULT_OPT_LEVEL if opt_level is None else int(opt_level)
        want_tv = bool(validate) if validate is not None else level >= 2
        if digests is None:
            digests = network_digests(network)
        key = plan_cache_key(name, digests[0], digests[1], opt_level=level)
        program = self.load(key)
        if program is not None:
            if not want_tv or program.tv_ok:
                return program, True
            program = None  # unvalidated artifact: admission refused
        self.evict_stale(name)
        program, _stats = compile_network(
            network, name=name, level=level, validate=validate,
            digests=digests,
        )
        self.store(program)
        return program, False


def build_vm(
    network,
    cache_dir: Optional[str],
    name: str = "network",
    opt_level: int = DEFAULT_OPT_LEVEL,
    validate: Optional[bool] = None,
) -> Tuple[PlanVM, Optional[bool]]:
    """How every server comes up: ``(bound VM, cache hit | None)``.

    A shard tier calls it once, in its parent; the shards fork with the
    bound VM.  With a *cache_dir* the program comes from the
    content-addressed plan cache (compiled and stored on a miss) and the
    weights are hashed exactly once — the one digest pair keys the
    cache, stamps a fresh compile and is what bind compares to the
    artifact's stored digests.  Without one the network is compiled in-process at
    *opt_level*; that program never leaves the process, so it carries
    no digests and nothing is hashed (``hit`` is ``None``).
    """
    if cache_dir is None:
        program, _stats = compile_network(
            network, name=name, level=opt_level, validate=validate,
            digests=NO_DIGESTS,
        )
        return PlanVM(program, network), None
    digests = network_digests(network)
    program, hit = PlanCache(cache_dir).get_or_compile(
        network, name=name, opt_level=opt_level, validate=validate,
        digests=digests,
    )
    return PlanVM(program, network, digests=digests), hit


__all__ = ["plan_cache_key", "PlanCache", "build_vm"]
