"""Shard processes: one simulated fabric device per OS process.

FINN-R scales throughput by replicating the dataflow engine behind a
dispatcher; the shard tier does the same at process granularity.  Each
shard is a child process running one
:class:`~repro.serve.server.InferenceServer` (queue, batcher, worker
pool, breaker and fabric retries) forked with the tier's bound VM,
talking to the router over one duplex :mod:`multiprocessing` pipe.

Wire protocol (plain tuples; ``Connection.send`` pickles them, which is
how the ``FeatureMap`` payloads travel)::

    parent -> shard                     shard -> parent
    ("req",  rid, FeatureMap)           ("res",  rid, FeatureMap)
                                        ("err",  rid, repr(exc))
    ("ping", seq)                       ("pong", seq, served, slow_left)
    ("slow", seconds, count)            -
    ("stop",)                           -
    -                                   ("ready", bring_up_ms, cache_hit)

The child's receive loop hands each request to its server and answers
from the request future's done-callback, so requests batch inside the
shard.  ``slow`` stalls sleep *in the receive loop*, so a slowed shard
still answers heartbeats between requests — slow and hung are
distinguishable, which is exactly what the router's health policy
needs.  Shards are spawned with the ``fork`` start method where the
platform has it: the network object (which may hold unpicklable
offload-backend handles) and the bound VM are inherited by memory image
instead of being pickled, and a fork start is what keeps 3-shard
full-scale Tincy tests cheap.  Without fork a shard builds its own VM.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Optional

from repro.core.tensor import FeatureMap


def _shard_main(conn, peer, network, config, bound=None) -> None:
    """Child entry point: start an engine on *bound* (a ``build_vm``
    result; None builds one), then serve the pipe until told to stop."""
    if peer is not None:
        peer.close()  # the parent's end, inherited across the fork
    began = time.perf_counter()
    try:
        from repro.serve.server import InferenceServer

        server = InferenceServer(network, config, bound=bound).start()
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        conn.send(("fail", repr(exc)))
        conn.close()
        return
    hit = server.metrics.snapshot()["plan_cache"]["plan_cache_hit"]
    conn.send(("ready", (time.perf_counter() - began) * 1e3, hit))
    # Replies leave from worker threads while this loop answers pings.
    send_lock = threading.Lock()
    served = 0

    def reply(rid: int, future) -> None:
        nonlocal served
        error = future.exception()
        with send_lock:
            if error is None:
                served += 1
                message = ("res", rid, future.result())
            else:
                message = ("err", rid, repr(error))
            try:
                conn.send(message)
            except (OSError, ValueError):
                pass  # the parent went away; the loop below notices too

    slow_left = 0
    slow_s = 0.0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # the parent went away; nothing left to serve
        tag = message[0]
        if tag == "req":
            rid = message[1]
            if slow_left > 0:
                slow_left -= 1
                time.sleep(slow_s)
            try:
                future = server.submit(message[2])
            except Exception as exc:  # noqa: BLE001 — routed to the parent
                with send_lock:
                    conn.send(("err", rid, repr(exc)))
            else:
                future.add_done_callback(lambda done, rid=rid: reply(rid, done))
        elif tag == "ping":
            with send_lock:
                conn.send(("pong", message[1], served, slow_left))
        elif tag == "slow":
            slow_s = float(message[1])
            slow_left = int(message[2])
        elif tag == "stop":
            break
    server.stop(timeout=5.0)
    conn.close()


class ShardError(RuntimeError):
    """A shard failed to start (its cold start raised in the child)."""


class Shard:
    """Parent-side handle of one shard process.

    Owns the process, the parent end of the pipe, and the router-facing
    state: liveness and the ping sequence.  *config* is the shard
    engine's :class:`~repro.serve.server.ServeConfig` (None: defaults).
    All mutable state is guarded by ``_lock`` — the collector thread, the
    heartbeat thread and the submitting client threads all touch it.
    """

    def __init__(self, index: int, network, config=None) -> None:
        self.name = f"shard{index}"
        self._network = network
        self._config = config
        self._lock = threading.Lock()
        # Pipe sends are not documented thread-safe; the submit path and
        # the heartbeat thread both write this connection, so every send
        # goes through one dedicated IO lock (never held while receiving).
        self._send_lock = threading.Lock()
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        self.cold_start_ms: Optional[float] = None
        self.plan_cache_hit: Optional[bool] = None
        self.ping_seq = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self, ready_timeout_s: float = 60.0) -> "Shard":
        """Fork the shard process and wait for its ``ready`` handshake."""
        return self.launch().wait_ready(ready_timeout_s)

    def launch(self, bound=None) -> "Shard":
        """Fork the shard process; its engine comes up in the background on
        *bound*, a ``build_vm`` result (None: the child builds one)."""
        if self.process is not None:
            raise RuntimeError(f"{self.name} already started")
        method = "fork" if fork_available() else None
        ctx = multiprocessing.get_context(method)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_main,
            args=(
                child_conn,
                parent_conn if method == "fork" else None,
                self._network,
                self._config,
                bound if method == "fork" else None,
            ),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        return self

    def wait_ready(self, ready_timeout_s: float = 60.0) -> "Shard":
        """Block until the launched shard's ``ready`` handshake arrives."""
        if not self.conn.poll(ready_timeout_s):
            self.kill()
            raise ShardError(f"{self.name} did not come up in {ready_timeout_s}s")
        message = self.conn.recv()
        if message[0] != "ready":
            self.kill()
            raise ShardError(f"{self.name} failed to start: {message[1]}")
        self.cold_start_ms = float(message[1])
        self.plan_cache_hit = message[2]
        return self

    def request_stop(self) -> None:
        """Ask the child to exit after the messages already in its pipe."""
        try:
            with self._send_lock:
                self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass  # already dead; kill()/join() clean up the process

    def kill(self) -> None:
        """SIGKILL the process (chaos 'shard-kill' and hang teardown)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass

    def join(self, timeout_s: Optional[float] = None) -> bool:
        if self.process is None:
            return True
        self.process.join(timeout_s)
        return not self.process.is_alive()

    # -- messaging ---------------------------------------------------------

    def send_request(self, rid: int, frame: FeatureMap) -> None:
        """Pickle *frame* down the pipe (raises OSError on a dead pipe)."""
        with self._send_lock:
            self.conn.send(("req", rid, frame))

    def send_ping(self) -> int:
        with self._lock:
            self.ping_seq += 1
            seq = self.ping_seq
        with self._send_lock:
            self.conn.send(("ping", seq))
        return seq

    def send_slow(self, seconds: float, count: int) -> None:
        with self._send_lock:
            self.conn.send(("slow", seconds, count))

    @property
    def sentinel(self) -> int:
        """The process sentinel fd — readable once the child exits."""
        return self.process.sentinel

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<Shard {self.name} pid={self.pid} {state}>"


def fork_available() -> bool:
    """True when the platform supports the fork start method (Linux/mac)."""
    return "fork" in multiprocessing.get_all_start_methods() and os.name == "posix"


__all__ = ["Shard", "ShardError", "fork_available"]
