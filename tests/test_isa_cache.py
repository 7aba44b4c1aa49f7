"""Content-addressed plan cache + the server's warm cold-start path."""

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.isa import (
    FORMAT_VERSION,
    PlanCache,
    encode,
    plan_cache_key,
    weights_digest,
)
from repro.nn import zoo
from repro.nn.network import Network


@pytest.fixture()
def mlp4(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    return network


class TestCacheKey:
    def test_key_carries_name_version_and_both_digests(self):
        key = plan_cache_key("mlp4", "ab" * 32, "cd" * 32)
        assert key.startswith(f"mlp4-v{FORMAT_VERSION}-")
        assert ("cd" * 6) in key
        assert ("ab" * 6) in key

    def test_hostile_names_are_sanitized(self):
        key = plan_cache_key("../../etc/passwd", "ab" * 32, "cd" * 32)
        assert "/" not in key and ".." not in key

    def test_key_changes_with_weights(self):
        assert plan_cache_key("n", "ab" * 32, "cd" * 32) != plan_cache_key(
            "n", "ba" * 32, "cd" * 32
        )


class TestPlanCache:
    def test_miss_compiles_and_stores_then_hits(self, tmp_path, mlp4):
        from repro.isa import DEFAULT_OPT_LEVEL, compile_network

        cache = PlanCache(str(tmp_path / "plans"))
        first, hit1 = cache.get_or_compile(mlp4, name="mlp4")
        second, hit2 = cache.get_or_compile(mlp4, name="mlp4")
        assert (hit1, hit2) == (False, True)
        assert first == second
        expected, _stats = compile_network(
            mlp4, name="mlp4", level=DEFAULT_OPT_LEVEL
        )
        assert encode(first) == encode(expected)

    def test_unoptimized_miss_matches_legacy_lowering(self, tmp_path, mlp4):
        cache = PlanCache(str(tmp_path / "plans"))
        program, hit = cache.get_or_compile(mlp4, name="mlp4", opt_level=0)
        assert not hit
        assert program.opt_level == 0 and program.passes == ()

    def test_opt_levels_have_distinct_addresses(self, tmp_path, mlp4):
        cache = PlanCache(str(tmp_path / "plans"))
        o0, hit0 = cache.get_or_compile(mlp4, name="mlp4", opt_level=0)
        o2, hit2 = cache.get_or_compile(mlp4, name="mlp4", opt_level=2)
        # Different levels never collide: the second compile is a miss,
        # and both artifacts stay loadable side by side afterwards.
        assert (hit0, hit2) == (False, False)
        assert o0.opt_level == 0 and o2.opt_level == 2
        assert cache.get_or_compile(mlp4, name="mlp4", opt_level=0)[1]
        assert cache.get_or_compile(mlp4, name="mlp4", opt_level=2)[1]

    def test_key_changes_with_opt_level(self):
        assert plan_cache_key(
            "n", "ab" * 32, "cd" * 32, opt_level=0
        ) != plan_cache_key("n", "ab" * 32, "cd" * 32, opt_level=2)

    def test_stale_format_versions_are_evicted_on_miss(self, tmp_path, mlp4):
        import os

        cache = PlanCache(str(tmp_path))
        stale = os.path.join(
            str(tmp_path), f"mlp4-v{FORMAT_VERSION - 1}-deadbeef.rpb"
        )
        with open(stale, "wb") as handle:
            handle.write(b"not a program")
        other = os.path.join(str(tmp_path), "other-v1-deadbeef.rpb")
        with open(other, "wb") as handle:
            handle.write(b"someone else's network")
        cache.get_or_compile(mlp4, name="mlp4")
        # The same network's old-version artifact is gone; other
        # networks' files are not ours to clean up.
        assert not os.path.exists(stale)
        assert os.path.exists(other)

    def test_a_format_2_cache_dir_misses_once_then_hits(self, tmp_path, mlp4):
        """A cache written when the weights digest was one flat sha256."""
        import hashlib
        import os
        import struct
        import zlib
        from dataclasses import replace

        from repro.isa import DecodeError, cfg_digest, compile_network, decode

        cache = PlanCache(str(tmp_path))
        flat = hashlib.sha256(mlp4.save_weights_array().tobytes()).hexdigest()
        program, _stats = compile_network(mlp4, name="mlp4", level=2)
        blob = bytearray(encode(replace(program, weights_sha256=flat)))
        blob[4:6] = struct.pack("<H", 2)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(DecodeError, match="version"):
            decode(bytes(blob))
        old = cache.path_for(
            plan_cache_key("mlp4", flat, cfg_digest(mlp4), version=2, opt_level=2)
        )
        with open(old, "wb") as handle:
            handle.write(bytes(blob))
        assert weights_digest(mlp4) != flat
        first, hit1 = cache.get_or_compile(mlp4, name="mlp4")
        assert not hit1 and not os.path.exists(old)
        second, hit2 = cache.get_or_compile(mlp4, name="mlp4")
        assert hit2 and second == first
        assert os.listdir(str(tmp_path)) == [os.path.basename(
            cache.path_for(plan_cache_key(
                "mlp4", weights_digest(mlp4), cfg_digest(mlp4), opt_level=2
            ))
        )]

    def test_weight_change_changes_the_address(self, tmp_path, mlp4):
        cache = PlanCache(str(tmp_path))
        cache.get_or_compile(mlp4, name="mlp4")
        mlp4.layers[0].weights[0, 0] += 1.0
        program, hit = cache.get_or_compile(mlp4, name="mlp4")
        # New content, new address: a stale artifact is unreachable, so
        # the recompile is a miss — and binds to the *new* weights.
        assert not hit
        assert program.weights_sha256 == weights_digest(mlp4)

    def test_corrupt_entry_is_a_miss_and_is_removed(self, tmp_path, mlp4):
        cache = PlanCache(str(tmp_path))
        program, _ = cache.get_or_compile(mlp4, name="mlp4")
        key = plan_cache_key(
            "mlp4",
            program.weights_sha256,
            program.cfg_sha256,
            opt_level=program.opt_level,
        )
        path = cache.path_for(key)
        with open(path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff\xff\xff")
        assert cache.load(key) is None
        import os

        assert not os.path.exists(path)
        # ...and the next get_or_compile recompiles cleanly.
        again, hit = cache.get_or_compile(mlp4, name="mlp4")
        assert not hit and again == program

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.load("nothing-here") is None


class TestServerColdStart:
    def test_server_records_miss_then_hit(self, tmp_path, mlp4, rng):
        from repro.serve import InferenceServer, ServeConfig

        frame = FeatureMap(
            rng.normal(size=mlp4.input_shape).astype(np.float32)
        )
        expected = mlp4.forward(frame)
        observed = []
        for _ in range(2):
            config = ServeConfig(
                plan_cache_dir=str(tmp_path / "plans"), plan_cache_name="mlp4"
            )
            with InferenceServer(mlp4, config) as server:
                out = server.infer(frame, timeout_s=30)
                snapshot = server.metrics.snapshot()
            assert np.array_equal(out.data, expected.data)
            observed.append(snapshot["plan_cache"])
        assert observed[0]["plan_cache_hit"] is False
        assert observed[0]["plan_source"] == "cache-miss"
        assert observed[1]["plan_cache_hit"] is True
        assert observed[1]["plan_source"] == "cache-hit"
        for entry in observed:
            assert entry["cold_start_ms"] > 0.0

    def test_server_without_cache_reports_compiled(self, mlp4, rng):
        from repro.serve import InferenceServer

        with InferenceServer(mlp4) as server:
            server.infer(
                FeatureMap(
                    rng.normal(size=mlp4.input_shape).astype(np.float32)
                ),
                timeout_s=30,
            )
            snapshot = server.metrics.snapshot()
        entry = snapshot["plan_cache"]
        assert entry["plan_cache_hit"] is None
        assert entry["plan_source"] == "compiled"
        assert entry["cold_start_ms"] >= 0.0

    def test_cached_serving_is_bit_identical_to_direct(
        self, tmp_path, mlp4, rng
    ):
        from repro.serve import InferenceServer, ServeConfig

        frames = [
            FeatureMap(rng.normal(size=mlp4.input_shape).astype(np.float32))
            for _ in range(5)
        ]
        config = ServeConfig(plan_cache_dir=str(tmp_path), plan_cache_name="m")
        with InferenceServer(mlp4, config) as server:
            served = server.infer_many(frames, timeout_s=30)
        for frame, got in zip(frames, served):
            assert np.array_equal(got.data, mlp4.forward(frame).data)

    @staticmethod
    def _count_weight_hashes(network, monkeypatch):
        """Every weights digest makes one pass over every layer's
        ``save_weights``, whichever sink it feeds; count the passes at
        the first layer."""
        calls = []
        first = network.layers[0]
        original = first.save_weights
        monkeypatch.setattr(
            first,
            "save_weights",
            lambda sink: (calls.append(1), original(sink))[1],
        )
        weights_digest(network)
        assert calls == [1]  # the probe sees the digest itself
        del calls[:]
        return calls

    def test_one_start_hashes_the_weights_once(
        self, tmp_path, mlp4, monkeypatch
    ):
        from repro.serve import InferenceServer, ServeConfig

        calls = self._count_weight_hashes(mlp4, monkeypatch)
        config = ServeConfig(
            plan_cache_dir=str(tmp_path), plan_cache_name="mlp4"
        )
        sources = []
        for _ in range(2):  # a miss (key + compile + bind), then a hit
            del calls[:]
            server = InferenceServer(mlp4, config)
            assert len(calls) == 1
            sources.append(server.metrics.snapshot()["plan_cache"]["plan_source"])
        assert sources == ["cache-miss", "cache-hit"]

    def test_the_stored_digest_is_still_compared_at_bind(
        self, tmp_path, mlp4
    ):
        from repro.isa import BindError, build_vm, cfg_digest, write_program

        cache = PlanCache(str(tmp_path))
        program, _hit = cache.get_or_compile(mlp4, name="mlp4")
        # Plant an artifact compiled for other weights under this
        # network's address: hashing once must not mean trusting the key.
        mlp4.layers[0].weights[0, 0] += 1.0
        key = plan_cache_key(
            "mlp4", weights_digest(mlp4), cfg_digest(mlp4),
            opt_level=program.opt_level,
        )
        write_program(program, cache.path_for(key))
        with pytest.raises(BindError, match="weights hash mismatch"):
            build_vm(mlp4, str(tmp_path), name="mlp4")

    def test_in_process_forward_never_hashes(self, mlp4, rng, monkeypatch):
        from repro.serve import InferenceServer, ServeConfig

        calls = self._count_weight_hashes(mlp4, monkeypatch)
        frame = FeatureMap(
            rng.normal(size=mlp4.input_shape).astype(np.float32)
        )
        mlp4.forward(frame)
        mlp4.forward_all(frame)
        InferenceServer(mlp4, ServeConfig())
        assert calls == []
