"""PlanVM equivalence: the decoded artifact executes bit-identically."""

import sys
import threading

import numpy as np
import pytest

from repro.core import workspace
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.engine.reference import legacy_forward_batch_all
from repro.isa import (
    BindError,
    PlanVM,
    compile_network,
    decode,
    encode,
)
from repro.isa.ops import Program
from repro.nn import zoo
from repro.nn.network import Network


#: A small Tincy-style W1A3 net: 8-bit first conv, binary-weight 3-bit
#: hidden convs with max pools, a float last conv.
W1A3_CFG = """
[net]
width=32
height=32
channels=3

[convolutional]
batch_normalize=1
filters=16
size=3
stride=1
pad=1
activation=leaky
activation_bits=3

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=32
size=3
stride=1
pad=1
activation=leaky
binary=1
activation_bits=3

[maxpool]
size=2
stride=2

[convolutional]
batch_normalize=1
filters=32
size=3
stride=1
pad=1
activation=leaky
binary=1
activation_bits=3

[convolutional]
filters=10
size=1
stride=1
pad=0
activation=linear
"""


def _initialized(config, rng):
    network = Network(config)
    network.initialize(rng)
    return network


def _frames(rng, shape, count):
    return [
        FeatureMap(rng.normal(size=shape).astype(np.float32))
        for _ in range(count)
    ]


def _program(network, name="net", level=1):
    """-O1 by default: one whole instruction per layer, with liveness."""
    return compile_network(network, name=name, level=level)[0]


def _vm_for(network, name="net", level=1):
    return PlanVM(decode(encode(_program(network, name, level))), network)


class TestBitIdentity:
    @pytest.mark.parametrize("config_name", ["mlp4", "cnv6"])
    def test_vm_matches_executor_through_serialization(
        self, config_name, rng
    ):
        network = _initialized(getattr(zoo, f"{config_name}_config")(), rng)
        fmb = FeatureMapBatch.from_maps(
            _frames(rng, network.input_shape, 3)
        )
        # The decoded artifact's VM, the network's own in-process VM and
        # the frozen oracle all agree.
        reference = legacy_forward_batch_all(network, fmb)[-1]
        in_process = network.forward_batch(fmb)
        for level in (0, 1, 2):
            vm_out = _vm_for(network, level=level).run(fmb)
            assert vm_out.data.tobytes() == reference.data.tobytes()
            assert vm_out.data.tobytes() == in_process.data.tobytes()
            assert vm_out.scale == reference.scale

    def test_singleton_batch(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 1))
        assert np.array_equal(
            _vm_for(network).run(fmb).data,
            legacy_forward_batch_all(network, fmb)[-1].data,
        )

    def test_empty_batch_short_circuits(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        vm = _vm_for(network)
        out = vm.run(
            FeatureMapBatch(
                np.zeros((0,) + tuple(network.input_shape), dtype=np.float32)
            )
        )
        assert out.batch == 0
        assert out.data.shape[1:] == tuple(
            vm.program.output_shape
        )
        assert vm.last_report.batch == 0

    def test_vm_is_repeatable(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        vm = _vm_for(network)
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 2))
        first = vm.run(fmb)
        second = vm.run(fmb)
        assert np.array_equal(first.data, second.data)


class TestInstrumentationParity:
    def test_step_stats_mirror_the_executor(self, rng):
        network = _initialized(zoo.cnv6_config(), rng)
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 2))
        in_process = network.vm(1)
        in_process.run(fmb)
        vm = _vm_for(network)
        vm.run(fmb)
        engine, artifact = in_process.last_report, vm.last_report
        assert [s.name for s in artifact.steps] == [
            s.name for s in engine.steps
        ]
        assert [s.index for s in artifact.steps] == [
            s.index for s in engine.steps
        ]
        assert [s.ops for s in artifact.steps] == [s.ops for s in engine.steps]
        assert artifact.peak_live_bytes == engine.peak_live_bytes
        assert artifact.arena is not None

    def test_on_step_hook_fires_in_plan_order(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        seen = []
        program = decode(encode(_program(network)))
        vm = PlanVM(program, network, on_step=lambda s: seen.append(s.name))
        vm.run(FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 1)))
        assert seen == [step.name for step in network.plan().steps]


class TestValidation:
    def test_wrong_frame_shape_is_rejected(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        vm = _vm_for(network)
        bad = FeatureMapBatch(np.zeros((1, 2, 3, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="do not match"):
            vm.run(bad)

    def test_unknown_fabric_mode_is_rejected(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        vm = _vm_for(network)
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 1))
        with pytest.raises(ValueError, match="fabric_mode"):
            vm.run(fmb, fabric_mode="turbo")

    def test_weights_mutation_breaks_the_bind(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        program = _program(network)
        stale = (program.weights_sha256, program.cfg_sha256)
        network.layers[0].weights[0, 0] += 1.0
        with pytest.raises(BindError, match="weights hash mismatch"):
            PlanVM(program, network)
        # Digests the caller already computed are trusted, not recomputed.
        PlanVM(program, network, digests=stale)
        with pytest.raises(BindError, match="cfg hash mismatch"):
            PlanVM(program, network, digests=(stale[0], "0" * 64))

    def test_cross_network_bind_is_refused(self, rng):
        mlp = _initialized(zoo.mlp4_config(), rng)
        cnv = _initialized(zoo.cnv6_config(), rng)
        with pytest.raises(BindError):
            PlanVM(_program(mlp), cnv)

    def test_program_without_output_is_refused(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        program = _program(network)
        headless = Program(
            network_name=program.network_name,
            weights_sha256=program.weights_sha256,
            cfg_sha256=program.cfg_sha256,
            input_shape=program.input_shape,
            output_shape=program.output_shape,
            instructions=tuple(
                i for i in program.instructions if i.mnemonic != "STORE_OUTPUT"
            ),
        )
        with pytest.raises(BindError, match="STORE_OUTPUT"):
            PlanVM(headless, network)

    def test_shape_mismatch_breaks_the_bind(self, rng):
        from dataclasses import replace

        network = _initialized(zoo.mlp4_config(), rng)
        program = _program(network)
        doctored = list(program.instructions)
        first_compute = next(
            i for i, instr in enumerate(doctored) if instr.is_compute
        )
        doctored[first_compute] = replace(
            doctored[first_compute], shape=(9, 9, 9)
        )
        bad = replace(program, instructions=tuple(doctored))
        with pytest.raises(BindError, match="shape"):
            PlanVM(bad, network)

    @pytest.mark.parametrize("layer", [-1, 5, 2**31 - 1])
    def test_layer_index_is_never_guessed_from_the_slot(self, rng, layer):
        from dataclasses import replace

        network = _initialized(zoo.mlp4_config(), rng)
        assert len(network.layers) == 5
        program = _program(network)
        doctored = list(program.instructions)
        first_compute = next(
            i for i, instr in enumerate(doctored) if instr.is_compute
        )
        # dest - 1 would name a perfectly good layer; the hostile artifact
        # must be refused anyway.
        assert 0 <= doctored[first_compute].dest - 1 < len(network.layers)
        doctored[first_compute] = replace(doctored[first_compute], layer=layer)
        bad = decode(encode(replace(program, instructions=tuple(doctored))))
        with pytest.raises(BindError, match="executes layer"):
            PlanVM(bad, network)


@pytest.mark.integration
class TestFabricPrograms:
    """The serialized form of a hybrid CPU->fabric->CPU network."""

    @pytest.fixture()
    def hybrid(self, rng, tmp_path):
        from tests.test_serve_server import _hybrid_offload_network

        return _hybrid_offload_network(rng, tmp_path)

    def test_offload_lowering_and_bit_identity(self, hybrid, rng):
        program = decode(encode(_program(hybrid, name="mini-hybrid")))
        assert program.uses_fabric
        mnemonics = [i.mnemonic for i in program.compute_instructions()]
        assert "OFFLOAD" in mnemonics
        fmb = FeatureMapBatch.from_maps(_frames(rng, hybrid.input_shape, 2))
        reference = legacy_forward_batch_all(hybrid, fmb)[-1]
        vm_out = PlanVM(program, hybrid).run(fmb)
        assert vm_out.data.tobytes() == reference.data.tobytes()

    def test_reference_mode_matches_fabric_mode(self, hybrid, rng):
        vm = PlanVM(decode(encode(_program(hybrid))), hybrid)
        fmb = FeatureMapBatch.from_maps(_frames(rng, hybrid.input_shape, 2))
        fabric = vm.run(fmb, fabric_mode="fabric")
        reference = vm.run(fmb, fabric_mode="reference")
        # The export contract: the fabric backend and the CPU reference
        # path are bit-identical, so the VM's mode routing must be too.
        assert np.array_equal(fabric.data, reference.data)

    def test_fault_seam_is_shared_with_the_executor(self, hybrid, rng):
        from repro import faults

        vm = PlanVM(decode(encode(_program(hybrid))), hybrid)
        fmb = FeatureMapBatch.from_maps(_frames(rng, hybrid.input_shape, 1))
        plan = faults.FaultPlan.parse("fabric-raise@0")
        with faults.install(plan):
            with pytest.raises(faults.FabricError):
                vm.run(fmb)
            # The next attempt (occurrence 1) is past the plan: it works.
            out = vm.run(fmb)
        assert out.batch == 1

    def test_fabric_steps_respect_the_offload_guard(self, hybrid, rng):
        from repro.serve.workers import FabricGate

        gate = FabricGate()
        vm = PlanVM(
            decode(encode(_program(hybrid))), hybrid, offload_guard=gate
        )
        fmb = FeatureMapBatch.from_maps(_frames(rng, hybrid.input_shape, 1))
        vm.run(fmb)
        assert gate.acquisitions == 1
        assert gate.in_flight == 0


class TestStages:
    """The bind-time cut of a program into CPU and FABRIC stage jobs."""

    def test_a_cpu_program_is_one_stage(self, rng):
        network = _initialized(zoo.mlp4_config(), rng)
        vm = PlanVM(_program(network, level=2), network)
        assert [stage.resource for stage in vm.stages] == ["cpu"]
        (stage,) = vm.stages
        assert stage.stop == len(vm.program)
        assert not any(i.is_compute for i in vm.program.instructions[: stage.start])

    @pytest.mark.integration
    def test_a_hybrid_program_is_cpu_fabric_cpu(self, rng, tmp_path):
        from tests.test_serve_server import REGION_HEAD, _hybrid_offload_network

        network = _hybrid_offload_network(rng, tmp_path, head=REGION_HEAD)
        vm = PlanVM(decode(encode(_program(network, level=2))), network)
        instructions = vm.program.instructions
        assert [
            [i.name for i in instructions[stage.start : stage.stop] if i.is_compute]
            for stage in vm.stages
        ] == [
            ["#00 convolutional"],
            ["#01 offload"],
            ["#02 convolutional", "#03 region"],
        ]
        assert [stage.resource for stage in vm.stages] == ["cpu", "fabric", "cpu"]
        # Each stage on a thread of its own computes what one run does.
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 2))
        state = vm.start(fmb)
        for _ in vm.stages:
            thread = threading.Thread(target=vm.run_stage, args=(state,))
            thread.start()
            thread.join(60)
        assert state.done
        assert state.output.data.tobytes() == vm.run(fmb).data.tobytes()

    @pytest.mark.integration
    def test_a_failed_fabric_stage_can_run_again(self, rng, tmp_path):
        from repro import faults
        from tests.test_serve_server import _hybrid_offload_network

        network = _hybrid_offload_network(rng, tmp_path)
        vm = PlanVM(_program(network, level=2), network)
        fmb = FeatureMapBatch.from_maps(_frames(rng, network.input_shape, 2))
        expected = vm.run(fmb)
        state = vm.start(fmb)
        vm.run_stage(state)
        with faults.install(faults.FaultPlan.parse("fabric-raise@0")):
            with pytest.raises(faults.FabricError):
                vm.run_stage(state)
            assert state.stage == 1
            vm.run_stage(state)  # occurrence 1 is past the plan
        vm.run_stage(state)
        assert [s.name for s in state.report.steps] == [
            "#00 convolutional", "#01 offload", "#02 convolutional",
        ]
        assert state.output.data.tobytes() == expected.data.tobytes()


class TestConcurrentRuns:
    """Two threads in one PlanVM at once — the serving pool's normal case."""

    @staticmethod
    def _network(kind, rng):
        if kind == "w1a1":
            return _initialized(zoo.cnv6_config(), rng)
        network = Network.from_cfg(W1A3_CFG)
        network.initialize(rng)
        return network

    @pytest.mark.parametrize("kind", ["w1a1", "w1a3"])
    def test_interleaved_batch_sizes_match_forward_batch(self, kind, rng):
        network = self._network(kind, rng)
        vm = PlanVM(_program(network, level=2), network)
        batches = {
            size: FeatureMapBatch.from_maps(
                _frames(rng, network.input_shape, size)
            )
            for size in range(1, 9)
        }
        expected = {
            size: network.forward_batch(fmb) for size, fmb in batches.items()
        }
        # One thread climbs 1..8 while the other descends 8..1, twice.
        orders = [list(range(1, 9)) * 2, list(range(8, 0, -1)) * 2]

        # Every arena is checked out by one thread at a time, and the one
        # a thread's kernels allocate from (core.workspace is thread-local)
        # is the one that thread checked out.
        owners, lock = {}, threading.Lock()
        arenas = vm._arenas
        acquire, release = arenas.acquire, arenas.release

        def owned_acquire():
            arena = acquire()
            with lock:
                assert id(arena) not in owners
                owners[id(arena)] = threading.get_ident()
            return arena

        def owned_release(arena):
            with lock:
                assert owners.pop(id(arena)) == threading.get_ident()
            release(arena)

        # Both threads' first runs meet inside the VM: the runs overlap.
        meet = threading.Barrier(2)
        met = threading.local()

        def on_step(stats):
            with lock:
                assert owners[id(workspace.current())] == threading.get_ident()
            if not getattr(met, "done", False):
                met.done = True
                meet.wait(60)

        arenas.acquire, arenas.release = owned_acquire, owned_release
        vm.on_step = on_step
        results = [[], []]
        errors = []

        def worker(index):
            try:
                for size in orders[index]:
                    results[index].append((size, vm.run(batches[size])))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
                meet.abort()

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-step, often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not owners
        # Checked only now, after both threads finished: a buffer shared
        # across threads would have overwritten an earlier output.
        for index in (0, 1):
            assert [size for size, _ in results[index]] == orders[index]
            for size, out in results[index]:
                assert out.scale == expected[size].scale
                assert out.data.tobytes() == expected[size].data.tobytes()
