"""``fabric.so`` — the FINN offload backend of Fig. 4.

Two halves:

* :func:`export_offload` plays the role of FINN's export flow: it compiles a
  trained W1A3 sub-network (the hidden layers of Tincy YOLO) into an
  offload bundle — a cfg snippet describing the sub-topology plus a
  ``binparam-...`` directory holding the packed binary weight matrices and
  the precomputed integer thresholds.
* :class:`FabricBackend` implements the Fig. 3 layer life cycle on top of
  such a bundle, executing it on the simulated iterated accelerator.  It is
  registered under the library name ``fabric.so`` so the exact cfg text of
  Fig. 4 works unchanged.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core.quantize import level_dtype
from repro.core.tensor import FeatureMapBatch
from repro.core.thresholds import ThresholdActivation
from repro.finn.accelerator import (
    DEFAULT_FMAX_HZ,
    DEFAULT_FOLDING,
    DEFAULT_LAYER_OVERHEAD_S,
    FabricStage,
    IteratedAccelerator,
    PoolStage,
    compile_stages,
)
from repro.finn.mvtu import MVTU, Folding, MVTUConvLayer
from repro.nn.config import Section
from repro.nn.registry import register_backend
from repro.nn.weights import load_binparam, save_binparam


def export_offload(
    layers: Sequence,
    input_scale: float,
    input_shape: Tuple[int, int, int],
    directory: str,
    folding: Folding = DEFAULT_FOLDING,
    verify: bool = False,
    verify_seed: int = 0,
) -> None:
    """Compile *layers* (conv/maxpool run) into a binparam offload bundle.

    With ``verify=True`` the compiled stages are driven with random level
    stimuli and checked against the source layers' forward pass before
    anything is written — a built-in regression gate for the
    export flow (the hardware analogue is RTL-vs-reference co-simulation).
    """
    stages = compile_stages(layers, input_scale, input_shape, folding=folding)
    if verify:
        verify_stages(stages, layers, input_scale, input_shape, seed=verify_seed)
    arrays = {}
    stage_meta = []
    for index, stage in enumerate(stages):
        prefix = f"stage{index:02d}"
        mvtu = stage.conv.mvtu
        arrays[f"{prefix}-weights"] = mvtu._weights_i8
        arrays[f"{prefix}-thresholds"] = mvtu.thresholds.thresholds
        arrays[f"{prefix}-signs"] = mvtu.thresholds.signs
        pool = None
        if stage.pool is not None:
            pool = {
                "size": stage.pool.size,
                "stride": stage.pool.stride,
                "padding": stage.pool.padding,
            }
        stage_meta.append(
            {
                "in_channels": stage.conv.in_channels,
                "ksize": stage.conv.ksize,
                "stride": stage.conv.stride,
                "pad": stage.conv.pad,
                "out_scale": stage.conv.out_scale,
                "bits": mvtu.thresholds.bits,
                "in_shape": list(stage.in_shape),
                "pool": pool,
            }
        )
    meta = {
        "input_scale": input_scale,
        "input_shape": list(input_shape),
        "folding": {"pe": folding.pe, "simd": folding.simd},
        "stages": stage_meta,
    }
    save_binparam(directory, arrays, meta)


def verify_stages(
    stages: Sequence[FabricStage],
    layers: Sequence,
    input_scale: float,
    input_shape: Tuple[int, int, int],
    seed: int = 0,
    n_stimuli: int = 2,
) -> None:
    """Drive compiled *stages* against the source *layers*; raise on mismatch.

    The *n_stimuli* random level frames run as one batch: through the
    stages' matmat datapath, and through the layers' own ``forward_batch``.
    """
    rng = np.random.default_rng(seed)
    max_level = (1 << stages[0].conv.mvtu.thresholds.bits) - 1
    levels = rng.integers(0, max_level + 1, size=(n_stimuli,) + tuple(input_shape))
    fabric = reference = FeatureMapBatch(levels, scale=input_scale)
    for stage in stages:
        fabric = stage.forward_batch_matmat(fabric)
    for layer in layers:
        reference = layer.forward_batch(reference)
    if not np.array_equal(fabric.data, reference.data):
        mismatch = int(np.count_nonzero(fabric.data != reference.data))
        raise AssertionError(
            f"export verification failed: {mismatch} of "
            f"{fabric.data.size} output levels differ from the "
            f"reference network"
        )


class FabricBackend:
    """Offload backend executing a binparam bundle on the iterated engine.

    The heavy artifacts load lazily in :meth:`load_weights` (the Fig. 3
    hook); :meth:`init` only validates geometry, mirroring how the original
    implementation defers bitstream interaction until the weights arrive.
    """

    def __init__(
        self,
        fmax_hz: float = DEFAULT_FMAX_HZ,
        layer_overhead_s: float = DEFAULT_LAYER_OVERHEAD_S,
    ) -> None:
        self.fmax_hz = fmax_hz
        self.layer_overhead_s = layer_overhead_s
        self.directory: Optional[str] = None
        self.accelerator: Optional[IteratedAccelerator] = None
        self._meta = None
        self._arrays = None

    @property
    def out_dtype(self):
        """The dtype of the maps this backend emits: the last stage's
        level codes (``uint8`` for W1A3)."""
        if self._meta is None:
            return None
        return level_dtype(int(self._meta["stages"][-1]["bits"]))

    # -- Fig. 3 life cycle -----------------------------------------------------

    def init(self, section: Section, in_shape: Tuple[int, int, int]):
        self.directory = section.get_str("weights")
        if not os.path.isdir(self.directory):
            raise FileNotFoundError(
                f"offload weight directory '{self.directory}' does not exist"
            )
        self._arrays, self._meta = load_binparam(self.directory)
        declared = tuple(self._meta["input_shape"])
        if tuple(in_shape) != declared:
            raise ValueError(
                f"offload bundle was exported for input {declared}, "
                f"network provides {tuple(in_shape)}"
            )
        self._build_accelerator()
        return self.accelerator.out_shape

    def load_weights(self) -> None:
        if self.accelerator is None:
            raise RuntimeError("load_weights before init")

    def _validate_input(self, fm_or_batch, caller: str) -> np.ndarray:
        """Common scale/dtype validation; returns the level array."""
        if self.accelerator is None:
            raise RuntimeError(f"{caller} before init")
        expected = self._meta["input_scale"]
        if not np.isclose(fm_or_batch.scale, expected, rtol=1e-6):
            raise ValueError(
                f"offload input scale {fm_or_batch.scale} does not match the "
                f"exported bundle's {expected}"
            )
        levels = np.asarray(fm_or_batch.data)
        if not np.issubdtype(levels.dtype, np.integer):
            raise ValueError("fabric offload consumes integer level codes")
        return levels

    def forward_batch(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Batched offload: the accelerator stacks all frames' GEMM columns."""
        levels = self._validate_input(fmb, "forward_batch")
        return faults.call(
            faults.FABRIC_BACKEND,
            lambda: self.accelerator.forward_batch(
                FeatureMapBatch(levels, scale=fmb.scale)
            ),
        )

    def reference_forward_batch(self, fmb: FeatureMapBatch) -> FeatureMapBatch:
        """Run the bundle's stages on the CPU reference datapath.

        Each stage is one :meth:`~repro.finn.mvtu.MVTUConvLayer.
        forward_batch_matmat` call over the whole batch — the MVTU's
        im2col + matmat, not the band kernel :meth:`forward_batch` runs,
        so ``fabric_mode="scrub"`` compares two independent datapaths.
        The degraded serving path runs it directly, bypassing the
        :data:`repro.faults.FABRIC_BACKEND` seam that models the physical
        engine.
        """
        levels = self._validate_input(fmb, "reference_forward_batch")
        batch = FeatureMapBatch(levels, scale=fmb.scale)
        for stage in self.accelerator.stages:
            batch = stage.forward_batch_matmat(batch)
        return batch

    def destroy(self) -> None:
        self.accelerator = None
        self._arrays = None
        self._meta = None

    # -- perf integration ---------------------------------------------------------

    def ops_per_frame(self) -> int:
        if self.accelerator is None:
            return 0
        return self.accelerator.ops_per_frame()

    def time_per_frame(self) -> float:
        if self.accelerator is None:
            raise RuntimeError("time_per_frame before init")
        return self.accelerator.time_per_frame()

    # -- internals ------------------------------------------------------------------

    def _build_accelerator(self) -> None:
        folding = Folding(**self._meta["folding"])
        stages = []
        for index, info in enumerate(self._meta["stages"]):
            prefix = f"stage{index:02d}"
            thresholds = ThresholdActivation(
                thresholds=self._arrays[f"{prefix}-thresholds"],
                signs=self._arrays[f"{prefix}-signs"],
                bits=int(info["bits"]),
            )
            mvtu = MVTU(
                self._arrays[f"{prefix}-weights"],
                thresholds,
                folding,
            )
            conv = MVTUConvLayer(
                mvtu,
                in_channels=int(info["in_channels"]),
                ksize=int(info["ksize"]),
                stride=int(info["stride"]),
                pad=int(info["pad"]),
                out_scale=float(info["out_scale"]),
            )
            pool = None
            if info["pool"] is not None:
                pool = PoolStage(
                    size=int(info["pool"]["size"]),
                    stride=int(info["pool"]["stride"]),
                    padding=int(info["pool"]["padding"]),
                )
            stages.append(
                FabricStage(conv=conv, pool=pool, in_shape=tuple(info["in_shape"]))
            )
        self.accelerator = IteratedAccelerator(
            stages, fmax_hz=self.fmax_hz, layer_overhead_s=self.layer_overhead_s
        )


# The cfg of Fig. 4 names the library 'fabric.so'; make that name resolve.
register_backend("fabric.so", FabricBackend)


__all__ = ["export_offload", "FabricBackend"]
