"""Frozen pre-engine walk loops — the equivalence oracle.

Before the execution engine, the spine carried four near-duplicate
walk-the-layer-list forward paths with runtime ``needs_history`` and
``offload_guard`` special-casing.  The batched walk below preserves those
semantics verbatim (keep-everything history, ``ltype == "offload"`` guard
keying and all) so the runtime can be pinned **bit-identical** against
them forever — by ``tests/test_engine.py`` and by ``make opt-check`` —
without the production code having to keep the old loops alive.

Do not "fix" or modernize this module: its value is that it does not move.
"""

from __future__ import annotations

from typing import List

from repro.core.tensor import FeatureMapBatch


def legacy_forward_batch_all(
    network, x: FeatureMapBatch, offload_guard=None
) -> List[FeatureMapBatch]:
    """The pre-engine batched walk, including its ``ltype`` guard keying."""
    fmb = x
    outputs: List[FeatureMapBatch] = []
    for layer in network.layers:
        if offload_guard is not None and layer.ltype == "offload":
            with offload_guard:
                fmb = layer.forward_batch(fmb)
        elif getattr(layer, "needs_history", False):
            fmb = layer.forward_batch(fmb, history=outputs)
        else:
            fmb = layer.forward_batch(fmb)
        outputs.append(fmb)
    return outputs


__all__ = ["legacy_forward_batch_all"]
