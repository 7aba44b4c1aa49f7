"""One frame through a batch-only forward: a frame is a batch of one."""

from repro.core.tensor import FeatureMap, FeatureMapBatch


def forward_frame(step, fm: FeatureMap) -> FeatureMap:
    """*step*'s ``forward_batch`` (a layer, FINN stage or backend) on *fm*."""
    return step.forward_batch(FeatureMapBatch.from_maps([fm])).frame(0)
