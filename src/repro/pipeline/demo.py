"""The re-implemented ``demo`` mode (Fig. 5), on the serving engine.

"Implementing the desired processing pipeline required a complete
re-implementation of Darknet's demo mode ...  even the network inference
(forward) pass had to be disintegrated to gain access to the invocations of
the individual layers."

Fig. 5's pipeline is four stages longer than the network: frame reading
and letter boxing ahead of it, object boxing and frame drawing after it.
:func:`run_demo` hands the network part to an
:class:`~repro.serve.server.InferenceServer`, which runs each frame as the
plan's CPU and FABRIC stage jobs on its worker pool (the disintegrated
forward pass).  The four extra stages run on the caller: it reads and
letter-boxes each frame and submits it, then boxes and draws the outputs
in submission order.  A frame whose offload fails is computed on the
bit-identical CPU reference path and drawn with a degraded-mode banner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.tensor import FeatureMap
from repro.eval.boxes import Detection, nms
from repro.nn.layers.region import RegionLayer
from repro.nn.network import Network
from repro.serve.server import InferenceServer, ServeConfig
from repro.video.draw import draw_degraded_banner, draw_detections
from repro.video.letterbox import LetterboxGeometry, letterbox
from repro.video.source import Frame


@dataclass
class DemoPayload:
    """One frame's trip through the demo pipeline."""

    frame: Frame
    #: The network's output for the frame.
    fm: Optional[FeatureMap] = None
    geometry: Optional[LetterboxGeometry] = None
    detections: List[Detection] = field(default_factory=list)
    annotated: Optional[np.ndarray] = None
    #: True when the frame's offload fell back to the CPU reference path
    #: (the frame is annotated with a degraded-mode marker).
    degraded: bool = False


def run_demo(
    network: Network,
    camera,
    sink,
    n_frames: int,
    workers: int = 4,
    detection_threshold: float = 0.24,
) -> List[DemoPayload]:
    """Process *n_frames* through the Fig. 5 pipeline, in frame order.

    *workers* CPU workers run the network's CPU stages next to the one
    fabric executor.
    """
    region = network.layers[-1]
    if not isinstance(region, RegionLayer):
        raise ValueError("the demo pipeline expects a region detection head")
    net_size = network.input_shape[1]
    # One frame per batch, as Fig. 5's jobs each advance one frame.  No
    # retry: a fabric failure degrades its frame at once.
    config = ServeConfig(max_batch=1, cpu_workers=workers, max_retries=0)

    def box_and_draw(payload: DemoPayload, future) -> DemoPayload:
        payload.fm = future.result()
        payload.degraded = future.degraded
        kept = nms(region.detections(payload.fm, threshold=detection_threshold))
        payload.detections = [
            Detection(
                box=payload.geometry.net_box_to_frame(det.box),
                class_id=det.class_id,
                score=det.score,
                objectness=det.objectness,
            )
            for det in kept
        ]
        payload.frame.detections = payload.detections
        payload.annotated = draw_detections(
            payload.frame.image, payload.detections, n_classes=region.classes
        )
        if payload.degraded:
            draw_degraded_banner(payload.annotated)
        sink.emit(payload.annotated)
        return payload

    payloads: List[DemoPayload] = []
    in_flight: deque = deque()
    with InferenceServer(network, config) as server:
        for _ in range(n_frames):
            payload = DemoPayload(frame=camera.capture())
            boxed, payload.geometry = letterbox(payload.frame.image, net_size)
            future = server.submit(FeatureMap(boxed.astype(np.float32)))
            in_flight.append((payload, future))
            # Never more frames in flight than the server's queue admits.
            if len(in_flight) == config.max_queue_depth:
                payloads.append(box_and_draw(*in_flight.popleft()))
        while in_flight:
            payloads.append(box_and_draw(*in_flight.popleft()))
    return payloads


__all__ = ["DemoPayload", "run_demo"]
