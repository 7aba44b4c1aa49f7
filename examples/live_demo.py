#!/usr/bin/env python3
"""Live object detection on a synthetic video stream (the paper's §III-F demo).

Trains a miniature Tincy YOLO on the synthetic shapes dataset (~1 minute on
a laptop), then runs it on a synthetic camera, one frame at a time:
read -> letterbox -> detect -> object boxing -> drawing, with annotated
frames written as PPM files.

The trained model is a ``repro.train`` float model, which no ``Network``
loads, so this loop runs it directly.  The pipelined demo mode of Fig. 5
— a frame's CPU and FABRIC stage jobs on a worker pool — is
``repro.pipeline.run_demo`` on a ``Network``; its modeled 16 fps are
``python -m pytest benchmarks/test_fig5_pipeline.py``.

Run:  python examples/live_demo.py [output-dir]
"""

import sys
import time

from repro.data.shapes import CLASS_NAMES, ShapesDetectionDataset
from repro.eval.boxes import nms
from repro.train.models import mini_yolo
from repro.train.trainer import TrainConfig, train_detector
from repro.video.ascii_art import frame_to_ascii
from repro.video.draw import draw_detections
from repro.video.letterbox import letterbox
from repro.video.sink import CollectingSink
from repro.video.source import MotionCamera


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "demo-frames"

    print("=== training a mini Tincy YOLO on synthetic shapes ===")
    dataset = ShapesDetectionDataset(
        image_size=48, min_objects=1, max_objects=2,
        min_scale=0.25, max_scale=0.5, seed=1,
    )
    model = mini_yolo("mini-tincy", n_classes=20, input_size=48, seed=1)
    t0 = time.time()
    result = train_detector(
        model, dataset, TrainConfig(steps=400, batch_size=8, eval_samples=48)
    )
    print(f"trained in {time.time() - t0:.1f}s, "
          f"held-out mAP {result.map_percent:.1f}%")

    print("\n=== live demo ===")
    # A temporally coherent stream: objects drift smoothly between frames,
    # like the USB camera feed of the original demo.
    camera = MotionCamera(
        height=48, width=48, n_objects=2, speed=0.015,
        min_scale=0.25, max_scale=0.45, seed=99,
    )
    sink = CollectingSink(directory=out_dir)
    n_frames = 24
    frames = []
    t0 = time.time()
    for _ in range(n_frames):
        frame = camera.capture()
        boxed, geometry = letterbox(frame.image, 48)
        frame.detections = [
            det.__class__(
                box=geometry.net_box_to_frame(det.box),
                class_id=det.class_id,
                score=det.score,
                objectness=det.objectness,
            )
            for det in nms(model.detect(boxed, threshold=0.15))
        ]
        sink.emit(draw_detections(frame.image, frame.detections, n_classes=20))
        frames.append(frame)
    elapsed = time.time() - t0
    total_dets = sum(len(frame.detections) for frame in frames)
    print(f"processed {n_frames} frames in {elapsed:.2f}s "
          f"({n_frames / elapsed:.1f} fps), {total_dets} objects detected")
    for frame in frames[:5]:
        names = [CLASS_NAMES[d.class_id] for d in frame.detections]
        print(f"  frame {frame.index}: {names}")
    print(f"annotated frames written to {out_dir}/")

    # Terminal preview of the first frame that detected something.
    for frame in frames:
        if frame.detections:
            print("\n=== terminal preview (boxes overdrawn) ===")
            print(
                frame_to_ascii(
                    frame.image, width=64, detections=frame.detections,
                )
            )
            break


if __name__ == "__main__":
    main()
