"""Layer implementations of the Darknet substrate."""

from repro.nn.layers.base import (
    ArraySink,
    ArraySource,
    Layer,
    LayerWorkload,
    StreamSink,
    WeightSink,
    WeightSource,
)
from repro.nn.layers.connected import ConnectedLayer
from repro.nn.layers.convolutional import ConvolutionalLayer
from repro.nn.layers.maxpool import MaxpoolLayer
from repro.nn.layers.offload import OffloadLayer
from repro.nn.layers.region import RegionLayer, TINY_YOLO_VOC_ANCHORS
from repro.nn.layers.softmax import SoftmaxLayer

__all__ = [
    "Layer",
    "LayerWorkload",
    "WeightSource",
    "WeightSink",
    "ArraySource",
    "ArraySink",
    "StreamSink",
    "ConvolutionalLayer",
    "ConnectedLayer",
    "MaxpoolLayer",
    "OffloadLayer",
    "RegionLayer",
    "SoftmaxLayer",
    "TINY_YOLO_VOC_ANCHORS",
]
