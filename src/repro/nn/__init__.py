"""Numpy NN inference engine and the YoloLite reference model."""

from .layers import (Conv2D, Dense, GlobalAveragePool, Layer, MaxPool2D, ReLU,
                     Softmax, Workspace)
from .model import SequentialModel
from .oracle import ObjectDetector, OracleDetector
from .yolo_lite import (DEFAULT_BATCH_SIZE, DEFAULT_CLASSES, DEFAULT_INPUT_SIZE,
                        build_yolo_lite, classify_frames, preprocess_frames)

__all__ = [
    "Conv2D", "Dense", "GlobalAveragePool", "Layer", "MaxPool2D",
    "ReLU", "Softmax", "Workspace",
    "SequentialModel",
    "ObjectDetector", "OracleDetector",
    "DEFAULT_BATCH_SIZE", "DEFAULT_CLASSES", "DEFAULT_INPUT_SIZE",
    "build_yolo_lite", "classify_frames", "preprocess_frames",
]
