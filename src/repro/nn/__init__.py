"""Numpy NN inference engine, the YoloLite reference model and partitioning."""

from .layers import (Conv2D, Dense, Flatten, GlobalAveragePool, Layer, MaxPool2D,
                     ReLU, Softmax, Workspace)
from .model import LayerSummary, SequentialModel
from .oracle import (ConstantDetector, NNDetector, ObjectDetector, OracleDetector,
                     detect_many)
from .partition import (NeurosurgeonPartitioner, PartitionDecision, SplitCandidate)
from .profiler import (CLOUD_DEVICE, EDGE_DEVICE, DeviceSpec, LayerProfile,
                       ModelProfiler)
from .yolo_lite import (DEFAULT_BATCH_SIZE, DEFAULT_CLASSES, DEFAULT_INPUT_SIZE,
                        build_yolo_lite, classify_frame, classify_frames,
                        model_size_bytes, preprocess_frame, preprocess_frames)

__all__ = [
    "Conv2D", "Dense", "Flatten", "GlobalAveragePool", "Layer", "MaxPool2D",
    "ReLU", "Softmax", "Workspace",
    "LayerSummary", "SequentialModel",
    "ConstantDetector", "NNDetector", "ObjectDetector", "OracleDetector",
    "detect_many",
    "NeurosurgeonPartitioner", "PartitionDecision", "SplitCandidate",
    "CLOUD_DEVICE", "EDGE_DEVICE", "DeviceSpec", "LayerProfile", "ModelProfiler",
    "DEFAULT_BATCH_SIZE", "DEFAULT_CLASSES", "DEFAULT_INPUT_SIZE",
    "build_yolo_lite", "classify_frame", "classify_frames", "model_size_bytes",
    "preprocess_frame", "preprocess_frames",
]
