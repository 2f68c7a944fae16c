"""YoloLite: the reference object-detection network of the reproduction.

The paper uses YOLOv3 as the downstream NN.  Running (or training) a real
YOLOv3 is out of scope for an offline, CPU-only reproduction, so this module
provides **YoloLite**: a deterministic convolutional classifier with the same
*structural* role — an expensive per-frame network whose layers can be
profiled, partitioned between edge and cloud, and executed by the numpy
inference engine.  Frame labels used in the evaluation come from the
annotation oracle (:mod:`repro.nn.oracle`), matching the paper's assumption
that the reference NN produces ground-truth labels for the frames it sees;
YoloLite supplies the compute/activation-size profile that the deployment
and partitioning experiments need.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..contracts import PRECISION_EXACT
from ..errors import ModelError
from ..vision.imageops import normalize_plane, resize_stack, to_grayscale
from .layers import Conv2D, Dense, GlobalAveragePool, MaxPool2D, ReLU, Softmax
from .model import SequentialModel

#: Object classes recognised by the reference network: the classes named in
#: Table I of the paper plus an explicit background class.
DEFAULT_CLASSES: Tuple[str, ...] = (
    "background", "car", "bus", "truck", "person", "boat")

#: Input resolution the paper resizes frames to before YOLO inference.
DEFAULT_INPUT_SIZE = (64, 64)


def build_yolo_lite(input_size: Tuple[int, int] = DEFAULT_INPUT_SIZE,
                    classes: Sequence[str] = DEFAULT_CLASSES,
                    width_multiplier: float = 1.0,
                    seed: int = 7) -> SequentialModel:
    """Build the YoloLite classifier.

    The architecture is a conventional five-stage CNN (conv/relu/pool
    pyramid, global average pooling, two dense layers).  ``width_multiplier``
    scales the channel counts, which is how the tests build throwaway tiny
    models and how ablations explore cheaper reference networks.

    Args:
        input_size: ``(height, width)`` of the grayscale input.
        classes: Output class names.
        width_multiplier: Channel-count scale factor.
        seed: Seed of the deterministic weight initialisation.

    Returns:
        The :class:`SequentialModel`.
    """
    if len(classes) < 2:
        raise ModelError("YoloLite needs at least two classes")
    if width_multiplier <= 0:
        raise ModelError("width_multiplier must be positive")
    height, width = input_size
    if height < 16 or width < 16:
        raise ModelError("input_size must be at least 16x16")

    def channels(base: int) -> int:
        return max(int(round(base * width_multiplier)), 1)

    layers = [
        Conv2D(1, channels(16), kernel_size=3, name="conv1", seed=seed),
        ReLU("relu1"),
        MaxPool2D(2, "pool1"),
        Conv2D(channels(16), channels(32), kernel_size=3, name="conv2", seed=seed),
        ReLU("relu2"),
        MaxPool2D(2, "pool2"),
        Conv2D(channels(32), channels(64), kernel_size=3, name="conv3", seed=seed),
        ReLU("relu3"),
        MaxPool2D(2, "pool3"),
        Conv2D(channels(64), channels(64), kernel_size=3, name="conv4", seed=seed),
        ReLU("relu4"),
        GlobalAveragePool("gap"),
        Dense(channels(64), channels(64), name="fc1", seed=seed),
        ReLU("relu5"),
        Dense(channels(64), len(classes), name="fc2", seed=seed),
        Softmax("softmax"),
    ]
    model = SequentialModel(layers, input_shape=(1, height, width), name="yolo_lite")
    # Attach the class list so downstream components can map argmax -> label.
    model.classes = tuple(classes)  # type: ignore[attr-defined]
    return model


def preprocess_frame(frame_data: np.ndarray,
                     input_size: Tuple[int, int] = DEFAULT_INPUT_SIZE) -> np.ndarray:
    """Convert a raw frame into the model's input tensor.

    The one-frame form of :func:`preprocess_frames`.

    Args:
        frame_data: ``(H, W)`` or ``(H, W, 3)`` pixel array.
        input_size: ``(height, width)`` expected by the model.

    Returns:
        Tensor of shape ``(1, height, width)``.
    """
    return preprocess_frames([frame_data], input_size)[0]


def preprocess_frames(frames: Sequence[np.ndarray],
                      input_size: Tuple[int, int] = DEFAULT_INPUT_SIZE
                      ) -> np.ndarray:
    """Convert several raw frames into one batched input tensor.

    Every frame is converted to luma, resized to the network input size and
    normalised to zero mean / unit variance, then given a channel axis.
    Frames of equal shape (the frames of one camera) are resized as one
    stack.

    Args:
        frames: Pixel arrays (``(H, W)`` or ``(H, W, 3)``, shapes may vary).
        input_size: ``(height, width)`` expected by the model.

    Returns:
        Tensor of shape ``(batch, 1, height, width)``.
    """
    height, width = input_size
    planes = [to_grayscale(frame) for frame in frames]
    same_shape: Dict[Tuple[int, int], List[int]] = {}
    for position, plane in enumerate(planes):
        same_shape.setdefault(plane.shape, []).append(position)
    tensors = np.empty((len(planes), 1, height, width))
    for positions in same_shape.values():
        resized = resize_stack(np.stack([planes[position]
                                         for position in positions]),
                               (width, height))
        for position, plane in zip(positions, resized):
            tensors[position, 0] = normalize_plane(plane)
    return tensors


def classify_frame(model: SequentialModel, frame_data: np.ndarray,
                   precision: str = PRECISION_EXACT) -> Tuple[str, np.ndarray]:
    """Run a frame through the model and return ``(label, probabilities)``."""
    classes = getattr(model, "classes", None)
    if classes is None:
        raise ModelError("model has no attached class list")
    input_height, input_width = model.input_shape[1], model.input_shape[2]
    tensor = preprocess_frame(frame_data, (input_height, input_width))
    index, probabilities = model.predict_class(tensor, precision)
    return classes[index], probabilities


#: Default number of frames fed through the network per batched forward pass.
#: Chosen so the largest activation maps of the default model stay inside the
#: CPU cache; much larger batches go memory-bound and lose the batching win.
DEFAULT_BATCH_SIZE = 16


def classify_frames(model: SequentialModel, frames: Sequence[np.ndarray],
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    precision: str = PRECISION_EXACT
                    ) -> Tuple[List[str], np.ndarray]:
    """Run many frames through the model in batched chunks.

    Args:
        model: The classifier (with an attached ``classes`` list).
        frames: Raw pixel arrays.
        batch_size: Frames per batched forward pass; bounds peak activation
            memory while amortising the per-layer dispatch overhead.
        precision: Numeric mode — ``"exact"`` (default, bit-identical
            float64) or ``"fast"`` (float32 merged GEMMs under the
            tolerance contract).

    Returns:
        ``(labels, probabilities)`` — one label per frame and the stacked
        probability matrix of shape ``(len(frames), num_classes)``.
    """
    classes = getattr(model, "classes", None)
    if classes is None:
        raise ModelError("model has no attached class list")
    if batch_size < 1:
        raise ModelError(f"batch_size must be >= 1, got {batch_size}")
    input_height, input_width = model.input_shape[1], model.input_shape[2]
    labels: List[str] = []
    outputs: List[np.ndarray] = []
    for start in range(0, len(frames), batch_size):
        chunk = frames[start:start + batch_size]
        tensors = preprocess_frames(chunk, (input_height, input_width))
        indices, probabilities = model.predict_classes(tensors, precision)
        labels.extend(classes[int(index)] for index in indices)
        outputs.append(probabilities)
    if not outputs:
        return [], np.empty((0, len(classes)))
    return labels, np.concatenate(outputs, axis=0)


def model_size_bytes(model: SequentialModel, dtype_bytes: int = 4) -> int:
    """Size of the model weights in bytes (used by deployment planning)."""
    return model.num_parameters * dtype_bytes
