"""Annotation-oracle object detector.

The paper's evaluation treats the reference NN as a black box that returns
the correct object labels for every frame it is given; accuracy losses come
exclusively from frames that were *not* given to the NN and inherited stale
labels.  The oracle detector reproduces that role by reading the synthetic
scene's ground-truth timeline, with an optional per-frame error rate for
sensitivity studies (ablations on imperfect detectors).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


from ..contracts import validate_precision
from ..errors import ModelError
from ..rng import make_rng
from ..video.events import EventTimeline, LabelSet, NO_LABEL


class ObjectDetector:
    """Interface of per-frame object detectors used by the pipeline."""

    #: Human-readable detector name.
    name: str = "detector"

    def detect(self, frame_index: int, frame_data=None) -> LabelSet:
        """Return the set of object labels present in the frame."""
        raise NotImplementedError

    def detect_batch(self, frame_indices: Sequence[int],
                     frames: Optional[Sequence] = None) -> List[LabelSet]:
        """Label several frames at once.

        The default implementation visits the frames one by one in order —
        which keeps stateful detectors (e.g. the oracle's sequential error
        process) byte-identical between batched and per-frame use.  Detectors
        backed by the numpy NN engine override this with a genuinely batched
        forward pass (:class:`NNDetector`).

        Args:
            frame_indices: Frame indices to label.
            frames: Optional per-frame pixel data, aligned with
                ``frame_indices``.

        Returns:
            One label set per requested frame, in order.
        """
        if frames is None:
            frames = [None] * len(frame_indices)
        if len(frames) != len(frame_indices):
            raise ModelError(
                f"detect_batch got {len(frame_indices)} indices but "
                f"{len(frames)} frames")
        return [self.detect(int(index), frame)
                for index, frame in zip(frame_indices, frames)]


class OracleDetector(ObjectDetector):
    """Detector that reads labels from the ground-truth timeline.

    Args:
        timeline: Ground-truth event timeline of the video being analysed.
        error_rate: Probability that the detector mislabels a frame (drops or
            hallucinates one object class).  ``0`` reproduces the paper's
            assumption of a perfect reference NN.
        label_pool: Classes the detector may hallucinate when it errs;
            defaults to the labels present in the timeline.
        seed: Seed of the error process.
    """

    name = "oracle"

    def __init__(self, timeline: EventTimeline, error_rate: float = 0.0,
                 label_pool: Optional[Iterable[str]] = None,
                 seed: int = 0) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ModelError(f"error_rate must be in [0, 1], got {error_rate}")
        self.timeline = timeline
        self.error_rate = float(error_rate)
        pool = set(label_pool) if label_pool is not None else set(timeline.object_labels)
        self._label_pool = sorted(pool) if pool else ["object"]
        self._rng = make_rng(seed, "oracle-detector")

    def detect(self, frame_index: int, frame_data=None) -> LabelSet:
        """Labels of ``frame_index`` (possibly perturbed by the error model)."""
        truth = self.timeline.labels_at(frame_index)
        if self.error_rate <= 0.0 or self._rng.random() >= self.error_rate:
            return truth
        # Error: either drop one present label or hallucinate an absent one.
        present = sorted(truth)
        if present and self._rng.random() < 0.5:
            dropped = present[int(self._rng.integers(len(present)))]
            return frozenset(label for label in present if label != dropped)
        absent = [label for label in self._label_pool if label not in truth]
        if not absent:
            return truth
        added = absent[int(self._rng.integers(len(absent)))]
        return frozenset(list(truth) + [added])


class NNDetector(ObjectDetector):
    """Detector backed by the numpy NN engine (YoloLite by default).

    Frames are classified by the network; the predicted class becomes the
    frame's label set (``background`` maps to the empty set, mirroring the
    paper's "no object of interest" outcome).  :meth:`detect_batch` feeds
    the frames through the batched forward path in configurable chunks,
    which is how the dataflow operators and the analysis pipeline amortise
    the per-layer dispatch overhead.

    Args:
        model: A classifier with an attached ``classes`` tuple (see
            :func:`repro.nn.yolo_lite.build_yolo_lite`).
        background_label: Class name treated as "nothing detected".
        batch_size: Frames per batched forward pass.
        precision: Numeric mode of the forward pass — ``"exact"`` (default)
            or ``"fast"`` (float32 under the tolerance contract).
    """

    name = "yolo-lite"

    def __init__(self, model, background_label: str = "background",
                 batch_size: int = 32, precision: str = "exact") -> None:
        from .yolo_lite import classify_frames  # local import avoids cycles
        if getattr(model, "classes", None) is None:
            raise ModelError("NNDetector needs a model with an attached class list")
        if batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.background_label = background_label
        self.batch_size = int(batch_size)
        self.precision = validate_precision(precision)
        self._classify_frames = classify_frames

    def _to_labels(self, label: str) -> LabelSet:
        if label == self.background_label:
            return NO_LABEL
        return frozenset({label})

    def detect(self, frame_index: int, frame_data=None) -> LabelSet:
        return self.detect_batch([frame_index], [frame_data])[0]

    def detect_batch(self, frame_indices: Sequence[int],
                     frames: Optional[Sequence] = None) -> List[LabelSet]:
        if frames is None or any(frame is None for frame in frames):
            raise ModelError(f"{self.name} needs frame pixel data to detect")
        if len(frames) != len(frame_indices):
            raise ModelError(
                f"detect_batch got {len(frame_indices)} indices but "
                f"{len(frames)} frames")
        labels, _ = self._classify_frames(self.model, list(frames),
                                          batch_size=self.batch_size,
                                          precision=self.precision)
        return [self._to_labels(label) for label in labels]
