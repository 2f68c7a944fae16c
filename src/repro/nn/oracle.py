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

from ..config import real_number
from ..errors import ModelError
from ..rng import make_rng
from ..video.events import EventTimeline, LabelSet


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

        The frames are visited one by one in order, which keeps stateful
        detectors (e.g. the oracle's sequential error process)
        byte-identical between batched and per-frame use.

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
        real_number(error_rate, "error_rate", ModelError, least=0, most=1)
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

