"""Event-detection front ends: SiEVE and the compared approaches.

Section V-A compares four ways of deciding which frames of a video get NN
inference:

* **SiEVE** — semantic encoding + I-frame seeking: the sampled frames are the
  I-frames placed by the tuned encoder; no frame is decoded to make the
  decision.
* **MSE** — decode every frame, sample when the pixel MSE against the
  previous frame crosses a threshold.
* **SIFT** — decode every frame, sample when SIFT feature matching against
  the previous frame degrades past a threshold.
* **Uniform sampling** — sample every k-th frame (used in the end-to-end
  evaluation).

Every front end produces the same thing — the list of sampled frame indices
— so they can be scored identically by :mod:`repro.core.metrics` and costed
identically by the cluster's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


from ..cluster.costmodel import CostModel
from ..codec.encoder import VideoEncoder
from ..codec.gop import ActivityColumns, EncoderParameters, KeyframePlacer
from ..codec.scenecut import FrameActivity
from ..errors import PipelineError
from ..video.events import EventTimeline
from ..video.frame import Resolution
from ..video.raw_video import VideoSource
from ..vision.mse import MseChangeDetector
from ..vision.sift import SiftChangeDetector
from ..vision.similarity import (ChangeDetector, ThresholdSampler, score_video,
                                 threshold_for_sampling_fraction)
from .metrics import DetectionScore, evaluate_sampling


@dataclass
class EventDetectionResult:
    """Outcome of one event-detection front end on one video.

    Attributes:
        method: Front-end name (``"sieve"``, ``"mse"``, ``"sift"``,
            ``"uniform"``).
        sample_indices: Frame indices selected for NN inference.
        num_frames: Total frames in the video.
        score: Accuracy/F1 score against ground truth (when available).
        simulated_fps: Event-detection throughput predicted by the cost model
            at the dataset's nominal resolution (Table III).
        details: Free-form extras (chosen threshold, encoder parameters, ...).
    """

    method: str
    sample_indices: List[int]
    num_frames: int
    score: Optional[DetectionScore] = None
    simulated_fps: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def sampling_fraction(self) -> float:
        """Fraction of frames selected for NN inference."""
        if self.num_frames == 0:
            return 0.0
        return len(set(self.sample_indices)) / self.num_frames


class EventDetector:
    """Base class of event-detection front ends."""

    #: Name used in experiment tables and by the cost model.
    method: str = "base"

    def detect(self, video: VideoSource,
               timeline: Optional[EventTimeline] = None) -> EventDetectionResult:
        """Run the front end over a video and (optionally) score it."""
        raise NotImplementedError

    def _finalise(self, video: VideoSource, samples: Sequence[int],
                  timeline: Optional[EventTimeline],
                  cost_resolution: Optional[Resolution] = None,
                  **details) -> EventDetectionResult:
        timeline = timeline if timeline is not None else getattr(video, "timeline", None)
        score = evaluate_sampling(timeline, samples) if timeline is not None else None
        fps = None
        if cost_resolution is not None:
            method = "sieve" if self.method in ("sieve", "uniform") else self.method
            fps = CostModel().event_detection_fps(method, cost_resolution)
        return EventDetectionResult(
            method=self.method, sample_indices=sorted(set(int(i) for i in samples)),
            num_frames=video.metadata.num_frames, score=score, simulated_fps=fps,
            details=dict(details))


class SieveEventDetector(EventDetector):
    """SiEVE's front end: semantic encoding + I-frame seeking.

    Args:
        parameters: Tuned encoder parameters for the camera.
        activities: Optional precomputed analysis pass of the video (reused
            by the experiment sweeps to avoid repeated motion estimation).
    """

    method = "sieve"

    def __init__(self, parameters: EncoderParameters,
                 activities: Optional[Sequence[FrameActivity]] = None) -> None:
        self.parameters = parameters
        self.activities = list(activities) if activities is not None else None

    def detect(self, video: VideoSource,
               timeline: Optional[EventTimeline] = None,
               cost_resolution: Optional[Resolution] = None) -> EventDetectionResult:
        activities = self.activities
        if activities is None:
            activities = VideoEncoder(self.parameters).analyze(video)
        elif len(activities) != video.metadata.num_frames:
            raise PipelineError("precomputed analysis does not match the video length")
        keyframes = KeyframePlacer(self.parameters).keyframe_indices(activities)
        return self._finalise(video, keyframes, timeline, cost_resolution,
                              parameters=self.parameters.describe())


class SimilarityEventDetector(EventDetector):
    """Decode-based front end built on a :class:`ChangeDetector`.

    Args:
        detector: The underlying change detector (MSE or SIFT).
        threshold: Change-score threshold; when ``None`` it must be supplied
            per call or fitted with :meth:`fit_threshold`.
        scores: Optional precomputed change-score series of the target video.
    """

    def __init__(self, detector: ChangeDetector, threshold: Optional[float] = None,
                 scores: Optional[Sequence[float]] = None) -> None:
        self.detector = detector
        self.threshold = threshold
        self.scores = list(scores) if scores is not None else None
        self.method = detector.name

    def compute_scores(self, video: VideoSource) -> List[float]:
        """Change-score series of a video (cached when precomputed)."""
        if self.scores is not None and len(self.scores) == video.metadata.num_frames:
            return self.scores
        return score_video(self.detector, video)

    def fit_threshold(self, video: VideoSource, target_fraction: float) -> float:
        """Pick the threshold matching a target sampling fraction on ``video``."""
        scores = self.compute_scores(video)
        self.threshold = threshold_for_sampling_fraction(scores, target_fraction)
        return self.threshold

    def detect(self, video: VideoSource,
               timeline: Optional[EventTimeline] = None,
               cost_resolution: Optional[Resolution] = None) -> EventDetectionResult:
        if self.threshold is None:
            raise PipelineError(
                f"{self.method} detector has no threshold; call fit_threshold first")
        scores = self.compute_scores(video)
        samples = ThresholdSampler(self.threshold).sample(scores)
        return self._finalise(video, samples, timeline, cost_resolution,
                              threshold=self.threshold)


class MseEventDetector(SimilarityEventDetector):
    """MSE-based front end (NoScope-style difference detector)."""

    def __init__(self, threshold: Optional[float] = None,
                 scores: Optional[Sequence[float]] = None,
                 downsample_factor: int = 1) -> None:
        super().__init__(MseChangeDetector(downsample_factor=downsample_factor),
                         threshold, scores)


class SiftEventDetector(SimilarityEventDetector):
    """SIFT-matching front end."""

    def __init__(self, threshold: Optional[float] = None,
                 scores: Optional[Sequence[float]] = None) -> None:
        super().__init__(SiftChangeDetector(), threshold, scores)


class UniformSamplingDetector(EventDetector):
    """Sample every k-th frame (the end-to-end baseline of Section V-B).

    Args:
        interval: Sampling interval in frames; alternatively use
            :meth:`for_sample_count` to match a target number of samples.
    """

    method = "uniform"

    def __init__(self, interval: int) -> None:
        if interval < 1:
            raise PipelineError("sampling interval must be >= 1")
        self.interval = int(interval)

    @classmethod
    def for_sample_count(cls, num_frames: int, num_samples: int) -> "UniformSamplingDetector":
        """Build a detector transmitting roughly ``num_samples`` frames."""
        if num_samples < 1:
            raise PipelineError("num_samples must be >= 1")
        return cls(max(num_frames // num_samples, 1))

    def detect(self, video: VideoSource,
               timeline: Optional[EventTimeline] = None,
               cost_resolution: Optional[Resolution] = None) -> EventDetectionResult:
        samples = list(range(0, video.metadata.num_frames, self.interval))
        return self._finalise(video, samples, timeline, cost_resolution,
                              interval=self.interval)


def sieve_sampling_sweep(activities: Sequence[FrameActivity],
                         timeline: EventTimeline,
                         parameters_list: Sequence[EncoderParameters]
                         ) -> List[EventDetectionResult]:
    """Evaluate SiEVE for many encoder configurations on one analysis pass.

    Used by the Figure 3 sweep: each configuration gives a different sampling
    fraction / accuracy point.
    """
    results = []
    columns = ActivityColumns(activities)
    for parameters in parameters_list:
        keyframes = columns.keyframe_indices(parameters)
        score = evaluate_sampling(timeline, keyframes)
        results.append(EventDetectionResult(
            method="sieve", sample_indices=list(keyframes),
            num_frames=timeline.num_frames, score=score,
            details={"parameters": parameters.describe()}))
    return results
