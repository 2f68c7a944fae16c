"""High-level SiEVE facade.

:class:`Sieve` ties the pieces together the way an operator would use the
system (Figure 1): tune each camera offline, store the winning parameters in
the lookup table, configure the cameras, and then analyse footage: "which
frames changed and what is in them" for one video.  Multi-camera
deployments are simulated by :class:`~repro.core.pipeline.EndToEndSimulation`
and the fleet and service simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster.resultdb import ResultDatabase
from ..codec.encoder import VideoEncoder
from ..codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from ..codec.iframe_seeker import select_events_from_keyframes
from ..config import SystemConfig, whole_number
from ..errors import PipelineError
from ..nn.oracle import ObjectDetector, OracleDetector
from ..video.events import EventTimeline
from ..video.raw_video import VideoSource
from .metrics import DetectionScore, evaluate_sampling
from .tuner import (ParameterLookupTable, SemanticEncoderTuner, TuningGrid,
                    TuningResult)


@dataclass
class VideoAnalysisResult:
    """Per-video outcome of :meth:`Sieve.analyze_video`.

    Attributes:
        video_name: Analysed video.
        keyframe_indices: Frames selected by the I-frame seeker.
        frame_labels: Per-frame object labels after label propagation.
        score: Accuracy/F1 against ground truth when available.
        parameters: Encoder parameters used.
    """

    video_name: str
    keyframe_indices: List[int]
    frame_labels: List[frozenset]
    score: Optional[DetectionScore]
    parameters: EncoderParameters


class Sieve:
    """The SiEVE system facade.

    Args:
        config: System configuration (its ``nn_batch_size`` is the default
            detector batch size).
        tuning_grid: Grid explored when tuning cameras.
        base_parameters: Non-tuned encoder parameters.
    """

    def __init__(self, config: Optional[SystemConfig] = None,
                 tuning_grid: Optional[TuningGrid] = None,
                 base_parameters: EncoderParameters = DEFAULT_PARAMETERS) -> None:
        self.config = config or SystemConfig()
        self.tuning_grid = tuning_grid or TuningGrid()
        self.base_parameters = base_parameters
        self.lookup_table = ParameterLookupTable()
        self.results = ResultDatabase()

    # ------------------------------------------------------------------ #
    # Offline stage
    # ------------------------------------------------------------------ #
    def tune_camera(self, camera_name: str, footage: VideoSource,
                    timeline: Optional[EventTimeline] = None) -> TuningResult:
        """Tune a camera's encoder on labelled footage and remember the result."""
        tuner = SemanticEncoderTuner(self.tuning_grid, self.base_parameters)
        result = tuner.tune(footage, timeline, camera_name)
        self.lookup_table.store(camera_name, result.best_parameters)
        return result

    def parameters_for(self, camera_name: str) -> EncoderParameters:
        """Tuned parameters of a camera (defaults when it was never tuned)."""
        if camera_name in self.lookup_table:
            return self.lookup_table.lookup(camera_name)
        return self.base_parameters

    # ------------------------------------------------------------------ #
    # Online stage: single-video analysis
    # ------------------------------------------------------------------ #
    def analyze_video(self, video: VideoSource,
                      camera_name: Optional[str] = None,
                      detector: Optional[ObjectDetector] = None,
                      parameters: Optional[EncoderParameters] = None,
                      detector_batch_size: Optional[int] = None
                      ) -> VideoAnalysisResult:
        """Run the SiEVE path over one video and label every frame.

        The video is (re-)encoded with the camera's tuned parameters, the
        I-frame seeker selects the key frames, the detector labels them
        (through its batched path, ``detector_batch_size`` frames per call —
        defaulting to the system config's ``nn_batch_size``), and every other
        frame inherits the labels of its segment's leading I-frame.  Results
        are also written to the result database.
        """
        if detector_batch_size is None:
            detector_batch_size = self.config.nn_batch_size
        detector_batch_size = whole_number(detector_batch_size,
                                           "detector_batch_size", PipelineError, 1)
        name = camera_name or video.metadata.name
        parameters = parameters or self.parameters_for(name)
        timeline = getattr(video, "timeline", None)
        if detector is None:
            if timeline is None:
                raise PipelineError(
                    "analyze_video needs a detector when the video has no ground truth")
            detector = OracleDetector(timeline)
        encoded = VideoEncoder(parameters).encode(video)
        keyframes = encoded.keyframe_indices
        segments = select_events_from_keyframes(keyframes, encoded.num_frames)
        starts = [start for start, _ in segments]
        segment_labels: List[frozenset] = []
        for chunk_start in range(0, len(starts), detector_batch_size):
            chunk = starts[chunk_start:chunk_start + detector_batch_size]
            segment_labels.extend(detector.detect_batch(chunk))
        frame_labels: List[frozenset] = [frozenset()] * encoded.num_frames
        for (start, stop), labels in zip(segments, segment_labels):
            self.results.record(name, start, labels)
            for index in range(start, stop):
                frame_labels[index] = labels
        score = evaluate_sampling(timeline, keyframes) if timeline is not None else None
        return VideoAnalysisResult(video_name=name, keyframe_indices=keyframes,
                                   frame_labels=frame_labels, score=score,
                                   parameters=parameters)
