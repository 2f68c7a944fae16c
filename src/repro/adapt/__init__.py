"""Online adaptive tuning: drift detection + re-tuning in the serving path.

See :mod:`repro.adapt.controller` for the architecture overview.
"""

from .controller import (AdaptiveConfig, AdaptiveTuningController,
                         DriftMonitor, RetuneDecision)
from .detectors import (DriftSignal, PageHinkleyDetector,
                        WindowedZScoreDetector)
from .signals import REFERENCE_SCENECUT, ChunkScene, SceneStats, chunk_scene

__all__ = [
    "AdaptiveConfig", "AdaptiveTuningController", "DriftMonitor",
    "RetuneDecision",
    "DriftSignal", "PageHinkleyDetector", "WindowedZScoreDetector",
    "REFERENCE_SCENECUT", "ChunkScene", "SceneStats", "chunk_scene",
]
