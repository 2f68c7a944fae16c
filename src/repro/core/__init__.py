"""SiEVE core: metrics, offline tuner, event detection, deployment, pipeline."""

from .deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from .event_detection import (EventDetectionResult, EventDetector, MseEventDetector,
                              SieveEventDetector, SiftEventDetector,
                              SimilarityEventDetector, UniformSamplingDetector,
                              sieve_sampling_sweep)
from .metrics import (DetectionScore, detection_latencies, evaluate_sampling,
                      event_start_accuracy, f1_score, filtering_rate,
                      propagate_labels, propagation_accuracy, sampling_fraction,
                      summarize_latencies)
from .pipeline import (DeploymentReport, EndToEndSimulation, VideoWorkload,
                       build_workload, plan_camera_job)
from .sieve import Sieve, VideoAnalysisResult
from .tuner import (ConfigurationResult, ParameterLookupTable, SemanticEncoderTuner,
                    TuningGrid, TuningResult, DEFAULT_GOP_GRID,
                    DEFAULT_SCENECUT_GRID)

__all__ = [
    "ALL_DEPLOYMENT_MODES", "DeploymentMode",
    "EventDetectionResult", "EventDetector", "MseEventDetector",
    "SieveEventDetector", "SiftEventDetector", "SimilarityEventDetector",
    "UniformSamplingDetector", "sieve_sampling_sweep",
    "DetectionScore", "detection_latencies", "evaluate_sampling",
    "event_start_accuracy", "f1_score", "filtering_rate", "propagate_labels",
    "propagation_accuracy", "sampling_fraction", "summarize_latencies",
    "DeploymentReport", "EndToEndSimulation", "VideoWorkload", "build_workload",
    "plan_camera_job",
    "Sieve", "VideoAnalysisResult",
    "ConfigurationResult", "ParameterLookupTable", "SemanticEncoderTuner",
    "TuningGrid", "TuningResult", "DEFAULT_GOP_GRID", "DEFAULT_SCENECUT_GRID",
]
