"""SiEVE core: metrics, offline tuner, deployment, pipeline."""

from .deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from .metrics import (DetectionScore, evaluate_sample_sets, evaluate_sampling,
                      event_start_accuracy, f1_score, propagation_accuracy)
from .pipeline import (DeploymentReport, EndToEndSimulation, VideoWorkload,
                       build_workload, plan_camera_job)
from .sieve import Sieve, VideoAnalysisResult
from .tuner import (ConfigurationResult, ParameterLookupTable, SemanticEncoderTuner,
                    TuningGrid, TuningResult, DEFAULT_GOP_GRID,
                    DEFAULT_SCENECUT_GRID)

__all__ = [
    "ALL_DEPLOYMENT_MODES", "DeploymentMode",
    "DetectionScore", "evaluate_sample_sets", "evaluate_sampling",
    "event_start_accuracy", "f1_score", "propagation_accuracy",
    "DeploymentReport", "EndToEndSimulation", "VideoWorkload", "build_workload",
    "plan_camera_job",
    "Sieve", "VideoAnalysisResult",
    "ConfigurationResult", "ParameterLookupTable", "SemanticEncoderTuner",
    "TuningGrid", "TuningResult", "DEFAULT_GOP_GRID", "DEFAULT_SCENECUT_GRID",
]
