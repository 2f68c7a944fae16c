"""SiEVE reproduction: semantically encoded video analytics on edge and cloud.

This package reproduces the system described in *SiEVE: Semantically Encoded
Video Analytics on Edge and Cloud* (Elgamal et al., ICDCS 2020) as a
self-contained Python library: a tunable video codec substrate, the I-frame
seeker, decode-based baselines, a numpy NN substrate, a simulated 3-tier
camera/edge/cloud cluster, the offline encoder tuner, and the experiment
harnesses that regenerate the paper's tables and figures.

The most common entry points:

>>> from repro import Sieve, make_scenario
>>> from repro.video import SyntheticScene
>>> profile = make_scenario("jackson_square", duration_seconds=30)
>>> video = SyntheticScene(profile).video()
>>> sieve = Sieve()
>>> tuning = sieve.tune_camera("jackson_square", video)
>>> analysis = sieve.analyze_video(video, "jackson_square")
"""

from .config import (DEFAULT_SYSTEM_CONFIG, HardwareCalibration, SystemConfig,
                     NN_INPUT_RESOLUTION)
from .core import (ALL_DEPLOYMENT_MODES, DeploymentMode, DeploymentReport,
                   DetectionScore, EndToEndSimulation, Sieve, SemanticEncoderTuner,
                   TuningGrid, TuningResult, VideoAnalysisResult, build_workload,
                   evaluate_sampling)
from .codec import (EncoderParameters, EncodedVideo, IFrameSeeker, VideoDecoder,
                    VideoEncoder)
from .datasets import DatasetSpec, TABLE_I, build_dataset
from .errors import SieveError
from .video import (EventTimeline, Frame, FrameType, Resolution, SceneProfile,
                    SyntheticScene, make_scenario)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SYSTEM_CONFIG", "HardwareCalibration", "SystemConfig",
    "NN_INPUT_RESOLUTION",
    "ALL_DEPLOYMENT_MODES", "DeploymentMode", "DeploymentReport", "DetectionScore",
    "EndToEndSimulation", "Sieve", "SemanticEncoderTuner", "TuningGrid",
    "TuningResult", "VideoAnalysisResult", "build_workload", "evaluate_sampling",
    "EncoderParameters", "EncodedVideo", "IFrameSeeker", "VideoDecoder",
    "VideoEncoder",
    "DatasetSpec", "TABLE_I", "build_dataset",
    "SieveError",
    "EventTimeline", "Frame", "FrameType", "Resolution", "SceneProfile",
    "SyntheticScene", "make_scenario",
    "__version__",
]
