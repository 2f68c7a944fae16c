"""No bad scalar escapes the public surface untyped.

Every class in some ``repro.*.__all__``, and every exported function, is
in exactly one of three tables here:

* :data:`REGISTRY` gives one valid call of it and the error class it
  raises.  Each parameter whose valid value is a number or a string then
  gets, one at a time, ``"x"``, nan, inf, -1, ``True``, 1.5 and ``None``.
  A bare built-in exception fails, and so does any other library error
  than the row's.  An accepted ``True`` or nan on a numeric parameter
  fails too, unless :data:`ALLOWED` names that parameter with a reason.
* :data:`NOT_SWEPT` lists what takes no scalar (arrays, composite
  objects, nothing at all) or is swept through another row, with a reason.
* :data:`OUTPUTS` lists the records the library builds and hands back.

A few rows sweep callables outside ``__all__`` that take the library's
configuration numbers (the cost model's methods, ``dct_matrix``,
``resized_frame_bytes``), or a number per event (the scheduler's,
stations' and links' per-event methods, ``FaultPlan.validate_for``).
A new public callable needs a row.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
from typing import Callable, Dict, Iterator, Tuple

import numpy as np
import pytest

import repro
from repro.adapt import (PageHinkleyDetector, SceneStats,
                         WindowedZScoreDetector, chunk_scene)
from repro.cluster import CameraJob, CostModel, FleetOrchestrator
from repro.codec import (EncoderParameters, FrameActivity, SceneCutAnalyzer,
                         block_grid, estimate_encoded_size, estimate_motion,
                         pad_plane, quantisation_matrix, scenecut_novelty_floor,
                         scenecut_score_threshold, select_events_from_keyframes,
                         to_blocks)
from repro.codec.transform import dct_matrix
from repro.config import HardwareCalibration, SystemConfig
from repro.core import (DeploymentMode, EndToEndSimulation, Sieve,
                        SemanticEncoderTuner, VideoWorkload, f1_score,
                        plan_camera_job)
from repro.dataflow import EventScheduler, ServiceStation
from repro.datasets import build_dataset, get_dataset
from repro.errors import (ClusterError, CodecError, ConfigurationError,
                          DataflowError, DatasetError, FaultError, ModelError,
                          NetworkError, PipelineError, ServiceError,
                          SieveError, TuningError)
from repro.experiments import ExperimentConfig, format_table
from repro.faults import (CircuitBreaker, EdgeCrash, FaultPlan,
                          ResilienceConfig, StreamStall, WanDegradation)
from repro.jpeg_sizing import resized_frame_bytes
from repro.net import NetworkLink
from repro.nn import (Conv2D, Dense, GlobalAveragePool, MaxPool2D,
                      OracleDetector, ReLU, SequentialModel, Softmax,
                      build_yolo_lite, classify_frames)
from repro.parallel import WorkloadBuilder
from repro.perf import section
from repro.service import (ChunkFeeder, ClipAnalysis, FrameChunk,
                           RealTimeClock, StreamIngest, StreamingService,
                           TenantPolicy, analyse_scenario, chunk_analysis,
                           chunk_camera_job)
from repro.video import (Event, EventTimeline, ObjectClassSpec, ObjectTrack,
                         ScenarioTransform, SceneProfile, SceneScript,
                         VideoMetadata, amsterdam, compose, compose_spec,
                         coral_reef, jackson_square, make_scenario,
                         parse_spec, taipei, venice)
from repro.video.fuzzing import ScenarioComposition
from repro.video.frame import Frame, Resolution
from repro.vision import (ThresholdSampler, gaussian_blur,
                          threshold_for_sampling_fraction)

BAD_VALUES = ("x", math.nan, math.inf, -1, True, 1.5, None)


def _profile(**fields) -> SceneProfile:
    return SceneProfile(**{
        "name": "probe", "resolution": Resolution(32, 32), "fps": 10.0,
        "duration_seconds": 1.0,
        "object_classes": ((ObjectClassSpec("car", 0.2), 1.0),), **fields})


def _job(**fields) -> CameraJob:
    return CameraJob(**{
        "camera": "cam", "video": "v", "num_frames": 10,
        "frames_for_inference": 2, "edge_seconds": 0.1,
        "cloud_seconds": 0.1, "camera_edge_bytes": 100,
        "edge_cloud_bytes": 10, **fields})


def _fields(record) -> dict:
    """A dataclass's fields as keyword arguments."""
    return {field.name: getattr(record, field.name)
            for field in dataclasses.fields(record)}


def _workload() -> VideoWorkload:
    return VideoWorkload(
        name="v", num_frames=20, nominal_resolution=Resolution(64, 48),
        semantic_bytes=2000, default_bytes=3000, semantic_iframe_bytes=500,
        semantic_samples=[0, 10], mse_samples=[0, 5, 10],
        uniform_samples=[0, 10], resized_frame_bytes=300)


def _clip() -> ClipAnalysis:
    activities = tuple(FrameActivity(index, 0.0, index == 0)
                       for index in range(20))
    return ClipAnalysis(activities=activities,
                        frame_labels=(frozenset(),) * 20,
                        lumas=(100.0,) * 20, fps=10.0)


_PLANE = np.tile(np.arange(16, dtype=np.float64) * 8, (16, 1))
_TIMELINE = EventTimeline([Event(0, 10)])
_MODEL = build_yolo_lite(input_size=(16, 16), width_multiplier=0.25)
_ACTIVITIES = [FrameActivity(index, 0.0, index == 0) for index in range(4)]


def _service_and_session() -> Tuple[StreamingService, str]:
    service = StreamingService()
    return service, service.open_session("cam").session_id


#: Per callable: a function returning ``(callable, args, kwargs)`` of one
#: valid call, and the error class (or classes) a bad scalar must raise.
REGISTRY: Dict[str, Tuple[Callable[[], tuple], object]] = {
    # repro.config, repro.jpeg_sizing, repro.video
    "SystemConfig": (lambda: (SystemConfig, (), {}), ConfigurationError),
    "HardwareCalibration": (lambda: (HardwareCalibration, (), {}),
                            ConfigurationError),
    "resized_frame_bytes": (lambda: (resized_frame_bytes, (300, 300), {}),
                            ConfigurationError),
    "Resolution": (lambda: (Resolution, (64, 48), {}), ConfigurationError),
    "Resolution.scaled": (lambda: (Resolution(64, 48).scaled, (0.5,), {}),
                          ConfigurationError),
    "VideoMetadata": (lambda: (VideoMetadata, ("v", Resolution(8, 8), 10.0,
                                               5), {}), ConfigurationError),
    "Frame": (lambda: (Frame, (0, np.zeros((4, 4), np.uint8)), {}),
              ConfigurationError),
    "Event": (lambda: (Event, (0, 5), {}), ConfigurationError),
    "ObjectClassSpec": (lambda: (ObjectClassSpec, ("car", 0.2), {}),
                        ConfigurationError),
    "ObjectTrack": (lambda: (ObjectTrack, (
        "car", ObjectClassSpec("car", 0.2), 0, 5, 0.5, 1, 40.0), {}),
        ConfigurationError),
    "SceneScript": (lambda: (SceneScript, ((), 10), {}), ConfigurationError),
    "SceneProfile": (lambda: (SceneProfile, (), _fields(_profile())),
                     ConfigurationError),
    "ScenarioTransform": (lambda: (ScenarioTransform, ("t", lambda p: p), {}),
                          (ConfigurationError, DatasetError)),
    "ScenarioComposition": (lambda: (ScenarioComposition, ("highway",), {
        "seed": 0, "duration_seconds": 4.0, "render_scale": 0.05}),
        DatasetError),
    "make_scenario": (lambda: (make_scenario, ("highway", 1.0, 0.05, 0), {}),
                      (ConfigurationError, DatasetError)),
    "amsterdam": (lambda: (amsterdam, (1.0, 0.05, 5), {}), ConfigurationError),
    "coral_reef": (lambda: (coral_reef, (1.0, 0.05, 2), {}),
                   ConfigurationError),
    "jackson_square": (lambda: (jackson_square, (1.0, 0.05, 1), {}),
                       ConfigurationError),
    "taipei": (lambda: (taipei, (1.0, 0.05, 4), {}), ConfigurationError),
    "venice": (lambda: (venice, (1.0, 0.05, 3), {}), ConfigurationError),
    "compose": (lambda: (compose, ("highway",), {}), DatasetError),
    "compose_spec": (lambda: (compose_spec, ("highway+rain",), {}),
                     DatasetError),
    "parse_spec": (lambda: (parse_spec, ("highway+rain",), {}), DatasetError),
    # repro.codec
    "EncoderParameters": (lambda: (EncoderParameters, (), {}),
                          ConfigurationError),
    "SceneCutAnalyzer": (lambda: (SceneCutAnalyzer, (), {}), CodecError),
    "block_grid": (lambda: (block_grid, (4, 4, 8), {}), CodecError),
    "pad_plane": (lambda: (pad_plane, (_PLANE, 8), {}), CodecError),
    "to_blocks": (lambda: (to_blocks, (_PLANE, 8), {}), CodecError),
    "dct_matrix": (lambda: (dct_matrix, (8,), {}), CodecError),
    "quantisation_matrix": (lambda: (quantisation_matrix, (75, 8), {}),
                            CodecError),
    "estimate_encoded_size": (lambda: (estimate_encoded_size, (
        _PLANE.astype(np.uint8), 75, 8), {}), CodecError),
    "estimate_motion": (lambda: (estimate_motion, (_PLANE, _PLANE, 8, 2),
                                 {}), (CodecError, ConfigurationError)),
    "scenecut_score_threshold": (lambda: (scenecut_score_threshold, (40.0,),
                                          {}), (CodecError,
                                                ConfigurationError)),
    "scenecut_novelty_floor": (lambda: (scenecut_novelty_floor, (40.0,), {}),
                               (CodecError, ConfigurationError)),
    "select_events_from_keyframes": (lambda: (
        select_events_from_keyframes, ([0, 5], 10), {}), CodecError),
    # repro.core, repro.experiments, repro.parallel, repro.datasets
    "f1_score": (lambda: (f1_score, (0.9, 0.8), {}), ConfigurationError),
    "SemanticEncoderTuner": (lambda: (SemanticEncoderTuner, (), {}),
                             (TuningError, ConfigurationError)),
    "Sieve": (lambda: (Sieve, (), {}), PipelineError),
    "EndToEndSimulation": (lambda: (EndToEndSimulation, ([_workload()],), {
        "num_edge_servers": 1, "placement": "round_robin"}),
        (PipelineError, ClusterError)),
    "plan_camera_job": (lambda: (plan_camera_job, (
        _workload(), DeploymentMode.IFRAME_EDGE_CLOUD_NN), {"camera": "c"}),
        (PipelineError, ClusterError)),
    "ExperimentConfig": (lambda: (ExperimentConfig, (1.0, 0.05), {}),
                         ConfigurationError),
    "format_table": (lambda: (format_table, ([{"a": 1}], ["a"], "t"), {}),
                     ConfigurationError),
    "WorkloadBuilder": (lambda: (WorkloadBuilder, (ExperimentConfig(),), {
        "build_workers": 1}), ConfigurationError),
    "get_dataset": (lambda: (get_dataset, ("venice",), {}), DatasetError),
    "build_dataset": (lambda: (build_dataset, ("jackson_square", 0.2, 0.05, 0,
                                               "full"), {}),
                      (DatasetError, ConfigurationError)),
    # repro.cluster, repro.dataflow, repro.net
    "CameraJob": (lambda: (CameraJob, (), _fields(_job(accuracy=0.5))),
                  ClusterError),
    "FleetOrchestrator": (lambda: (FleetOrchestrator, ([_job()],), {
        "num_edge_servers": 1, "edge_workers": 1, "cloud_workers": 1,
        "arrival_jitter_seconds": 0.0, "seed": 0,
        "policy": "round_robin"}), ClusterError),
    "CostModel.seek_seconds": (lambda: (CostModel().seek_seconds, (
        3, Resolution(64, 48), 1.0), {}), ClusterError),
    "CostModel.resize_seconds": (lambda: (CostModel().resize_seconds, (
        3, 1.0), {}), ClusterError),
    "CostModel.nn_seconds": (lambda: (CostModel().nn_seconds, (3, "edge"),
                                      {}), ClusterError),
    "CostModel.event_detection_fps": (lambda: (
        CostModel().event_detection_fps, ("sieve", Resolution(64, 48), 1.0),
        {}), ClusterError),
    "ServiceStation": (lambda: (ServiceStation, (EventScheduler(), "s", 1),
                                {}), DataflowError),
    "ServiceStation.submit": (lambda: (ServiceStation(
        EventScheduler(), "s", 1).submit, (1.0,), {}), DataflowError),
    "EventScheduler.schedule": (lambda: (EventScheduler().schedule, (
        1.0, print), {}), DataflowError),
    "EventScheduler.schedule_at": (lambda: (EventScheduler().schedule_at, (
        1.0, print), {}), DataflowError),
    "NetworkLink": (lambda: (NetworkLink, ("l", 10.0, 1.0), {}),
                    NetworkError),
    "NetworkLink.transfer_seconds": (lambda: (NetworkLink(
        "l", 10.0).transfer_seconds, (100,), {}), NetworkError),
    # repro.adapt, repro.faults, repro.service
    "SceneStats": (lambda: (SceneStats, (10, 0.1, 0.2, 100.0), {}),
                   ServiceError),
    "chunk_scene": (lambda: (chunk_scene, (_ACTIVITIES, [()] * 4, 100.0,
                                           100.0), {}),
                    (ServiceError, ConfigurationError, CodecError)),
    "WindowedZScoreDetector": (lambda: (WindowedZScoreDetector, ("s",), {}),
                               ServiceError),
    "PageHinkleyDetector": (lambda: (PageHinkleyDetector, ("s",), {}),
                            ServiceError),
    "CircuitBreaker": (lambda: (CircuitBreaker, ("b", 5.0), {}), FaultError),
    "EdgeCrash": (lambda: (EdgeCrash, (0, 1.0, 2.0), {}), FaultError),
    "WanDegradation": (lambda: (WanDegradation, (0, 1.0, 2.0), {}),
                       FaultError),
    "StreamStall": (lambda: (StreamStall, ("cam", 1.0, 2.0), {}), FaultError),
    "FaultPlan.validate_for": (lambda: (FaultPlan(
        (EdgeCrash(0, 1.0, 2.0),)).validate_for, (2,), {}), FaultError),
    "FaultPlan.seeded": (lambda: (FaultPlan.seeded, (7,), {
        "num_edge_servers": 3, "horizon_seconds": 10.0}),
        (FaultError, ConfigurationError)),
    "ResilienceConfig": (lambda: (ResilienceConfig, (5.0, 3.0, 1.0), {}),
                         FaultError),
    "FrameChunk": (lambda: (FrameChunk, (30, 3, 0.05, 0.02, 100, 10), {}),
                   ServiceError),
    "TenantPolicy": (lambda: (TenantPolicy, ("t",), {}), ServiceError),
    "RealTimeClock": (lambda: (RealTimeClock, (2.0,), {}), ServiceError),
    "StreamingService": (lambda: (StreamingService, (), {
        "num_edge_servers": 1, "edge_workers": 1, "cloud_workers": 1,
        "max_sessions": 4}), ServiceError),
    "StreamIngest": (lambda: (StreamIngest, (
        EventScheduler(), 1, lambda session: None,
        lambda session, chunk: None, 4), {}), ServiceError),
    "ChunkFeeder": (lambda: (ChunkFeeder, (*_service_and_session(), [],
                                           1.0), {}), ServiceError),
    "chunk_camera_job": (lambda: (chunk_camera_job, (_job(), 2), {}),
                         ServiceError),
    "chunk_analysis": (lambda: (chunk_analysis, (_clip(), 1.0, 0.05, 0.02,
                                                 1200, 150), {}),
                       ServiceError),
    "analyse_scenario": (lambda: (analyse_scenario, ("jackson_square", 0.2, 0.05,
                                                     0), {}),
                         (ServiceError, ConfigurationError, DatasetError)),
    # repro.nn, repro.perf, repro.vision
    "Conv2D": (lambda: (Conv2D, (1, 2, 3, 1, "same", "c", 0), {}),
               (ModelError, ConfigurationError)),
    "Dense": (lambda: (Dense, (4, 2, "d", 0), {}),
              (ModelError, ConfigurationError)),
    "MaxPool2D": (lambda: (MaxPool2D, (2, "p"), {}), ModelError),
    "GlobalAveragePool": (lambda: (GlobalAveragePool, ("g",), {}),
                          ModelError),
    "ReLU": (lambda: (ReLU, ("r",), {}), ModelError),
    "Softmax": (lambda: (Softmax, ("s",), {}), ModelError),
    "SequentialModel": (lambda: (SequentialModel, (
        [GlobalAveragePool()], (1, 4, 4), "m"), {}), ModelError),
    "OracleDetector": (lambda: (OracleDetector, (_TIMELINE, 0.1, None, 0),
                                {}), (ModelError, ConfigurationError)),
    "build_yolo_lite": (lambda: (build_yolo_lite, ((16, 16),), {
        "width_multiplier": 0.25, "seed": 7}),
        (ModelError, ConfigurationError)),
    "classify_frames": (lambda: (classify_frames, (
        _MODEL, [np.zeros((16, 16), np.uint8)], 4, "exact"), {}),
        (ModelError, ConfigurationError)),
    "section": (lambda: (section, ("s",), {}), ConfigurationError),
    "ThresholdSampler": (lambda: (ThresholdSampler, (1.0,), {}),
                         ConfigurationError),
    "gaussian_blur": (lambda: (gaussian_blur, (_PLANE, 1.0), {}),
                      ConfigurationError),
    "threshold_for_sampling_fraction": (lambda: (
        threshold_for_sampling_fraction, ([1.0, 2.0, 3.0], 0.5), {}),
        ConfigurationError),
}

#: ``(row, parameter)`` pairs that may accept ``True`` or nan, with why.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("CameraJob", "accuracy"): "nan is an unlabelled stream's accuracy",
    ("SceneStats", "mean_brightness"): "nan marks an unmeasured brightness, "
                                       "which the detector skips",
    ("chunk_scene", "mean_brightness"): "passed on to SceneStats as is",
    ("Frame", "timestamp"): "a per-frame path, kept free of checks; the "
                            "timestamp is presentation data only",
    ("NetworkLink", "transfer_count"): "a running total the link writes",
    ("NetworkLink", "total_bytes"): "a running total the link writes",
    ("NetworkLink", "total_seconds"): "a running total the link writes",
}

#: Exported callables the sweep does not call, with why.
NOT_SWEPT: Dict[str, str] = {
    **dict.fromkeys(("DeploymentMode", "FrameType", "PlacementPolicy",
                     "BreakerState", "SessionState"),
                    "an enum: its members are its values"),
    "SieveError": "the exception hierarchy's root",
    **dict.fromkeys(("ChangeDetector", "VideoSource", "Layer",
                     "ObjectDetector", "ClockDriver"),
                    "an abstract base without parameters"),
    **dict.fromkeys(("IFrameSeeker", "VideoDecoder", "ResultDatabase",
                     "EventScheduler", "ParameterLookupTable",
                     "RecoveryTrace", "Workspace", "VirtualClock",
                     "Stopwatch", "MseChangeDetector", "SiftChangeDetector",
                     "get_recorder",
                     "all_datasets"), "takes no parameters"),
    **dict.fromkeys((
        "dct2_blocks", "idct2_blocks", "from_blocks", "quantise_blocks",
        "dequantise_blocks", "encode_blocks", "encoded_size_bytes",
        "decode_block_payloads", "decode_images", "read_frame_index",
        "motion_compensate", "gradients", "gradient_magnitude_orientation",
        "mean_squared_error", "normalize_plane", "to_grayscale",
        "resize_stack", "preprocess_frames", "score_video",
        "evaluate_sampling", "evaluate_sample_sets", "snapshot_sessions"),
        "takes arrays, byte strings or sequences, which the codec, scoring "
        "and vision tests fuzz"),
    **dict.fromkeys((
        "EventTimeline", "ActivityColumns", "KeyframePlacer",
        "StreamingKeyframePlacer", "TuningGrid", "AdaptiveConfig",
        "AdaptiveTuningController", "DriftMonitor", "ChunkScene",
        "CostModel", "ContendedLink", "ServiceFaultDriver", "FaultPlan",
        "VideoEncoder", "SyntheticScene", "GeneratedVideo",
        "RawVideo", "apply_transforms",
        "generate_script", "as_label_set", "DatasetSpec"),
        "takes no scalar but composite objects (or a bool), each checked "
        "by its own row; DatasetSpec is a constant Table I row whose fps "
        "reaches SceneProfile"),
    "FaultSpec": "a typing alias of the three fault specs",
    "LabelSet": "a typing alias of frozenset",
    "register_composed": "mutates the global scenario registry; "
                         "parse_spec, which it calls first, has a row",
    "snapshot_station": "builds a status record from a live station at the "
                        "service's own clock",
    **dict.fromkeys(("build_workload", "prepare_dataset", "prepare_workload",
                     "execute_build_task", "BuildTask"),
                    "renders and analyses whole clips; their numbers reach "
                    "EncoderParameters, SystemConfig and ExperimentConfig, "
                    "which have rows"),
}

#: Records the library builds and returns; nobody configures them.
OUTPUTS: Dict[str, str] = dict.fromkeys((
    "DeploymentReport", "DetectionScore", "EncodedVideo", "TuningResult",
    "VideoAnalysisResult", "DriftSignal", "RetuneDecision", "FleetOutcomes",
    "FleetReport", "JobOutcome", "ResultRecord", "TierReport",
    "EncodedFrame", "FrameActivity", "FrameIndexEntry", "SeekResult",
    "MotionField", "ConfigurationResult", "VideoWorkload", "StationStats",
    "DatasetInstance", "PreparedDataset", "FaultStats", "TraceEvent",
    "PerfRecorder", "SectionStats", "ClipAnalysis", "HealthSample",
    "ServiceStatus", "SessionSnapshot", "StationSnapshot", "StreamSession"),
    "a result record the library fills in")


def _exported_callables() -> Dict[str, object]:
    exported: Dict[str, object] = {}
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module in modules:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            value = getattr(importlib.import_module(module), name)
            if callable(value) and not name.startswith("__"):
                exported.setdefault(name, value)
    return exported


def _is_scalar(value: object) -> bool:
    return (isinstance(value, (int, float, str))
            and not isinstance(value, bool))


def _swept(row: str) -> Iterator[Tuple[str, object, bool]]:
    """``(parameter, bad value, numeric)`` for every scalar of the row."""
    function, args, kwargs = REGISTRY[row][0]()
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        if _is_scalar(value):
            for bad in BAD_VALUES:
                yield name, bad, not isinstance(value, str)


def _outcome(row: str, parameter: str, bad: object) -> str:
    """What a call with ``parameter=bad`` did, or ``""`` when it is fine."""
    factory, expected = REGISTRY[row]
    function, args, kwargs = factory()
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    bound.arguments[parameter] = bad
    try:
        function(*bound.args, **bound.kwargs)
    except expected:
        return ""
    except SieveError as error:
        return f"raised {type(error).__name__}: {error}"
    except Exception as error:  # a bare error is the finding
        return f"escaped as a bare {type(error).__name__}: {error}"
    return "accepted"


@pytest.mark.parametrize("row", sorted(REGISTRY))
def test_every_bad_scalar_is_refused_with_the_typed_error(row):
    findings = []
    for parameter, bad, numeric in _swept(row):
        outcome = _outcome(row, parameter, bad)
        if outcome == "accepted":
            if not numeric or (row, parameter) in ALLOWED:
                continue
            if not (bad is True or (isinstance(bad, float)
                                    and math.isnan(bad))):
                continue
        if outcome:
            findings.append(f"{row}({parameter}={bad!r}) {outcome}")
    assert not findings, "\n".join(findings)


def test_every_export_is_swept_skipped_or_an_output():
    tables = (REGISTRY, NOT_SWEPT, OUTPUTS)
    unlisted = sorted(name for name in _exported_callables()
                      if not any(name in table for table in tables))
    assert not unlisted, f"exported but in no table here: {unlisted}"
    twice = sorted(name for name in _exported_callables()
                   if sum(name in table for table in tables) > 1)
    assert not twice, f"in more than one table: {twice}"


def test_allowed_pairs_name_swept_parameters():
    swept = {(row, parameter) for row in REGISTRY
             for parameter, _, _ in _swept(row)}
    assert set(ALLOWED) <= swept
