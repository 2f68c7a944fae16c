"""End-to-end 3-tier simulation (Section V-B: Figures 4 and 5).

The evaluation scenario is post-event analysis: encoded videos are already
stored on the edge server, and we measure (a) the sustained throughput in
frames per second of pushing all of them through object detection under each
deployment mode, and (b) the bytes moved camera->edge and edge->cloud.

The simulation is split into two stages so the expensive part runs once:

* :func:`build_workload` encodes a dataset clip with both the semantic and
  the default parameters, fits the MSE baseline threshold, and condenses
  everything the deployments need into a :class:`VideoWorkload` (frame
  counts, I-frame counts, encoded sizes scaled to the dataset's nominal
  resolution, per-method sampled-frame sets);
* :class:`EndToEndSimulation` replays any :class:`DeploymentMode` over a set
  of workloads using the calibrated cost model and the simulated links, and
  reports throughput, data transfer and (when ground truth exists) accuracy.

The replay runs on the discrete-event scheduler: every workload becomes a
:class:`CameraJob` (planned by :func:`plan_camera_job`) executed by a
:class:`~repro.cluster.fleet.FleetOrchestrator`.  With the default single
edge server the reported totals reproduce the seed's serial accounting,
which :meth:`EndToEndSimulation.run_serial` states in closed form — the
per-mode charge table summed into one edge tally, one cloud tally and one
uncontended WAN link — as the reference the regression tests and the
benchmark's output check compare ``run`` against.  With
``num_edge_servers > 1`` the same workloads shard across a fleet and the
report additionally carries per-tier utilisation, queue depths and latency
percentiles in ``DeploymentReport.fleet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.costmodel import CostModel
from ..cluster.fleet import (CameraJob, FleetOrchestrator, FleetReport,
                             PlacementPolicy)
from ..config import SystemConfig
from ..codec.encoder import VideoEncoder
from ..codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from ..datasets.generator import DatasetInstance
from ..errors import PipelineError
from ..jpeg_sizing import resized_frame_bytes
from ..logging_utils import get_logger
from ..codec.scenecut import FrameActivity
from ..net.link import NetworkLink
from ..perf import section as perf_section
from ..video.events import EventTimeline
from ..video.frame import Resolution
from ..vision.mse import MseChangeDetector
from ..vision.similarity import ThresholdSampler, score_video
from .deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from .metrics import evaluate_sample_sets, evaluate_sampling
from .tuner import SemanticEncoderTuner, TuningGrid

_LOGGER = get_logger(__name__)

#: Compression-efficiency correction applied when scaling this codec's
#: encoded sizes to the datasets' nominal resolutions.  The teaching codec
#: lacks H.264's intra prediction, CABAC and RD optimisation, so at equal
#: quality its bitstreams are roughly 4x larger than x264's for the same
#: surveillance content; the paper's transfer volumes (12.26 GB for 20 hours
#: of mixed-resolution footage) correspond to x264-class bitrates, so encoded
#: byte counts are corrected by this factor before entering the simulation.
H264_EFFICIENCY_FACTOR = 0.25


@dataclass
class VideoWorkload:
    """Everything a deployment simulation needs to know about one video.

    Attributes:
        name: Video / dataset name.
        num_frames: Total frames.
        nominal_resolution: Resolution used for cost and size accounting.
        semantic_bytes: Encoded size under the tuned semantic parameters,
            scaled to the nominal resolution.
        default_bytes: Encoded size under the default parameters, scaled to
            the nominal resolution.
        semantic_iframe_bytes: Total size of the semantic encoding's I-frame
            payloads (scaled), i.e. what the edge would ship before resizing.
        semantic_samples: Frame indices of the semantic encoding's I-frames.
        mse_samples: Frame indices selected by the tuned MSE filter.
        uniform_samples: Frame indices selected by uniform sampling (matched
            in count to the semantic I-frames).
        resized_frame_bytes: Size of one frame after resizing to the NN input
            resolution, as shipped to the cloud.
        timeline: Ground-truth timeline (``None`` for unlabelled datasets).
    """

    name: str
    num_frames: int
    nominal_resolution: Resolution
    semantic_bytes: int
    default_bytes: int
    semantic_iframe_bytes: int
    semantic_samples: List[int]
    mse_samples: List[int]
    uniform_samples: List[int]
    resized_frame_bytes: int
    timeline: Optional[EventTimeline] = None

    @property
    def num_semantic_iframes(self) -> int:
        """Number of I-frames in the semantic encoding."""
        return len(self.semantic_samples)

    def samples_for(self, mode: DeploymentMode) -> List[int]:
        """The frames that undergo NN inference under ``mode``."""
        if mode.uses_semantic_encoding:
            return self.semantic_samples
        if mode is DeploymentMode.UNIFORM_EDGE_CLOUD_NN:
            return self.uniform_samples
        if mode is DeploymentMode.MSE_EDGE_CLOUD_NN:
            return self.mse_samples
        raise PipelineError(f"unknown deployment mode {mode!r}")


@dataclass
class DeploymentReport:
    """Simulation result of one deployment mode over a set of workloads.

    Attributes:
        mode: The simulated deployment.
        total_frames: Frames across all videos (I and P).
        edge_seconds: Simulated edge compute time.
        cloud_seconds: Simulated cloud compute time.
        transfer_seconds: Simulated edge->cloud transfer time.
        camera_edge_bytes: Bytes moved camera -> edge.
        edge_cloud_bytes: Bytes moved edge -> cloud.
        frames_for_inference: Frames that underwent NN inference.
        accuracy: Mean per-frame label accuracy over the labelled videos
            (``None`` when no ground truth was available).
        per_video: Per-video breakdown of the same quantities.
        fleet: The underlying fleet-simulation report (utilisation, queue
            depths, latency percentiles); ``None`` from ``run_serial``.
    """

    mode: DeploymentMode
    total_frames: int = 0
    edge_seconds: float = 0.0
    cloud_seconds: float = 0.0
    transfer_seconds: float = 0.0
    camera_edge_bytes: int = 0
    edge_cloud_bytes: int = 0
    frames_for_inference: int = 0
    accuracy: Optional[float] = None
    per_video: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fleet: Optional[FleetReport] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end processing time (compute + transfer, serial model)."""
        return self.edge_seconds + self.cloud_seconds + self.transfer_seconds

    @property
    def throughput_fps(self) -> float:
        """Frames per second over the whole corpus (Figure 4's metric)."""
        if self.total_seconds <= 0:
            return float("inf")
        return self.total_frames / self.total_seconds

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view (used by the benchmark tables)."""
        return {
            "mode": self.mode.label,
            "total_frames": float(self.total_frames),
            "throughput_fps": self.throughput_fps,
            "edge_seconds": self.edge_seconds,
            "cloud_seconds": self.cloud_seconds,
            "transfer_seconds": self.transfer_seconds,
            "camera_edge_gb": self.camera_edge_bytes / 1e9,
            "edge_cloud_gb": self.edge_cloud_bytes / 1e9,
            "frames_for_inference": float(self.frames_for_inference),
            "accuracy": self.accuracy if self.accuracy is not None else float("nan"),
        }


def build_workload(instance: DatasetInstance,
                   semantic_parameters: Optional[EncoderParameters] = None,
                   config: Optional[SystemConfig] = None,
                   default_parameters: EncoderParameters = DEFAULT_PARAMETERS,
                   target_f1: float = 0.95,
                   unlabelled_sample_period_seconds: float = 5.0,
                   activities: Optional[List[FrameActivity]] = None
                   ) -> VideoWorkload:
    """Prepare one video for the end-to-end simulation.

    Follows the paper's protocol: the semantic parameters and the MSE
    threshold are the ones achieving (closest to) an F1 score of
    ``target_f1`` on labelled footage; for the unlabelled datasets both
    approaches are pinned to one sampled frame per
    ``unlabelled_sample_period_seconds`` seconds.

    Args:
        instance: The dataset clip (with ground truth when available).
        semantic_parameters: Tuned encoder parameters; when ``None`` and the
            dataset is labelled they are obtained by running the offline
            tuner on the clip itself.
        config: System configuration (NN input resolution, seed, and the
            numeric ``precision`` the analysis/tuning/encode stages run
            under).
        default_parameters: The non-semantic encoder configuration.
        target_f1: F1 target used to select the MSE threshold.
        unlabelled_sample_period_seconds: Sampling period used when no ground
            truth exists.
        activities: Optional precomputed analysis pass of the clip (e.g. from
            a cached :class:`~repro.experiments.PreparedDataset`), saving the
            lookahead re-run.

    Returns:
        The condensed :class:`VideoWorkload`.
    """
    config = config or SystemConfig()
    precision = config.precision
    video = instance.video
    timeline = instance.timeline
    spec = instance.spec
    num_frames = video.metadata.num_frames
    fps = video.metadata.fps
    size_scale = (spec.size_scale_to_nominal(video.metadata.resolution)
                  * H264_EFFICIENCY_FACTOR)

    # --- analysis pass + semantic parameters ------------------------------
    with perf_section("pipeline.analyze"):
        if activities is None:
            activities = VideoEncoder(default_parameters,
                                      precision).analyze(video)
    if semantic_parameters is None:
        if timeline is not None:
            with perf_section("pipeline.tune"):
                tuner = SemanticEncoderTuner(TuningGrid(), default_parameters,
                                             precision)
                semantic_parameters = tuner.tune_from_activities(
                    activities, timeline, spec.name).best_parameters
        else:
            # Unlabelled feed: pin the I-frame rate to one per N seconds.
            gop = max(int(round(unlabelled_sample_period_seconds * fps)), 1)
            semantic_parameters = default_parameters.with_(
                gop_size=gop, scenecut_threshold=0.0)

    # --- encode under both configurations (size-only) ---------------------
    with perf_section("pipeline.encode"):
        semantic_encoded = VideoEncoder(semantic_parameters, precision).encode(
            video, activities=activities)
        default_encoded = VideoEncoder(default_parameters, precision).encode(
            video, activities=activities)
    semantic_samples = semantic_encoded.keyframe_indices

    # --- MSE baseline threshold -------------------------------------------
    with perf_section("pipeline.mse_baseline"):
        mse_scores = score_video(MseChangeDetector(), video)
        if timeline is not None:
            mse_samples = _mse_samples_for_f1(mse_scores, timeline, target_f1)
        else:
            period = max(int(round(unlabelled_sample_period_seconds * fps)), 1)
            mse_samples = list(range(0, num_frames, period))

    # --- uniform sampling matched to the semantic I-frame count -----------
    interval = max(num_frames // max(len(semantic_samples), 1), 1)
    uniform_samples = list(range(0, num_frames, interval))

    width, height = config.nn_input_resolution
    resized_bytes = resized_frame_bytes(width, height)
    return VideoWorkload(
        name=spec.name,
        num_frames=num_frames,
        nominal_resolution=spec.nominal_resolution,
        semantic_bytes=int(semantic_encoded.total_size_bytes * size_scale),
        default_bytes=int(default_encoded.total_size_bytes * size_scale),
        semantic_iframe_bytes=int(semantic_encoded.keyframe_size_bytes * size_scale),
        semantic_samples=list(semantic_samples),
        mse_samples=list(mse_samples),
        uniform_samples=uniform_samples,
        resized_frame_bytes=resized_bytes,
        timeline=timeline,
    )


def _mse_samples_for_f1(scores: Sequence[float], timeline: EventTimeline,
                        target_f1: float) -> List[int]:
    """Pick the MSE threshold whose F1 score is closest to ``target_f1``."""
    finite = sorted({float(score) for score in scores if score != float("inf")})
    candidates = finite[:: max(len(finite) // 64, 1)] + [float("inf")]
    placements = [ThresholdSampler(threshold).sample(scores)
                  for threshold in candidates]
    best_samples: List[int] = [0]
    best_gap = float("inf")
    for samples, score in zip(placements,
                              evaluate_sample_sets(timeline, placements)):
        gap = abs(score.f1 - target_f1)
        if gap < best_gap:
            best_gap = gap
            best_samples = samples
    return best_samples


def plan_camera_job(workload: VideoWorkload, mode: DeploymentMode,
                    cost_model: Optional[CostModel] = None,
                    camera: Optional[str] = None) -> CameraJob:
    """Plan one workload's per-tier costs under a deployment mode.

    The arithmetic is charge-for-charge identical to the seed's serial
    accounting (:meth:`EndToEndSimulation.run_serial`); the result is a
    side-effect-free :class:`~repro.cluster.fleet.CameraJob` that the fleet
    scheduler can place on any edge server.  Both tiers' CPU speeds come
    from ``cost_model.calibration``.

    Args:
        workload: The prepared video workload.
        mode: Deployment mode to plan for.
        cost_model: Calibrated cost model (defaults to the paper's).
        camera: Camera name (defaults to the workload name).

    Returns:
        The planned camera job.

    Raises:
        PipelineError: If ``mode`` is not a known deployment mode.
    """
    cost_model = cost_model or CostModel()
    edge_speed = cost_model.calibration.edge_speed_factor
    cloud_speed = cost_model.calibration.cloud_speed_factor
    samples = workload.samples_for(mode)
    num_samples = len(samples)
    resolution = workload.nominal_resolution
    num_frames = workload.num_frames
    camera_edge_bytes = (workload.semantic_bytes if mode.uses_semantic_encoding
                         else workload.default_bytes)
    edge_seconds = 0.0
    cloud_seconds = 0.0

    if mode is DeploymentMode.IFRAME_EDGE_CLOUD_NN:
        edge_seconds += cost_model.seek_seconds(num_frames, resolution, edge_speed)
        edge_seconds += cost_model.jpeg_decode_seconds(num_samples, resolution,
                                                       edge_speed)
        edge_seconds += cost_model.resize_seconds(num_samples, edge_speed)
        edge_cloud_bytes = num_samples * workload.resized_frame_bytes
        description = f"iframes:{workload.name}"
        cloud_seconds += cost_model.nn_seconds(num_samples, device="cloud")
    elif mode is DeploymentMode.IFRAME_CLOUD_CLOUD_NN:
        edge_cloud_bytes = workload.semantic_bytes
        description = f"full-video:{workload.name}"
        cloud_seconds += cost_model.seek_seconds(num_frames, resolution,
                                                 cloud_speed)
        cloud_seconds += cost_model.jpeg_decode_seconds(num_samples, resolution,
                                                        cloud_speed)
        cloud_seconds += cost_model.resize_seconds(num_samples, cloud_speed)
        cloud_seconds += cost_model.nn_seconds(num_samples, device="cloud")
    elif mode is DeploymentMode.IFRAME_EDGE_EDGE_NN:
        edge_seconds += cost_model.seek_seconds(num_frames, resolution, edge_speed)
        edge_seconds += cost_model.jpeg_decode_seconds(num_samples, resolution,
                                                       edge_speed)
        edge_seconds += cost_model.resize_seconds(num_samples, edge_speed)
        edge_seconds += cost_model.nn_seconds(num_samples, device="edge")
        # Only the detection results travel to the cloud.
        edge_cloud_bytes = num_samples * 128
        description = f"results:{workload.name}"
    elif mode is DeploymentMode.UNIFORM_EDGE_CLOUD_NN:
        edge_seconds += cost_model.decode_seconds(num_frames, resolution,
                                                  edge_speed)
        edge_seconds += cost_model.resize_seconds(num_samples, edge_speed)
        edge_cloud_bytes = num_samples * workload.resized_frame_bytes
        description = f"uniform:{workload.name}"
        cloud_seconds += cost_model.nn_seconds(num_samples, device="cloud")
    elif mode is DeploymentMode.MSE_EDGE_CLOUD_NN:
        edge_seconds += cost_model.decode_seconds(num_frames, resolution,
                                                  edge_speed)
        edge_seconds += cost_model.mse_seconds(num_frames, resolution, edge_speed)
        edge_seconds += cost_model.resize_seconds(num_samples, edge_speed)
        edge_cloud_bytes = num_samples * workload.resized_frame_bytes
        description = f"mse:{workload.name}"
        cloud_seconds += cost_model.nn_seconds(num_samples, device="cloud")
    else:  # pragma: no cover - exhaustive over the enum.
        raise PipelineError(f"unhandled deployment mode {mode!r}")

    accuracy = float("nan")
    if workload.timeline is not None:
        accuracy = evaluate_sampling(workload.timeline, samples).accuracy
    return CameraJob(
        camera=camera or workload.name,
        video=workload.name,
        num_frames=num_frames,
        frames_for_inference=num_samples,
        edge_seconds=edge_seconds,
        cloud_seconds=cloud_seconds,
        camera_edge_bytes=int(camera_edge_bytes),
        edge_cloud_bytes=int(edge_cloud_bytes),
        transfer_description=description,
        accuracy=accuracy,
    )


class EndToEndSimulation:
    """Replays the five deployment modes over a set of prepared workloads.

    The replay runs on the discrete-event fleet scheduler: each workload is
    planned into a :class:`~repro.cluster.fleet.CameraJob` and executed by a
    :class:`~repro.cluster.fleet.FleetOrchestrator`.  With the default
    single edge server the reported totals match the seed's serial
    accounting to within floating-point reassociation (~1e-12 relative);
    :meth:`run_serial` is that accounting in closed form.

    Args:
        workloads: Prepared video workloads.
        config: System configuration (bandwidths, calibration).
        num_edge_servers: Edge servers to shard the cameras across.
        placement: Camera placement policy for multi-edge fleets.
    """

    def __init__(self, workloads: Sequence[VideoWorkload],
                 config: Optional[SystemConfig] = None,
                 num_edge_servers: int = 1,
                 placement: "PlacementPolicy | str" = PlacementPolicy.ROUND_ROBIN
                 ) -> None:
        if not workloads:
            raise PipelineError("the simulation needs at least one workload")
        if num_edge_servers < 1:
            raise PipelineError("num_edge_servers must be >= 1")
        self.workloads = list(workloads)
        self.config = config or SystemConfig()
        self.cost_model = CostModel(self.config.hardware)
        self.num_edge_servers = int(num_edge_servers)
        self.placement = PlacementPolicy.from_name(placement)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan_jobs(self, mode: DeploymentMode) -> List[CameraJob]:
        """Plan one camera job per workload for ``mode``."""
        return [
            plan_camera_job(workload, mode, self.cost_model,
                            camera=f"cam-{index:03d}:{workload.name}")
            for index, workload in enumerate(self.workloads)
        ]

    # ------------------------------------------------------------------ #
    # Single-mode simulation
    # ------------------------------------------------------------------ #
    def run(self, mode: DeploymentMode) -> DeploymentReport:
        """Simulate one deployment mode over every workload.

        The jobs execute on the shared virtual clock; the report's totals
        come from the fleet's per-tier accounting and its ``fleet`` field
        carries utilisation, queue depths and latency percentiles.
        """
        jobs = self.plan_jobs(mode)
        orchestrator = FleetOrchestrator(
            jobs, num_edge_servers=self.num_edge_servers, config=self.config,
            policy=self.placement)
        fleet = orchestrator.run()
        report = DeploymentReport(mode=mode, fleet=fleet)
        accuracies: List[float] = []
        wan = NetworkLink("wan-formula", self.config.edge_cloud_bandwidth_mbps,
                          self.config.edge_cloud_latency_ms)
        for workload, job in zip(self.workloads, jobs):
            report.per_video[workload.name] = {
                "frames": float(job.num_frames),
                "frames_for_inference": float(job.frames_for_inference),
                "edge_seconds": job.edge_seconds,
                "cloud_seconds": job.cloud_seconds,
                "transfer_seconds": wan.transfer_seconds(job.edge_cloud_bytes),
                "camera_edge_bytes": float(job.camera_edge_bytes),
                "edge_cloud_bytes": float(job.edge_cloud_bytes),
                "accuracy": job.accuracy,
            }
            report.total_frames += job.num_frames
            report.frames_for_inference += job.frames_for_inference
            report.camera_edge_bytes += job.camera_edge_bytes
            report.edge_cloud_bytes += job.edge_cloud_bytes
            if workload.timeline is not None:
                accuracies.append(job.accuracy)
        report.edge_seconds = fleet.edge_busy_seconds
        report.cloud_seconds = fleet.cloud_busy_seconds
        report.transfer_seconds = fleet.wan_transfer_seconds
        report.accuracy = (sum(accuracies) / len(accuracies)) if accuracies else None
        _LOGGER.debug("%s: %.1f fps, %.2f GB edge->cloud", mode.label,
                      report.throughput_fps, report.edge_cloud_bytes / 1e9)
        return report

    def run_serial(self, mode: DeploymentMode) -> DeploymentReport:
        """The seed's serial accounting in closed form (the reference for ``run``).

        Every stage of every workload is charged, in workload order, to one
        edge tally, one cloud tally and one uncontended WAN link: no
        scheduler, no queueing.  The charges (:meth:`_charges`) are stated
        independently of :func:`plan_camera_job`, whose reference they are,
        and each is added to its tier's running total on its own, in the
        seed's order, so every float of the report is the seed's.
        """
        report = DeploymentReport(mode=mode)
        wan = NetworkLink("edge-cloud", self.config.edge_cloud_bandwidth_mbps,
                          self.config.edge_cloud_latency_ms)
        edge_seconds = 0.0
        cloud_seconds = 0.0
        accuracies: List[float] = []
        for workload in self.workloads:
            samples = workload.samples_for(mode)
            edge_before = edge_seconds
            cloud_before = cloud_seconds
            transfer_before = wan.total_seconds
            edge_charges, cloud_charges, edge_cloud_bytes = self._charges(
                workload, mode)
            for seconds in edge_charges:
                edge_seconds += seconds
            for seconds in cloud_charges:
                cloud_seconds += seconds
            wan.transfer(edge_cloud_bytes, workload.name)
            camera_edge_bytes = (workload.semantic_bytes
                                 if mode.uses_semantic_encoding
                                 else workload.default_bytes)
            accuracy = float("nan")
            if workload.timeline is not None:
                accuracy = evaluate_sampling(workload.timeline, samples).accuracy
                accuracies.append(accuracy)
            report.per_video[workload.name] = {
                "frames": float(workload.num_frames),
                "frames_for_inference": float(len(samples)),
                "edge_seconds": edge_seconds - edge_before,
                "cloud_seconds": cloud_seconds - cloud_before,
                "transfer_seconds": wan.total_seconds - transfer_before,
                "camera_edge_bytes": float(camera_edge_bytes),
                "edge_cloud_bytes": float(edge_cloud_bytes),
                "accuracy": accuracy,
            }
            report.total_frames += workload.num_frames
            report.frames_for_inference += len(samples)
            report.camera_edge_bytes += camera_edge_bytes
            report.edge_cloud_bytes += edge_cloud_bytes
        report.edge_seconds = edge_seconds
        report.cloud_seconds = cloud_seconds
        report.transfer_seconds = wan.total_seconds
        report.accuracy = (sum(accuracies) / len(accuracies)) if accuracies else None
        _LOGGER.debug("%s: %.1f fps, %.2f GB edge->cloud", mode.label,
                      report.throughput_fps, report.edge_cloud_bytes / 1e9)
        return report

    def _charges(self, workload: VideoWorkload, mode: DeploymentMode
                 ) -> Tuple[List[float], List[float], int]:
        """One video's row of the per-mode charge table.

        Returns:
            The edge charges and the cloud charges in seconds, each in the
            order the seed made them, and the bytes shipped edge -> cloud.
        """
        cost = self.cost_model
        edge_speed = cost.calibration.edge_speed_factor
        cloud_speed = cost.calibration.cloud_speed_factor
        num_frames = workload.num_frames
        num_samples = len(workload.samples_for(mode))
        resolution = workload.nominal_resolution
        resized_bytes = num_samples * workload.resized_frame_bytes

        def iframe_front_end(speed: float) -> List[float]:
            """Seek the I-frames, decode them as stills, resize for the NN."""
            return [cost.seek_seconds(num_frames, resolution, speed),
                    cost.jpeg_decode_seconds(num_samples, resolution, speed),
                    cost.resize_seconds(num_samples, speed)]

        if mode is DeploymentMode.IFRAME_EDGE_CLOUD_NN:
            return (iframe_front_end(edge_speed),
                    [cost.nn_seconds(num_samples, "cloud")],
                    resized_bytes)
        if mode is DeploymentMode.IFRAME_CLOUD_CLOUD_NN:
            # The whole semantic stream travels; the cloud seeks and decodes.
            return ([],
                    iframe_front_end(cloud_speed)
                    + [cost.nn_seconds(num_samples, "cloud")],
                    workload.semantic_bytes)
        if mode is DeploymentMode.IFRAME_EDGE_EDGE_NN:
            # Only the detection results travel to the cloud.
            return (iframe_front_end(edge_speed)
                    + [cost.nn_seconds(num_samples, "edge")],
                    [],
                    num_samples * 128)
        if mode is DeploymentMode.UNIFORM_EDGE_CLOUD_NN:
            return ([cost.decode_seconds(num_frames, resolution, edge_speed),
                     cost.resize_seconds(num_samples, edge_speed)],
                    [cost.nn_seconds(num_samples, "cloud")],
                    resized_bytes)
        if mode is DeploymentMode.MSE_EDGE_CLOUD_NN:
            return ([cost.decode_seconds(num_frames, resolution, edge_speed),
                     cost.mse_seconds(num_frames, resolution, edge_speed),
                     cost.resize_seconds(num_samples, edge_speed)],
                    [cost.nn_seconds(num_samples, "cloud")],
                    resized_bytes)
        raise PipelineError(f"unhandled deployment mode {mode!r}")

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def run_all(self, modes: Sequence[DeploymentMode] = ALL_DEPLOYMENT_MODES
                ) -> Dict[DeploymentMode, DeploymentReport]:
        """Simulate every requested mode."""
        return {mode: self.run(mode) for mode in modes}

    def throughput_vs_corpus_size(self, mode: DeploymentMode,
                                  video_counts: Sequence[int]
                                  ) -> Dict[int, DeploymentReport]:
        """Throughput when only the first ``n`` videos are processed.

        Reproduces the x-axis of Figure 4 (1 video, 3 videos, 5 videos).
        """
        reports = {}
        for count in video_counts:
            if not 1 <= count <= len(self.workloads):
                raise PipelineError(
                    f"video count {count} out of range [1, {len(self.workloads)}]")
            subset = EndToEndSimulation(self.workloads[:count], self.config,
                                        num_edge_servers=self.num_edge_servers,
                                        placement=self.placement)
            reports[count] = subset.run(mode)
        return reports
