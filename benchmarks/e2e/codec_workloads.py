"""The three workloads that run pixels: onboarding and the two query paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cluster.resultdb import ResultDatabase
from repro.codec import (EncodedVideo, IFrameSeeker, VideoDecoder,
                         VideoEncoder, dct2_blocks, dequantise_blocks,
                         encoded_size_bytes, estimate_encoded_size,
                         estimate_motion, idct2_blocks, motion_compensate,
                         pad_plane, quantisation_matrix, quantise_blocks,
                         to_blocks)
from repro.codec.gop import DEFAULT_PARAMETERS, KeyframePlacer
from repro.core import (ALL_DEPLOYMENT_MODES, DeploymentMode,
                        EndToEndSimulation, SemanticEncoderTuner, TuningGrid,
                        build_workload, evaluate_sampling, plan_camera_job)
from repro.core.pipeline import H264_EFFICIENCY_FACTOR
from repro.nn import build_yolo_lite, classify_frames, preprocess_frames
from repro.rng import make_rng
from repro.vision.mse import MseChangeDetector
from repro.vision.similarity import (ThresholdSampler, score_video,
                                     threshold_for_sampling_fraction)

from common import (PassResult, make_clip, pinned_config, report_fingerprint,
                    run_ops)

TOLERANCE = 1e-6


def _close(left: float, right: float) -> bool:
    if left != left or right != right:
        return left != left and right != right
    return abs(left - right) <= TOLERANCE * max(1.0, abs(left))


class OfflineBuild:
    """Camera onboarding: three clips through ``build_workload``, then
    ``plan_camera_job`` x 5 modes and ``EndToEndSimulation.run_all``."""

    name = "offline_build"
    #: (dataset, seconds, labelled).  Labelled clips run the tuner, the
    #: unlabelled one takes the fixed-GOP path.
    CLIPS = {False: (("jackson_square", 8.0, True), ("coral_reef", 8.0, True),
                     ("amsterdam", 4.0, False)),
             True: (("jackson_square", 2.0, True), ("coral_reef", 2.0, True),
                    ("amsterdam", 1.0, False))}
    KERNEL_PAIRS = {False: 32, True: 4}
    coverage_spans = ("codec.analyze_s", "core.tune_s",
                      "codec.encode_semantic_s", "codec.encode_default_s",
                      "vision.mse_score_s", "vision.mse_sample_s")
    coverage_of = "core.build_workload_s"

    def __init__(self, seed: int, quick: bool, setup) -> None:
        self.config = pinned_config()
        self.seed = seed
        self.kernel_pairs = self.KERNEL_PAIRS[quick]
        with setup.span("video.render_s"):
            self.instances = [
                make_clip(seed, self.name, index, dataset, seconds, labelled)
                for index, (dataset, seconds, labelled)
                in enumerate(self.CLIPS[quick])]
        self.frames = sum(instance.video.metadata.num_frames
                          for instance in self.instances)
        self.sizes = {"clips": len(self.instances), "frames": self.frames}
        with setup.span("setup.reference"):
            self.reference = self._materialised_reference(self.instances[-1])

    @staticmethod
    def _unlabelled_parameters(video):
        """build_workload's documented rule for unlabelled feeds: one
        I-frame per 5 seconds, scene cuts off."""
        gop = max(int(round(5.0 * video.metadata.fps)), 1)
        return DEFAULT_PARAMETERS.with_(gop_size=gop, scenecut_threshold=0.0)

    def _materialised_reference(self, instance) -> Dict[str, object]:
        """Sizes and I-frames of real (payload-producing) encodes of the
        unlabelled clip; the size-only encodes must agree byte for byte."""
        video = instance.video
        scale = (instance.spec.size_scale_to_nominal(video.metadata.resolution)
                 * H264_EFFICIENCY_FACTOR)
        semantic = VideoEncoder(self._unlabelled_parameters(video),
                                self.config.precision).encode(video, True)
        default = VideoEncoder(DEFAULT_PARAMETERS,
                               self.config.precision).encode(video, True)
        return {"semantic_samples": semantic.keyframe_indices,
                "semantic_bytes": int(semantic.total_size_bytes * scale),
                "default_bytes": int(default.total_size_bytes * scale)}

    def run_pass(self, tracer, prober) -> PassResult:
        result = PassResult(units=self.frames, attempted=len(self.instances))

        def build(key, instance):
            with tracer.span("core.build_workload_s"):
                return build_workload(instance, config=self.config)

        workloads = run_ops(result, tracer, prober, (
            (f"clip-{index}:{instance.name}", instance)
            for index, instance in enumerate(self.instances)), build)
        built = [workload for workload in workloads if workload is not None]
        jobs, simulation, reports = [], None, {}
        if built:
            with tracer.span("core.plan_s"):
                jobs = [plan_camera_job(workload, mode) for workload in built
                        for mode in ALL_DEPLOYMENT_MODES]
            with tracer.span("core.replay_s"):
                simulation = EndToEndSimulation(built, self.config)
                reports = simulation.run_all()
        result.outputs = (workloads, jobs, simulation, reports)
        return result

    def check(self, result: PassResult) -> List[str]:
        workloads, _, simulation, reports = result.outputs
        problems = []
        unlabelled = workloads[-1]
        if unlabelled is not None:
            for key, expected in self.reference.items():
                if getattr(unlabelled, key) != expected:
                    problems.append(
                        f"size-only {key} {getattr(unlabelled, key)!r} != "
                        f"materialised {expected!r}")
        for mode, report in reports.items():
            serial = simulation.run_serial(mode).as_dict()
            for key, value in report.as_dict().items():
                if key != "mode" and not _close(value, serial[key]):
                    problems.append(f"{mode.value}.{key}: run {value!r} != "
                                    f"run_serial {serial[key]!r}")
        if reports:
            three_tier = reports[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
            for mode, report in reports.items():
                if report.throughput_fps > three_tier.throughput_fps:
                    problems.append(f"3-tier fps {three_tier.throughput_fps} "
                                    f"< {mode.value} {report.throughput_fps}")
        return problems

    def fingerprint(self, result: PassResult):
        workloads, jobs, _, reports = result.outputs
        return {
            "workloads": [None if w is None else
                          [w.name, w.num_frames, w.semantic_bytes,
                           w.default_bytes, w.semantic_iframe_bytes,
                           w.semantic_samples, w.mse_samples,
                           w.uniform_samples] for w in workloads],
            "jobs": [[job.camera, job.frames_for_inference, job.edge_seconds,
                      job.cloud_seconds, job.camera_edge_bytes,
                      job.edge_cloud_bytes] for job in jobs],
            "reports": {mode.value: report_fingerprint(report)
                        for mode, report in reports.items()},
        }

    def derived(self, result: PassResult) -> Dict[str, float]:
        reports = result.outputs[3]
        derived = {f"sim_fps.{mode.value}": report.throughput_fps
                   for mode, report in reports.items()}
        three_tier = reports.get(DeploymentMode.IFRAME_EDGE_CLOUD_NN)
        if three_tier is not None and three_tier.accuracy is not None:
            derived["label_accuracy.3tier"] = three_tier.accuracy
        return derived

    def staged(self, tracer, traced: Dict[str, float],
               traced_result: PassResult) -> Dict[str, float]:
        precision = self.config.precision
        counters = dict.fromkeys((
            "codec.analyze_frames", "codec.encode_frames",
            "codec.bytes_semantic", "codec.bytes_default",
            "core.tune_grid_points", "vision.frames_scored"), 0)
        searches = 0
        for instance in self.instances:
            video, timeline = instance.video, instance.timeline
            frames = video.metadata.num_frames
            with tracer.span("codec.analyze_s"):
                activities = VideoEncoder(DEFAULT_PARAMETERS,
                                          precision).analyze(video)
            if timeline is not None:
                grid = TuningGrid()
                with tracer.span("core.tune_s"):
                    parameters = SemanticEncoderTuner(
                        grid, DEFAULT_PARAMETERS, precision
                    ).tune_from_activities(activities, timeline,
                                           instance.name).best_parameters
                counters["core.tune_grid_points"] += grid.num_configurations
            else:
                parameters = self._unlabelled_parameters(video)
            with tracer.span("codec.encode_semantic_s"):
                semantic = VideoEncoder(parameters, precision).encode(
                    video, activities=activities)
            with tracer.span("codec.encode_default_s"):
                default = VideoEncoder(DEFAULT_PARAMETERS, precision).encode(
                    video, activities=activities)
            with tracer.span("vision.mse_score_s"):
                scores = score_video(MseChangeDetector(), video)
            with tracer.span("vision.mse_sample_s"):
                if timeline is not None:
                    _mse_samples_closest_to_f1(scores, timeline)
            counters["codec.analyze_frames"] += frames
            counters["codec.encode_frames"] += 2 * frames
            counters["codec.bytes_semantic"] += semantic.total_size_bytes
            counters["codec.bytes_default"] += default.total_size_bytes
            counters["vision.frames_scored"] += frames
            searches += ((frames - 1) + (frames - semantic.num_keyframes)
                         + (frames - default.num_keyframes))
        counters["core.plan_jobs"] = len(traced_result.outputs[1])
        counters["video.frames_rendered"] = self.frames
        counters.update(self._kernels(tracer))
        build_seconds = traced.get("core.build_workload_s", 0.0)
        counters["codec.motion_share_est"] = (
            searches * counters["codec.motion_search_ms"] / 1e3 / build_seconds
            if build_seconds else 0.0)
        return counters

    def _kernels(self, tracer) -> Dict[str, float]:
        """Codec kernels standalone, on frame pairs sampled from the clips."""
        lumas = [[frame.to_grayscale() for frame in instance.video.frames()]
                 for instance in self.instances]
        pool = [(clip, index) for clip, planes in enumerate(lumas)
                for index in range(1, len(planes))]
        rng = make_rng(self.seed, self.name, "kernel-pairs")
        picks = rng.choice(len(pool), size=self.kernel_pairs, replace=False)
        parameters = DEFAULT_PARAMETERS
        block = parameters.block_size
        matrix = quantisation_matrix(parameters.quality, block)

        def kernel(name):
            return tracer.span(f"kernel.{name}")

        for pick in picks:
            clip, index = pool[int(pick)]
            reference, current = lumas[clip][index - 1], lumas[clip][index]
            with kernel("motion_search"):
                field = estimate_motion(reference, current, block,
                                        parameters.search_radius,
                                        precision=self.config.precision)
            with kernel("motion_compensate"):
                prediction = motion_compensate(reference, field, current.shape)
            with kernel("transform"):
                blocks = to_blocks(pad_plane(current - prediction, block),
                                   block)
                quantised = quantise_blocks(dct2_blocks(blocks), matrix)
                idct2_blocks(dequantise_blocks(quantised, matrix))
            coded = quantised[np.any(quantised != 0, axis=(2, 3))][:, None]
            with kernel("entropy_size"):
                if coded.shape[0]:
                    encoded_size_bytes(coded)
            image = np.clip(current, 0, 255).astype(np.uint8)
            with kernel("keyframe_size"):
                estimate_encoded_size(image, parameters.quality, block)
        seconds = tracer.self_seconds()
        return {f"codec.{name}_ms":
                seconds[f"kernel.{name}"] / self.kernel_pairs * 1e3
                for name in ("motion_search", "motion_compensate", "transform",
                             "entropy_size", "keyframe_size")}


def _mse_samples_closest_to_f1(scores, timeline, target_f1: float = 0.95):
    """build_workload's MSE-baseline fit, composed from public calls: the
    threshold (of ~64 candidates) whose F1 is closest to the target."""
    finite = sorted({float(score) for score in scores
                     if score != float("inf")})
    candidates = finite[:: max(len(finite) // 64, 1)] + [float("inf")]
    return min((ThresholdSampler(threshold).sample(scores)
                for threshold in candidates),
               key=lambda samples: abs(
                   evaluate_sampling(timeline, samples).f1 - target_f1))


@dataclass
class StoredClip:
    """One serialised clip of the query corpus plus what checks need."""

    key: str
    data: bytes
    num_frames: int
    keyframes: List[int]
    reference: Dict[int, np.ndarray]


def fit_parameters_to_budget(activities, budget: int):
    """Semantic parameters whose placement has ``budget`` I-frames.

    Scene cuts place the I-frames events need; the GOP cap tops the count
    up to the budget.  Seeds then change *where* the I-frames sit, not how
    many frames the online path decodes and classifies -- which is what
    keeps a run on seed 7 comparable with a run on seed 8.  Per scenecut
    threshold (most sensitive of the paper's grid first) the largest GOP
    cap that still yields ``budget`` I-frames is found by bisection; the
    first exact hit wins, the closest count otherwise.
    """
    frames = len(activities)

    def placed(gop: int, scenecut: float):
        parameters = DEFAULT_PARAMETERS.with_(gop_size=gop,
                                              scenecut_threshold=scenecut)
        count = len(KeyframePlacer(parameters).keyframe_indices(activities))
        return abs(count - budget), count, parameters

    best = None
    for scenecut in (250.0, 200.0, 100.0, 40.0, 20.0):
        low, high = max(frames // budget, 1), frames
        while low < high:
            middle = (low + high + 1) // 2
            if placed(middle, scenecut)[1] >= budget:
                low = middle
            else:
                high = middle - 1
        candidate = placed(low, scenecut)
        if best is None or candidate[0] < best[0]:
            best = candidate
        if best[0] == 0:
            break
    return best[2]


class _QueryCorpus:
    """Set-up shared by both query workloads: the same eight serialised,
    semantically encoded clips for a given seed."""

    CORPUS = {False: ((("jackson_square", 4), ("coral_reef", 2),
                       ("amsterdam", 2)), 6.0),
              True: ((("jackson_square", 1), ("coral_reef", 1),
                      ("amsterdam", 1)), 2.0)}
    #: The paper's headline share of frames that are I-frames.
    KEYFRAME_SHARE = 0.035

    def __init__(self, seed: int, quick: bool, setup) -> None:
        self.config = pinned_config()
        self.model = build_yolo_lite()
        self.seeker = IFrameSeeker()
        self.decoder = VideoDecoder()
        datasets, seconds = self.CORPUS[quick]
        names = [name for name, count in datasets for _ in range(count)]
        self.clips: List[StoredClip] = []
        for index, dataset in enumerate(names):
            with setup.span("video.render_s"):
                video = make_clip(seed, "query_corpus", index, dataset,
                                  seconds).video
            frames = video.metadata.num_frames
            with setup.span("setup.analyze"):
                activities = VideoEncoder(
                    DEFAULT_PARAMETERS, self.config.precision).analyze(video)
                parameters = fit_parameters_to_budget(
                    activities, max(round(self.KEYFRAME_SHARE * frames), 1))
            with setup.span("codec.encode_materialised_s"):
                encoded = VideoEncoder(parameters, self.config.precision
                                       ).encode(video, True, activities)
            with setup.span("codec.serialize_s"):
                data = encoded.serialize()
            with setup.span("setup.reference"):
                reference = self._reference(encoded)
            self.clips.append(StoredClip(
                key=f"clip-{index}:{dataset}", data=data, num_frames=frames,
                keyframes=encoded.keyframe_indices, reference=reference))
        self.frames = sum(clip.num_frames for clip in self.clips)
        self.keyframes = sum(len(clip.keyframes) for clip in self.clips)
        self.sizes = {"clips": len(self.clips), "frames": self.frames,
                      "keyframes": self.keyframes,
                      "bytes": sum(len(clip.data) for clip in self.clips)}

    def _classify_and_record(self, tracer, database, key, indices, planes):
        with tracer.span("nn.classify_frames"):
            labels, probabilities = classify_frames(
                self.model, planes, self.config.nn_batch_size,
                self.config.precision)
        with tracer.span("cluster.resultdb_record_s"):
            for index, label in zip(indices, labels):
                database.record(key, index, (label,))
        return labels, probabilities

    def run_pass(self, tracer, prober) -> PassResult:
        result = PassResult(units=self.frames, attempted=len(self.clips))
        database = ResultDatabase()
        answers = run_ops(
            result, tracer, prober,
            ((clip.key, clip) for clip in self.clips),
            lambda key, clip: self._query(tracer, database, key, clip))
        result.outputs = (answers, database)
        return result

    def check(self, result: PassResult) -> List[str]:
        answers, database = result.outputs
        problems = []
        rows = 0
        for clip, answer in zip(self.clips, answers):
            if answer is None:
                continue
            indices, planes, labels, _ = answer
            rows += len(labels)
            problems.extend(f"{clip.key}: {problem}" for problem
                            in self._check_clip(clip, indices, planes))
        if len(database) != rows:
            problems.append(f"result database holds {len(database)} rows, "
                            f"{rows} were recorded")
        return problems

    def fingerprint(self, result: PassResult):
        return [None if answer is None else
                [list(answer[0]), list(answer[2]),
                 np.round(answer[3], 6).tolist()]
                for answer in result.outputs[0]]

    def _nn_staged(self, tracer, traced_result) -> Dict[str, float]:
        """classify_frames' composition replayed from public calls, so
        preprocessing and the forward pass get a line each."""
        height, width = self.model.input_shape[1], self.model.input_shape[2]
        batch = self.config.nn_batch_size
        classified = batches = 0
        for answer in traced_result.outputs[0]:
            planes = [] if answer is None else self._nn_inputs(answer)
            for start in range(0, len(planes), batch):
                chunk = planes[start:start + batch]
                with tracer.span("nn.preprocess_s"):
                    tensors = preprocess_frames(chunk, (height, width))
                with tracer.span("nn.classify_s"):
                    self.model.predict_classes(tensors, self.config.precision)
                classified += len(chunk)
                batches += 1
        return {"nn.frames_classified": classified, "nn.batches": batches,
                "cluster.resultdb_rows": len(traced_result.outputs[1]),
                "video.frames_rendered": self.frames}


class QueryIFrame(_QueryCorpus):
    """The paper's online path: seek -> decode I-frames -> NN -> record."""

    name = "query_iframe"
    coverage_spans = ("codec.seek_s", "codec.deserialize_s",
                      "codec.decode_keyframes_s", "nn.preprocess_s",
                      "nn.classify_s", "cluster.resultdb_record_s")
    coverage_of = None

    def _reference(self, encoded) -> Dict[int, np.ndarray]:
        raw = self.decoder.decode_video(encoded)
        return {index: raw.frame(index).data
                for index in encoded.keyframe_indices}

    def _query(self, tracer, database, key, clip):
        with tracer.span("codec.seek_s"):
            _, _, seek = self.seeker.seek_serialized(clip.data)
        with tracer.span("codec.deserialize_s"):
            encoded = EncodedVideo.deserialize(clip.data)
        with tracer.span("codec.decode_keyframes_s"):
            frames = self.decoder.decode_keyframes(encoded)
        indices = [frame.index for frame in frames]
        planes = [frame.data for frame in frames]
        labels, probabilities = self._classify_and_record(
            tracer, database, key, indices, planes)
        return seek.keyframe_indices, planes, labels, probabilities

    def _check_clip(self, clip, indices, planes) -> List[str]:
        if list(indices) != clip.keyframes:
            return [f"seek_serialized found {list(indices)}, the encoder "
                    f"placed {clip.keyframes}"]
        return [f"decode_keyframes frame {index} differs from decode_video"
                for index, plane in zip(indices, planes)
                if not np.array_equal(plane, clip.reference[index])]

    def _nn_inputs(self, answer):
        return answer[1]

    def derived(self, result: PassResult) -> Dict[str, float]:
        return {"decoded_frame_share": self.keyframes / self.frames}

    def staged(self, tracer, traced, traced_result) -> Dict[str, float]:
        counters = self._nn_staged(tracer, traced_result)
        counters.update({
            "codec.seek_entries": self.frames,
            "codec.keyframes_decoded": self.keyframes,
            "codec.decoded_frame_share": self.keyframes / self.frames})
        return counters


class QueryFullDecode(_QueryCorpus):
    """The classical baseline: decode every frame -> MSE filter at the
    clip's I-frame share -> NN -> record."""

    name = "query_fulldecode"
    coverage_spans = ("codec.deserialize_s", "codec.decode_video_s",
                      "vision.mse_score_s", "vision.mse_sample_s",
                      "nn.preprocess_s", "nn.classify_s",
                      "cluster.resultdb_record_s")
    coverage_of = None

    def _reference(self, encoded) -> Dict[int, np.ndarray]:
        return {frame.index: frame.data
                for frame in self.decoder.decode_keyframes(encoded)}

    def _query(self, tracer, database, key, clip):
        with tracer.span("codec.deserialize_s"):
            encoded = EncodedVideo.deserialize(clip.data)
        with tracer.span("codec.decode_video_s"):
            raw = self.decoder.decode_video(encoded)
        with tracer.span("vision.mse_score_s"):
            scores = score_video(MseChangeDetector(), raw)
        with tracer.span("vision.mse_sample_s"):
            threshold = threshold_for_sampling_fraction(
                scores, encoded.sampling_fraction)
            samples = ThresholdSampler(threshold).sample(scores)
        labels, probabilities = self._classify_and_record(
            tracer, database, key, samples,
            [raw.frame(index).data for index in samples])
        return samples, raw, labels, probabilities

    def _check_clip(self, clip, samples, raw) -> List[str]:
        if raw.metadata.num_frames != clip.num_frames:
            return [f"decode_video returned {raw.metadata.num_frames} frames "
                    f"of {clip.num_frames}"]
        return [f"decode_video frame {index} differs from decode_keyframes"
                for index, plane in clip.reference.items()
                if not np.array_equal(raw.frame(index).data, plane)]

    def _nn_inputs(self, answer):
        samples, raw = answer[0], answer[1]
        return [raw.frame(index).data for index in samples]

    def derived(self, result: PassResult) -> Dict[str, float]:
        sampled = sum(len(answer[0]) for answer in result.outputs[0]
                      if answer is not None)
        return {"sampled_frame_share": sampled / self.frames}

    def staged(self, tracer, traced, traced_result) -> Dict[str, float]:
        counters = self._nn_staged(tracer, traced_result)
        counters.update({"codec.frames_decoded": self.frames,
                         "vision.frames_scored": self.frames})
        return counters
