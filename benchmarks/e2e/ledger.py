"""The benchmark's names: workloads, end-to-end metrics, per-layer ledger.

``BENCHMARK.json`` at the repository root is :func:`benchmark_document`
written out (the test suite pins the two against each other).  The contract
file may only carry ``name``/``unit``/``better`` per layer metric, so the
prediction each layer metric makes -- which end-to-end metric it should
move, on which workload -- lives here as ``moves`` and is printed by the
traced run and tabulated in the README.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: name -> (unit of work counted by ``throughput_per_s``, why it exists).
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "offline_build": (
        "frames",
        "camera onboarding through build_workload: codec encode side "
        "(motion search) owns the wall clock, tuner and simulator a sliver"),
    "query_iframe": (
        "frames",
        "the paper's online path over stored clips: seek, decode I-frames "
        "only, NN; an NN win shows here and a motion-search win must not"),
    "query_fulldecode": (
        "frames",
        "the decode-everything MSE baseline on the same corpus: codec read "
        "side owns the wall clock, so an encode trick that taxes decode shows"),
    "fleet_replay": (
        "camera_jobs",
        "batch fleet simulator at scale: cluster.fleet and the event "
        "scheduler do all the work, codec and NN none"),
    "service_soak": (
        "chunks",
        "streaming service with the controller off: the same engine driven "
        "through the service's copy of the stage chain"),
    "adaptive_soak": (
        "chunks",
        "streaming service with the adapt controller on: retunes re-run the "
        "tuner grid, the one workload where a tuner win is claimable"),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Every time below is in seconds at reference speed (see ``speed.py``).
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "interpreter start + imports + input generation + warm-up pass"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median timed-pass wall seconds"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "process CPU seconds of the median pass (contention cross-check)"),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.25,
             "workload units per second of the median pass"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "wall latency of the median blocking call into the program (each "
             "call's latency is its median over the passes): a clip on "
             "offline_build/query_*, the whole run()/drain() on the three "
             "simulator workloads"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "peak resident set of the measuring child"),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    meaning: str


_OFFLINE = "wall_s@offline_build"
_IFRAME = "op_p50_ms@query_iframe"
_FULL = "wall_s@query_fulldecode"
_QUERY_SETUP = "setup_s@query_iframe,setup_s@query_fulldecode"
_FLEET = "wall_s@fleet_replay"
_SOAK = "wall_s@service_soak"
_SIM_RATE = "throughput_per_s@fleet_replay,throughput_per_s@service_soak"
_ADAPT = "wall_s@adaptive_soak"

PER_LAYER: List[Layer] = [
    # codec, write side (staged replay of build_workload)
    Layer("codec.analyze_s", "s", "lower", _OFFLINE, "lookahead analysis pass"),
    Layer("codec.encode_semantic_s", "s", "lower", _OFFLINE,
          "size-only encode under the tuned parameters"),
    Layer("codec.encode_default_s", "s", "lower", _OFFLINE,
          "size-only encode under the default parameters"),
    Layer("codec.analyze_frames", "count", "lower", _OFFLINE,
          "frames through the analysis pass"),
    Layer("codec.encode_frames", "count", "lower", _OFFLINE,
          "frames through the two size-only encodes"),
    Layer("codec.bytes_semantic", "bytes", "lower", _OFFLINE,
          "encoded bytes, semantic parameters (raw codec output)"),
    Layer("codec.bytes_default", "bytes", "lower", _OFFLINE,
          "encoded bytes, default parameters (raw codec output)"),
    # codec kernels, standalone on sampled frame pairs of the same clips
    Layer("codec.motion_search_ms", "ms", "lower", _OFFLINE,
          "estimate_motion per frame pair"),
    Layer("codec.motion_compensate_ms", "ms", "lower",
          _OFFLINE + "," + _FULL, "motion_compensate per frame pair"),
    Layer("codec.transform_ms", "ms", "lower", _OFFLINE,
          "blocks + DCT + quantise + dequantise + IDCT per frame"),
    Layer("codec.entropy_size_ms", "ms", "lower", _OFFLINE,
          "encoded_size_bytes of one frame's residual blocks"),
    Layer("codec.keyframe_size_ms", "ms", "lower", _OFFLINE,
          "estimate_encoded_size of one I-frame"),
    Layer("codec.motion_share_est", "share", "lower", _OFFLINE,
          "3 searches/P-frame x motion_search_ms x P-frames / build_workload_s"
          ": the ceiling of any motion-search win"),
    # codec, read side
    Layer("codec.seek_s", "s", "lower", _IFRAME, "IFrameSeeker.seek_serialized"),
    Layer("codec.seek_entries", "count", "lower", _IFRAME,
          "index entries the seeker scanned"),
    Layer("codec.deserialize_s", "s", "lower", _IFRAME + "," + _FULL,
          "EncodedVideo.deserialize"),
    Layer("codec.decode_keyframes_s", "s", "lower", _IFRAME,
          "VideoDecoder.decode_keyframes"),
    Layer("codec.keyframes_decoded", "count", "lower", _IFRAME,
          "I-frames decoded"),
    Layer("codec.decoded_frame_share", "share", "lower", _IFRAME,
          "keyframes decoded / frames in corpus: the paper's ~3.5 %"),
    Layer("codec.decode_video_s", "s", "lower", _FULL,
          "VideoDecoder.decode_video"),
    Layer("codec.frames_decoded", "count", "lower", _FULL,
          "frames through the full decoder"),
    Layer("codec.encode_materialised_s", "s", "lower", _QUERY_SETUP,
          "corpus encodes with payloads (set-up)"),
    Layer("codec.serialize_s", "s", "lower", _QUERY_SETUP,
          "EncodedVideo.serialize of the corpus (set-up)"),
    # core
    Layer("core.build_workload_s", "s", "lower", _OFFLINE,
          "the un-staged entry point, traced pass"),
    Layer("core.tune_s", "s", "lower", _OFFLINE + "," + _ADAPT,
          "SemanticEncoderTuner.tune_from_activities"),
    Layer("core.tune_grid_points", "count", "lower", _OFFLINE,
          "grid configurations scored"),
    Layer("core.plan_s", "s", "lower", _OFFLINE, "plan_camera_job calls"),
    Layer("core.plan_jobs", "count", "lower", _OFFLINE, "camera jobs planned"),
    Layer("core.replay_s", "s", "lower", _OFFLINE,
          "EndToEndSimulation.run_all"),
    # vision
    Layer("vision.mse_score_s", "s", "lower", _FULL + "," + _OFFLINE,
          "score_video(MseChangeDetector)"),
    Layer("vision.frames_scored", "count", "lower", _FULL,
          "frames through the MSE detector"),
    Layer("vision.mse_sample_s", "s", "lower", _FULL + "," + _OFFLINE,
          "threshold fit + ThresholdSampler"),
    # nn
    Layer("nn.preprocess_s", "s", "lower", _IFRAME, "preprocess_frames"),
    Layer("nn.classify_s", "s", "lower", _IFRAME, "model.predict_classes"),
    Layer("nn.frames_classified", "count", "lower", _IFRAME,
          "frames through the NN"),
    Layer("nn.batches", "count", "lower", _IFRAME, "batched forward passes"),
    # cluster
    Layer("cluster.fleet_build_s", "s", "lower", _FLEET,
          "FleetOrchestrator constructor + assign()"),
    Layer("cluster.fleet_run_s", "s", "lower", _FLEET,
          "FleetOrchestrator.run()"),
    Layer("cluster.jobs_completed", "count", "higher", _FLEET,
          "camera jobs the cloud tier completed"),
    Layer("cluster.resultdb_record_s", "s", "lower",
          _IFRAME + "," + _FULL, "ResultDatabase.record calls"),
    Layer("cluster.resultdb_rows", "count", "higher", _IFRAME,
          "rows in the result database after the pass"),
    # dataflow
    Layer("dataflow.events", "count", "lower", _SIM_RATE,
          "discrete events the scheduler fired"),
    Layer("dataflow.events_per_s", "1/s", "higher", _SIM_RATE,
          "events / run span"),
    Layer("dataflow.scheduler_loop_s", "s", "lower", _SIM_RATE,
          "bare EventScheduler + one ServiceStation, no-op jobs"),
    # service
    Layer("service.open_sessions_s", "s", "lower", _SOAK,
          "constructor + open_session + feeder start"),
    Layer("service.drain_s", "s", "lower", _SOAK, "StreamingService.drain"),
    Layer("service.status_s", "s", "lower", _SOAK, "StreamingService.status"),
    Layer("service.fleet_report_s", "s", "lower", _SOAK,
          "StreamingService.fleet_report"),
    Layer("service.chunks_pushed", "count", "higher", _SOAK,
          "chunks the sessions accepted"),
    Layer("service.chunks_completed", "count", "higher", _SOAK,
          "chunks whose cloud inference finished"),
    Layer("service.pushes_rejected", "count", "lower", _SOAK,
          "pushes bounced with backpressure"),
    Layer("service.feeder_retries", "count", "lower", _SOAK,
          "feeder retries after a bounced push"),
    # adapt
    Layer("adapt.drain_s", "s", "lower", _ADAPT,
          "drain with the controller installed"),
    Layer("adapt.retunes", "count", "lower", _ADAPT,
          "confirmed drifts that ran the grid search (applied + no-op)"),
    Layer("adapt.retune_ms", "ms", "lower", _ADAPT,
          "(adapt.drain_s - drain of the same feed, adaptive=None) / retunes"),
    # video (footage is an input, not the system)
    Layer("video.render_s", "s", "lower", "setup_s@*",
          "rendering + materialising the clips (set-up)"),
    Layer("video.frames_rendered", "count", "lower", "setup_s@*",
          "frames rendered (set-up)"),
    # the trace itself
    Layer("trace.coverage_share", "share", "higher", "-",
          "sum of layer self time / entry-point time of the traced pass"),
    Layer("trace.overhead_share", "share", "lower", "-",
          "traced pass wall / untraced median - 1"),
]


def benchmark_document() -> dict:
    """The contract document written to ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
