"""Absolute pins of the program's outputs, on tiny fixed inputs.

The oracles of the suite are relative: they hold a body to the one it
replaced, so a change made on both sides of a comparison (a layer that
redraws its weights, a detector that scores differently) passes them.
Each pin here is the sha256 of one computation's output on an input fixed
in this file, captured from the program and never recomputed by a test.

A change that moves a pin is a re-base: it updates the digest here, and
says which outputs moved and why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import CameraJob, FleetOrchestrator
from repro.config import SystemConfig
from repro.experiments import (ExperimentConfig, prepare_dataset,
                               prepare_workload)
from repro.nn import build_yolo_lite, classify_frames
from repro.service import ChunkFeeder, FrameChunk, StreamingService
from repro.video import SyntheticScene, make_scenario
from repro.vision import SiftChangeDetector, score_video

#: Three seconds of Jackson Square at 5 % of its nominal resolution.
TINY = ExperimentConfig(duration_seconds=3.0, render_scale=0.05,
                        datasets=("jackson_square",))

#: No link latency, and costs that are multiples of a quarter second (the
#: WAN moves ``QUARTER_OF_WAN`` bytes in exactly 0.25 s): arrivals land
#: on the previous job's end, so the recurrence's tie rules decide orders.
TIE_PRONE = SystemConfig(camera_edge_latency_ms=0.0,
                         edge_cloud_latency_ms=0.0)
QUARTER_OF_WAN = int(30e6 / 8) // 4


def yolo_lite_parameters(hasher):
    """Every layer's name and parameters of the default classifier."""
    for layer in build_yolo_lite().layers:
        hasher.update(layer.name.encode())
        for values in (getattr(layer, "weights", None),
                       getattr(layer, "bias", None)):
            if values is not None:
                hasher.update(values.tobytes())


def classified_frames(hasher):
    """Labels and probabilities of six rendered frames."""
    scene = SyntheticScene(make_scenario("jackson_square", 2.0, 0.10))
    frames = [scene.frame_array(index) for index in range(0, 60, 10)]
    labels, probabilities = classify_frames(build_yolo_lite(), frames)
    hasher.update(repr(labels).encode())
    hasher.update(probabilities.tobytes())


def sift_scores(hasher):
    """The SIFT change-score series of two seconds of 128x72 footage."""
    video = SyntheticScene(make_scenario("coral_reef", 2.0, 0.10)).video()
    hasher.update(np.array(score_video(SiftChangeDetector(), video)).tobytes())


def prepared_workload(hasher):
    """Name, byte counts and the three sample sets of one workload: the
    render, the analysis pass, the tuner and both size-only encodes."""
    workload = prepare_workload("jackson_square", TINY)
    hasher.update(repr((
        workload.name, workload.num_frames, workload.semantic_bytes,
        workload.default_bytes, workload.semantic_iframe_bytes,
        workload.resized_frame_bytes)).encode())
    for samples in (workload.semantic_samples, workload.mse_samples,
                    workload.uniform_samples):
        hasher.update(np.asarray(samples, dtype=np.int64).tobytes())


def prepared_dataset(hasher):
    """Frames and analysis pass of the same clip."""
    prepared = prepare_dataset("jackson_square", TINY)
    hasher.update(np.stack([frame.data for frame in prepared.video]).tobytes())
    hasher.update(repr(prepared.activities).encode())


def fleet_report(hasher):
    """A heterogeneous eight-camera fleet on two edges: the report's flat
    view and every job's edge and stage instants."""
    jobs = [CameraJob(camera=f"cam-{index}", video="feed", num_frames=240,
                      frames_for_inference=8,
                      edge_seconds=0.25 * (1 + index % 2), cloud_seconds=0.25,
                      camera_edge_bytes=600_000,
                      edge_cloud_bytes=QUARTER_OF_WAN)
            for index in range(8)]
    report = FleetOrchestrator(jobs, num_edge_servers=2,
                               config=TIE_PRONE).run()
    hasher.update(repr(sorted(report.as_dict().items())).encode())
    hasher.update(report.outcomes.edges.tobytes())
    hasher.update(report.outcomes.instants.tobytes())


def service_status(hasher):
    """The drained status of a service that four feeders push into."""
    service = StreamingService(num_edge_servers=2)
    for index in range(4):
        camera = f"cam-{index}"
        service.open_session(camera, edge_index=index % 2)
        chunk = FrameChunk(num_frames=30, frames_for_inference=3,
                           edge_seconds=0.2 + 0.05 * index,
                           cloud_seconds=0.2, camera_edge_bytes=250_000,
                           edge_cloud_bytes=QUARTER_OF_WAN // 2)
        ChunkFeeder(service, camera, [chunk] * 6,
                    period_seconds=0.5).start(at=0.25 * (index // 2))
    service.drain()
    status = replace(service.status(), wall_run_seconds=0.0)
    hasher.update(status.to_json().encode())


PINS = {
    yolo_lite_parameters:
        "2e92ad3ff405ac10a25fd5b53fbbde911363555cce1bf3448facc24715720bc0",
    classified_frames:
        "db9ee771ccb73ad086641c10a34b879b5a8947e45b99c394e9e28d3c0806e54e",
    sift_scores:
        "e6b792ff0918247f1b65cdbbffadcfca15d233b854369f8040b0889c8198fb58",
    prepared_workload:
        "5e12fd81b61dbbb2c2a43b25c6bdc34477b0e814b05a5a0d0a953325707d29df",
    prepared_dataset:
        "c486ee3ddd9bfe24edf2712a38b028508e9add0efc4d83908c4394db942ebaa5",
    fleet_report:
        "042ea26f141f9329b7974b8b9dec02c1730a3618d167cfd168216c718d4f454b",
    service_status:
        "ee7a20f330a10b957e073cd9a217e35bd8442c0e62f90418100b0b54d2a4eea6",
}


@pytest.mark.parametrize("output", list(PINS), ids=lambda output: output.__name__)
def test_output_matches_its_pin(output):
    hasher = hashlib.sha256()
    output(hasher)
    assert hasher.hexdigest() == PINS[output]
