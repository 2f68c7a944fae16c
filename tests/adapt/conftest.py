"""Shared fixtures for the online-adaptation suite.

The drifting clip is rendered and analysed exactly once per session —
every test here (and the drift soak especially) reuses the same
activities, labels and luma sequence, mirroring how the serving path
computes the analysis pass once per chunk.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest

from repro.adapt import chunk_scene
from repro.codec.gop import EncoderParameters, StreamingKeyframePlacer
from repro.codec.scenecut import SceneCutAnalyzer
from repro.core.metrics import evaluate_sampling
from repro.core.tuner import SemanticEncoderTuner
from repro.service import FrameChunk
from repro.video import make_scenario
from repro.video.events import EventTimeline
from repro.video.frame import FrameType
from repro.video.synthetic import SyntheticScene

#: Footage seconds per chunk == virtual seconds per push in the soak.
CHUNK_SECONDS = 2.0

#: Kept small enough for CI but long enough that the day->night drift
#: genuinely changes the optimal configuration (pinned empirically).
CLIP_SECONDS = 54.0
RENDER_SCALE = 0.12
CLIP_SEED = 11


@pytest.fixture(scope="session")
def drift_clip():
    """Render + analyse the drifting clip once for the whole suite."""
    profile = make_scenario("drifting", duration_seconds=CLIP_SECONDS,
                            render_scale=RENDER_SCALE, seed=CLIP_SEED)
    scene = SyntheticScene(profile)
    frames = [scene.frame_array(index) for index in range(profile.num_frames)]
    return {
        "frames": frames,
        "activities": SceneCutAnalyzer().analyze_frames(frames),
        "labels": scene.script.frame_labels(),
        "lumas": [float(np.asarray(frame, dtype=np.float64).mean())
                  for frame in frames],
        "fps": profile.fps,
    }


def build_drift_chunks(activities, labels, lumas, fps) -> List[FrameChunk]:
    """Slice an analysed clip into scene-carrying stream chunks."""
    per_chunk = int(round(CHUNK_SECONDS * fps))
    chunks = []
    for index in range(len(activities) // per_chunk):
        lo, hi = index * per_chunk, (index + 1) * per_chunk
        scene = chunk_scene(activities[lo:hi], labels[lo:hi],
                            mean_brightness=float(np.mean(lumas[lo:hi])))
        chunks.append(FrameChunk(
            num_frames=per_chunk, frames_for_inference=3,
            edge_seconds=0.05, cloud_seconds=0.02,
            camera_edge_bytes=72_000, edge_cloud_bytes=9_000,
            scene=scene))
    return chunks


@pytest.fixture(scope="session")
def drift_chunks(drift_clip) -> List[FrameChunk]:
    return build_drift_chunks(drift_clip["activities"], drift_clip["labels"],
                              drift_clip["lumas"], drift_clip["fps"])


@pytest.fixture(scope="session")
def frozen_parameters(drift_chunks) -> EncoderParameters:
    """The offline warm-up tune on the bright opening quarter."""
    warm = max(len(drift_chunks) // 4, 3)
    activities = [activity for chunk in drift_chunks[:warm]
                  for activity in chunk.scene.activities]
    labels = [frame for chunk in drift_chunks[:warm]
              for frame in chunk.scene.frame_labels]
    return SemanticEncoderTuner().tune_from_activities(
        activities, EventTimeline.from_frame_labels(labels)).best_parameters


@pytest.fixture(scope="session")
def replay():
    """The schedule-replay scorer, exposed as a fixture (no package
    imports between test modules and conftest)."""
    return replay_schedule


def replay_schedule(chunks: Sequence[FrameChunk],
                    schedule: Sequence[EncoderParameters]):
    """Score a per-chunk parameter schedule over the whole chunk list."""
    placer = StreamingKeyframePlacer(schedule[0])
    keyframes = []
    index = 0
    for chunk, parameters in zip(chunks, schedule):
        placer.parameters = parameters
        for activity in chunk.scene.activities:
            if placer.decide(activity) is FrameType.I:
                keyframes.append(index)
            index += 1
    labels = [frame for chunk in chunks for frame in chunk.scene.frame_labels]
    return evaluate_sampling(EventTimeline.from_frame_labels(labels),
                             keyframes)
