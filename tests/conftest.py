"""Shared fixtures for the test suite.

All fixtures are intentionally tiny (tens of frames, <100x100 pixels) so the
full suite runs in a couple of minutes on a laptop CPU; the experiment-scale
behaviour is covered by the benchmark harnesses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import EncoderParameters, VideoEncoder
from repro.video import (ObjectClassSpec, Resolution, SceneProfile, SyntheticScene,
                         make_scenario)


@pytest.fixture(scope="session")
def tiny_profile() -> SceneProfile:
    """A small single-object scene: one 'car' class, ~20 seconds, 64x40."""
    classes = ((ObjectClassSpec("car", relative_height=0.3, aspect_ratio=2.0,
                                speed_fraction=0.25, brightness_delta=80.0), 1.0),)
    return SceneProfile(
        name="tiny", resolution=Resolution(64, 40), fps=30.0, duration_seconds=20.0,
        object_classes=classes, mean_gap_seconds=4.0, mean_dwell_seconds=4.0,
        noise_std=2.0, background_detail=20.0, texture_detail=28.0,
        illumination_drift=2.0, seed=11)


@pytest.fixture(scope="session")
def tiny_scene(tiny_profile) -> SyntheticScene:
    """The rendered scene for :func:`tiny_profile`."""
    return SyntheticScene(tiny_profile)


@pytest.fixture(scope="session")
def tiny_video(tiny_scene):
    """The lazily generated video of the tiny scene (with ground truth)."""
    return tiny_scene.video()


@pytest.fixture(scope="session")
def tiny_raw_video(tiny_video):
    """The tiny video with all frames materialised in memory."""
    return tiny_video.materialise()


@pytest.fixture(scope="session")
def tiny_timeline(tiny_video):
    """Ground-truth event timeline of the tiny video."""
    return tiny_video.timeline


@pytest.fixture(scope="session")
def tuned_parameters() -> EncoderParameters:
    """Encoder parameters that reliably detect events in the tiny scene."""
    return EncoderParameters(gop_size=500, scenecut_threshold=250.0)


@pytest.fixture(scope="session")
def tiny_activities(tiny_video, tuned_parameters):
    """Scene-cut analysis pass of the tiny video."""
    return VideoEncoder(tuned_parameters).analyze(tiny_video)


@pytest.fixture(scope="session")
def tiny_encoded(tiny_video, tuned_parameters, tiny_activities):
    """Size-only semantic encoding of the tiny video."""
    return VideoEncoder(tuned_parameters).encode(tiny_video,
                                                 activities=tiny_activities)


@pytest.fixture(scope="session")
def tiny_encoded_payload(tiny_video, tuned_parameters, tiny_activities):
    """Fully materialised (decodable) encoding of the tiny video."""
    return VideoEncoder(tuned_parameters).encode(
        tiny_video, materialise_payload=True, activities=tiny_activities)


@pytest.fixture(scope="session")
def quick_scenario_video():
    """A very short Jackson-square scenario clip used by integration tests."""
    profile = make_scenario("jackson_square", duration_seconds=15, render_scale=0.08)
    return SyntheticScene(profile).video()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A per-test deterministic random generator."""
    return np.random.default_rng(1234)
