"""The codec entry points that still take ``precision`` ignore it.

The codec has one numeric mode; ``precision`` selects the NN's alone.  Four
entry points keep the argument because the end-to-end
benchmark passes it: each checks it and otherwise ignores it, so
``"fast"`` gives the bytes ``"exact"`` gives, and an unknown mode is a
:class:`~repro.errors.ConfigurationError`.
"""

import numpy as np
import pytest

from repro.codec import EncoderParameters, VideoEncoder, estimate_motion
from repro.core import SemanticEncoderTuner, TuningGrid
from repro.errors import ConfigurationError
from repro.service import analyse_scenario
from repro.video import SyntheticScene, make_scenario
from repro.video.scenarios import SCENARIOS

PARAMETERS = EncoderParameters(gop_size=30, scenecut_threshold=100.0)

#: Every shipped base scenario.
BASE_SCENARIOS = sorted(name for name in SCENARIOS if "+" not in name)


def clip(name: str) -> SyntheticScene:
    return SyntheticScene(make_scenario(name, duration_seconds=2.0,
                                        render_scale=0.05))


@pytest.mark.parametrize("name", BASE_SCENARIOS)
def test_video_encoder(name):
    video = clip(name).video().materialise()
    exact = VideoEncoder(PARAMETERS, "exact")
    fast = VideoEncoder(PARAMETERS, "fast")
    assert fast.analyze(video) == exact.analyze(video)
    assert (fast.encode(video, True).serialize()
            == exact.encode(video, True).serialize())
    with pytest.raises(ConfigurationError):
        VideoEncoder(PARAMETERS, "bogus")


@pytest.mark.parametrize("name", BASE_SCENARIOS)
def test_semantic_encoder_tuner(name):
    scene = clip(name)
    video = scene.video().materialise()
    timeline = scene.script.timeline()
    grid = TuningGrid(gop_sizes=(10, 30), scenecut_thresholds=(40.0, 250.0))
    exact = SemanticEncoderTuner(grid, PARAMETERS, "exact").tune(video, timeline)
    fast = SemanticEncoderTuner(grid, PARAMETERS, "fast").tune(video, timeline)
    assert fast.results == exact.results
    assert fast.best == exact.best
    with pytest.raises(ConfigurationError):
        SemanticEncoderTuner(grid, PARAMETERS, "bogus")


def test_estimate_motion():
    # Float planes: the float64 search, where the deleted float32 one used
    # to round differently.
    rng = np.random.default_rng(3)
    reference = rng.uniform(0.0, 255.0, size=(40, 56))
    current = np.roll(reference, (1, -2), axis=(0, 1)) + rng.normal(
        0.0, 0.5, size=reference.shape)
    exact = estimate_motion(reference, current, 8, 3, precision="exact")
    fast = estimate_motion(reference, current, 8, 3, precision="fast")
    assert fast.vectors.tobytes() == exact.vectors.tobytes()
    with pytest.raises(ConfigurationError):
        estimate_motion(reference, current, 8, 3, precision="bogus")


@pytest.mark.parametrize("name", BASE_SCENARIOS)
def test_analyse_scenario(name):
    exact = analyse_scenario(name, 2.0, 0.05, seed=3, precision="exact")
    fast = analyse_scenario(name, 2.0, 0.05, seed=3, precision="fast")
    assert fast == exact
    with pytest.raises(ConfigurationError):
        analyse_scenario(name, 2.0, 0.05, seed=3, precision="bogus")
