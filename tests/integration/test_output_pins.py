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

import numpy as np
import pytest

from repro.nn import build_yolo_lite, classify_frames
from repro.video import SyntheticScene, make_scenario
from repro.vision import SiftChangeDetector, score_video


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


PINS = {
    yolo_lite_parameters:
        "2e92ad3ff405ac10a25fd5b53fbbde911363555cce1bf3448facc24715720bc0",
    classified_frames:
        "db9ee771ccb73ad086641c10a34b879b5a8947e45b99c394e9e28d3c0806e54e",
    sift_scores:
        "e6b792ff0918247f1b65cdbbffadcfca15d233b854369f8040b0889c8198fb58",
}


@pytest.mark.parametrize("output", list(PINS), ids=lambda output: output.__name__)
def test_output_matches_its_pin(output):
    hasher = hashlib.sha256()
    output(hasher)
    assert hasher.hexdigest() == PINS[output]
