"""What an encode costs, counted rather than timed.

Counts repeat exactly on any machine, so they can gate what a shared
runner's wall clock cannot resolve.  The clip is the one
``tests/codec/test_analysis_counters.py`` counts: 120 frames of
``coral_reef`` at render scale 0.08 (58 x 102), materialised before
counting, encoded size-only with the default parameters.

* Calls per frame, counted with ``sys.setprofile`` and the collector
  off: Python-level calls into ``repro`` itself, all Python-level calls,
  and C calls.  The first count does not depend on the numpy version, so
  its ceiling is the tight one.  ``encode(video)`` runs the batched
  analysis pass and then the encode: 39.6 ``repro`` / 75.0 Python-level /
  104.7 C calls a frame.  Given the pass, ``encode(video,
  activities=...)`` makes 34.5 / 67.3 / 86.0.  The live loop this
  replaced, which analysed and placed one frame at a time, made 127.9
  Python-level and 176.4 C calls; a ``MotionSearch`` built per frame adds
  four ``repro`` calls a P-frame.
* The ``tracemalloc`` peak of one warm encode: 0.95 MB with the analysis
  pass (one frame batch of its ``int16`` stacks), 0.79 MB without.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

import pytest

import repro
from repro.codec.encoder import VideoEncoder
from repro.datasets.generator import build_dataset

FRAMES = 120

#: ``repro`` / all Python-level / C calls per frame, and traced peak bytes.
ANALYSE_FIRST_CEILINGS = (41.5, 84.0, 118.0, 1_100_000)
GIVEN_PASS_CEILINGS = (36.0, 75.0, 97.0, 900_000)

PACKAGE = os.path.dirname(repro.__file__)


@pytest.fixture(scope="module")
def clip():
    video = build_dataset("coral_reef", FRAMES / 30.0, 0.08,
                          seed=0).video.materialise()
    assert video.metadata.num_frames == FRAMES
    assert video.frame(0).data.shape == (58, 102)
    return video


def _calls(encode):
    """(``repro``, all Python-level, C) calls of one ``encode()``."""
    counts = [0, 0, 0]

    def profile(frame, event, argument) -> None:
        if event == "call":
            counts[1] += 1
            counts[0] += frame.f_code.co_filename.startswith(PACKAGE)
        elif event == "c_call":
            counts[2] += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        encode()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return tuple(counts)


def _peak_bytes(encode) -> int:
    tracemalloc.start()
    try:
        encode()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _encodes(clip):
    encoder = VideoEncoder()
    activities = encoder.analyze(clip)
    return {
        "analyse first": (lambda: encoder.encode(clip), ANALYSE_FIRST_CEILINGS),
        "given the pass": (lambda: encoder.encode(clip, activities=activities),
                           GIVEN_PASS_CEILINGS),
    }


class TestWhatAnEncodeCosts:
    @pytest.mark.parametrize("form", ["analyse first", "given the pass"])
    def test_calls_per_frame(self, clip, form):
        encode, ceilings = _encodes(clip)[form]
        encode()
        calls = _calls(encode)
        assert calls == _calls(encode)
        per_frame = tuple(count / FRAMES for count in calls)
        for name, count, ceiling in zip(("repro", "Python-level", "C"),
                                        per_frame, ceilings):
            assert count <= ceiling, (name, per_frame)

    @pytest.mark.parametrize("form", ["analyse first", "given the pass"])
    def test_traced_peak_of_a_warm_encode(self, clip, form):
        encode, ceilings = _encodes(clip)[form]
        encode()
        peak = _peak_bytes(encode)
        assert peak <= ceilings[-1], peak
