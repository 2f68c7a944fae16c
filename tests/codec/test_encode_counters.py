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
  analysis pass and then the encode: 23.3 ``repro`` / 50.3 Python-level /
  69.3 C calls a frame.  Given the pass, ``encode(video,
  activities=...)`` makes 20.6 / 45.5 / 48.0.  The frame loop carries
  only the closed loop, and P-frames are sized after it in runs; sizing
  each P-frame inside the loop again makes 25.9 and 23.3 ``repro`` calls,
  and the loop before (a ``MotionSearch`` call with each pair's bounds, a
  one-shot ``motion_compensate`` and the frame sized on its own) made
  28.3 / 69.6 / 93.8 and 25.6 / 64.7 / 72.5.  The float64 candidate
  stack the integer screen replaced made 39.6 / 75.0 / 104.7 and 34.5 /
  67.3 / 86.0; the live loop before that, which analysed and placed one
  frame at a time, made 127.9 Python-level and 176.4 C calls; a
  ``MotionSearch`` built per frame adds four ``repro`` calls a P-frame.
* The share of searched blocks the exact search settles in float64
  because its integer screen left two candidates in the running: 30 of
  12,376 (0.24 %), in 119 searches with the video's plane bounds.
* The ``tracemalloc`` peak of one warm encode: 0.94 MB with the analysis
  pass (one frame batch of its ``int16`` stacks), 0.81 MB without (with
  up to 64 KiB of P-frames awaiting their sizes).
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

import pytest

import repro
import repro.codec.motion as motion
from repro.codec.encoder import VideoEncoder
from repro.datasets.generator import build_dataset

FRAMES = 120

#: ``repro`` / all Python-level / C calls per frame, and traced peak bytes.
ANALYSE_FIRST_CEILINGS = (24.5, 55.0, 74.0, 1_100_000)
GIVEN_PASS_CEILINGS = (22.0, 50.0, 52.0, 900_000)
#: Blocks settled in float64 per block searched.
SETTLE_SHARE_CEILING = 0.005

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

    def test_settle_share(self, clip, monkeypatch):
        settled, searched = [0], [0]
        settle = motion.MotionSearch._settle
        search = motion.MotionSearch._search_exact

        def counted_settle(self, reference, current, running, tied, *rest):
            settled[0] += int(tied.sum())
            return settle(self, reference, current, running, tied, *rest)

        def counted_search(self, reference, current, *bounds):
            field = search(self, reference, current, *bounds)
            searched[0] += field.vectors.shape[0] * field.vectors.shape[1]
            return field

        monkeypatch.setattr(motion.MotionSearch, "_settle", counted_settle)
        # The entry the encoder calls, with the video's plane bounds.
        monkeypatch.setattr(motion.MotionSearch, "_search_exact", counted_search)
        encoder = VideoEncoder()
        encoder.encode(clip, activities=encoder.analyze(clip))
        assert searched[0] == 119 * 8 * 13
        assert settled[0] / searched[0] <= SETTLE_SHARE_CEILING, settled
