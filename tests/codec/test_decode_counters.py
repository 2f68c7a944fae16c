"""What a full decode costs, counted rather than timed.

Counts repeat exactly on any machine, so they can gate what a shared
runner's wall clock cannot resolve.  The clip is the one
``tests/codec/test_encode_counters.py`` counts — 120 frames of
``coral_reef`` at render scale 0.08 (58 x 102), materialised — encoded
with payloads at ``gop_size=30``: I-frames 0, 30, 60 and 90, 42,863 bytes,
so the 32 KiB window budget cuts it into frames 0-90 (four I-frames) and
91-119 (P-frames only).

* Calls per frame of ``decode_video``, counted with ``sys.setprofile`` and
  the collector off: Python-level calls into ``repro`` itself, all
  Python-level calls, and C calls.  The first count does not depend on the
  numpy version, so its ceiling is the tight one.  The window decoder
  makes 8.68 ``repro`` / 13.21 Python-level / 15.02 C calls a frame; the
  run-at-a-time decoder it replaced made 12.53 / 28.11 / 26.07.  A
  ``np.zeros`` residual plane per coded frame adds 0.96 C calls.
* Token scans and inverse transforms: one scan for a window's stills, one
  scan and one inverse transform for its P-frames, so 3 and 2 here.
  Windows cut at every I-frame make 8 and 4.
* The ``tracemalloc`` peak of one warm decode: 2.86 MB — the decoded clip
  itself (0.75 MB of ``uint8`` planes), the decode's stack and its kept
  coefficient buffer (one window's coded blocks), and one window's token
  scan.  With the coefficient stages allocated per window instead it
  peaks at 5.07 MB.  (The run-at-a-time decoder, which allocated them per
  GOP, also peaked at 2.86 MB: windows are larger than GOPs.)
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

import pytest

import repro
import repro.codec.decoder as decoder_module
import repro.codec.entropy as entropy_module
from repro.codec import EncoderParameters, VideoDecoder, VideoEncoder
from repro.datasets.generator import build_dataset

FRAMES = 120

#: ``repro`` / all Python-level / C calls per frame.
CALL_CEILINGS = (9.0, 14.0, 15.6)
#: Traced peak bytes of one warm ``decode_video``.
PEAK_CEILING = 3_200_000

PACKAGE = os.path.dirname(repro.__file__)


@pytest.fixture(scope="module")
def encoded():
    video = build_dataset("coral_reef", FRAMES / 30.0, 0.08,
                          seed=0).video.materialise()
    assert video.frame(0).data.shape == (58, 102)
    encoded = VideoEncoder(EncoderParameters(gop_size=30)).encode(
        video, materialise_payload=True)
    assert encoded.keyframe_indices == [0, 30, 60, 90]
    return encoded


def _windows(encoded):
    """The frames of each window, cut by the byte budget alone."""
    windows, stop = [], 0
    while stop < encoded.num_frames:
        start, window_bytes = stop, 0
        while (stop < encoded.num_frames
               and window_bytes < decoder_module._WINDOW_BYTES):
            window_bytes += encoded.frames[stop].size_bytes
            stop += 1
        windows.append(encoded.frames[start:stop])
    return windows


def _calls(decode):
    """(``repro``, all Python-level, C) calls of one ``decode()``."""
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
        decode()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return tuple(counts)


class TestWhatADecodeCosts:
    def test_calls_per_frame(self, encoded):
        decoder = VideoDecoder()
        decoder.decode_video(encoded)
        calls = _calls(lambda: decoder.decode_video(encoded))
        assert calls == _calls(lambda: decoder.decode_video(encoded))
        per_frame = tuple(count / FRAMES for count in calls)
        for name, count, ceiling in zip(("repro", "Python-level", "C"),
                                        per_frame, CALL_CEILINGS):
            assert count <= ceiling, (name, per_frame)

    def test_one_scan_per_batch_and_one_transform_per_window(
            self, encoded, monkeypatch):
        windows = _windows(encoded)
        assert [(window[0].index, window[-1].index) for window in windows] \
            == [(0, 90), (91, 119)]
        with_stills = sum(any(frame.is_keyframe for frame in window)
                          for window in windows)
        with_p_frames = sum(not all(frame.is_keyframe for frame in window)
                            for window in windows)
        calls = {"scan": 0, "idct": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(entropy_module, "_token_positions",
                            counted("scan", entropy_module._token_positions))
        # The decoder looks the DCT matrix up once per inverse transform.
        monkeypatch.setattr(decoder_module, "dct_matrix",
                            counted("idct", decoder_module.dct_matrix))
        VideoDecoder().decode_video(encoded)
        assert calls == {"scan": with_stills + with_p_frames,
                         "idct": with_p_frames} == {"scan": 3, "idct": 2}

    def test_traced_peak_of_a_warm_decode(self, encoded):
        decoder = VideoDecoder()
        decoder.decode_video(encoded)
        tracemalloc.start()
        try:
            decoder.decode_video(encoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_CEILING, peak
