#!/usr/bin/env python3
"""SiEVE vs MSE vs SIFT event detection on one camera (Figure 3, one curve).

Sweeps the sampling budget and reports per-frame label accuracy for the three
event-detection front ends at matched sampling rates, plus the wall-clock
throughput of each front end as implemented in this library.

Run with:  python examples/event_detection_comparison.py
"""

from __future__ import annotations

import time

from repro.codec import EncoderParameters, VideoEncoder
from repro.core import evaluate_sampling
from repro.logging_utils import configure_logging
from repro.video import SyntheticScene, make_scenario
from repro.vision import (MseChangeDetector, SiftChangeDetector, ThresholdSampler,
                          score_video, threshold_for_sampling_fraction)


def main() -> None:
    configure_logging()
    profile = make_scenario("coral_reef", duration_seconds=40, render_scale=0.10)
    video = SyntheticScene(profile).video()
    timeline = video.timeline
    print(f"{video.metadata.name}: {video.metadata.num_frames} frames, "
          f"{timeline.num_events} events")

    # SiEVE points: sweep the scenecut threshold at a large GOP.
    activities = VideoEncoder().analyze(video)
    sieve_points = []
    for scenecut in (100.0, 200.0, 250.0, 300.0):
        parameters = EncoderParameters(gop_size=1000, scenecut_threshold=scenecut)
        encoded = VideoEncoder(parameters).encode(video, activities=activities)
        sieve_points.append(
            (parameters, evaluate_sampling(timeline, encoded.keyframe_indices)))

    # Baseline score series (each requires decoding every frame).
    start = time.perf_counter()
    mse_scores = score_video(MseChangeDetector(), video)
    mse_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sift_scores = score_video(SiftChangeDetector(), video)
    sift_seconds = time.perf_counter() - start

    print(f"\n{'sampling %':>11} {'SiEVE acc':>10} {'MSE acc':>9} {'SIFT acc':>9}")
    for parameters, sieve_score in sieve_points:
        fraction = sieve_score.sampling_fraction
        rows = {}
        for name, scores in (("mse", mse_scores), ("sift", sift_scores)):
            threshold = threshold_for_sampling_fraction(scores, fraction)
            samples = ThresholdSampler(threshold).sample(scores)
            rows[name] = evaluate_sampling(timeline, samples).accuracy
        print(f"{100 * fraction:>11.2f} {sieve_score.accuracy:>10.3f} "
              f"{rows['mse']:>9.3f} {rows['sift']:>9.3f}   "
              f"(SiEVE {parameters.describe()})")

    num_frames = video.metadata.num_frames
    print(f"\nBaseline wall-clock on this machine: "
          f"MSE {num_frames / mse_seconds:.0f} fps, "
          f"SIFT {num_frames / sift_seconds:.0f} fps "
          f"(both require decoding every frame; the I-frame seeker only reads "
          f"container metadata).")


if __name__ == "__main__":
    main()
