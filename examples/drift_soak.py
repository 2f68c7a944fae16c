#!/usr/bin/env python3
"""Drift soak: a camera stream drifts into night and the service re-tunes.

Where ``chaos_soak.py`` proves the service heals from *infrastructure*
faults, this example proves it adapts to *content* drift.  The ``drifting``
scenario renders a highway feed whose illumination, flicker, sensor noise
and object contrast all morph daylight-to-night across the clip.  A tuner
frozen on the bright opening (the paper's offline protocol, Section IV)
slowly rots; the online :class:`~repro.adapt.AdaptiveTuningController`
detects the drift from per-chunk scene statistics, re-runs the cheap grid
search over its sliding window, and re-tunes the live session without
dropping it.  The soak asserts the whole contract:

1. **Adaptation wins** — the adaptive schedule's accuracy-vs-bitrate
   trajectory strictly beats the frozen baseline's F1 on the full clip.
2. **At least one retune applies** and the versioned history records it
   as auditable ``(time, trigger, old, new, score)`` entries.
3. **Determinism** — the virtual-clock and real-time runs produce
   *byte-identical* retune histories and parity-exact fleet reports; CI
   runs this example twice and diffs the ``--history-out`` files verbatim.
   The virtual run drains as one batch, the controller fed at its commit,
   and the real-time run on the event loop, so this is also batch == loop.

Any scenario name or composition spec works as the content source —
``--scenario drifting`` is the default, but e.g.
``--scenario highway+rain+night_cycle`` soaks the service on a DSL-composed
feed instead.

Run with:  python examples/drift_soak.py [--scenario drifting] [--seed 11]
                                         [--speedup 400]
                                         [--duration 60] [--scale 0.12]
                                         [--history-out FILE]
"""

from __future__ import annotations

import argparse
from typing import List, Sequence

import numpy as np

from repro.adapt import AdaptiveConfig
from repro.codec.gop import EncoderParameters, StreamingKeyframePlacer
from repro.core.metrics import evaluate_sampling
from repro.core.tuner import SemanticEncoderTuner
from repro.logging_utils import configure_logging
from repro.service import (ChunkFeeder, ClockDriver, FrameChunk,
                           RealTimeClock, StreamingService, VirtualClock,
                           analyse_scenario, chunk_analysis)
from repro.video.events import EventTimeline
from repro.video.frame import FrameType

TOLERANCE = 1e-6

CAMERA = "cam-drift"

#: Seconds of footage per pushed chunk; the feeder pushes one chunk per
#: this many *virtual* seconds, so decision times match footage time.
CHUNK_SECONDS = 2.0

#: Fraction of the clip the offline warm-up tune sees (the "training
#: split" a frozen deployment would have been tuned on).
WARMUP_FRACTION = 0.25


def warmup_tune(chunks: Sequence[FrameChunk]) -> EncoderParameters:
    """The frozen baseline: offline tune on the bright opening split."""
    warm = max(int(len(chunks) * WARMUP_FRACTION), 3)
    activities = [a for chunk in chunks[:warm] for a in chunk.scene.activities]
    labels = [l for chunk in chunks[:warm] for l in chunk.scene.frame_labels]
    result = SemanticEncoderTuner().tune_from_activities(
        activities, EventTimeline.from_frame_labels(labels))
    return result.best_parameters


def run_soak(chunks: Sequence[FrameChunk], frozen: EncoderParameters,
             clock: ClockDriver) -> StreamingService:
    """Stream the clip through an adaptive service and drain it."""
    service = StreamingService(
        clock=clock, adaptive=AdaptiveConfig(initial_parameters=frozen))
    service.open_session(CAMERA)
    ChunkFeeder(service, CAMERA, chunks,
                period_seconds=CHUNK_SECONDS).start(at=0.0)
    service.drain()
    return service


def applied_schedule(service: StreamingService, frozen: EncoderParameters,
                     num_chunks: int) -> List[EncoderParameters]:
    """Per-chunk parameters in force, reconstructed from the audit table.

    A retune recorded at virtual time ``t`` happened inside the push of
    chunk ``t / CHUNK_SECONDS`` and governs every *later* push — exactly
    the camera's view of the deployment.
    """
    schedule = [frozen] * num_chunks
    for record in service.adaptive.table.history(CAMERA):
        if record.trigger == "initial":
            continue
        first = int(round(record.time / CHUNK_SECONDS)) + 1
        for index in range(min(first, num_chunks), num_chunks):
            schedule[index] = record.new
    return schedule


def replay_metrics(chunks: Sequence[FrameChunk],
                   schedule: Sequence[EncoderParameters]):
    """Score a per-chunk parameter schedule over the whole clip."""
    placer = None
    keyframes: List[int] = []
    index = 0
    for chunk, parameters in zip(chunks, schedule):
        if placer is None:
            placer = StreamingKeyframePlacer(parameters)
        placer.parameters = parameters
        for activity in chunk.scene.activities:
            if placer.decide(activity) is FrameType.I:
                keyframes.append(index)
            index += 1
    labels = [l for chunk in chunks for l in chunk.scene.frame_labels]
    return evaluate_sampling(EventTimeline.from_frame_labels(labels),
                             keyframes)


def trajectory(chunks, frozen_schedule, adaptive_schedule,
               segment_chunks: int = 5) -> List[str]:
    """Accuracy-vs-bitrate trajectory, segment by segment."""
    lines = []
    for lo in range(0, len(chunks), segment_chunks):
        hi = min(lo + segment_chunks, len(chunks))
        frozen = replay_metrics(chunks[lo:hi], frozen_schedule[lo:hi])
        adaptive = replay_metrics(chunks[lo:hi], adaptive_schedule[lo:hi])
        lines.append(
            f"chunks {lo:2d}-{hi - 1:2d}: "
            f"frozen acc={frozen.accuracy:.4f} ss={frozen.sampling_fraction:.4f}"
            f" | adaptive acc={adaptive.accuracy:.4f} "
            f"ss={adaptive.sampling_fraction:.4f}")
    return lines


def history_document(service: StreamingService) -> List[str]:
    """The deterministic lines CI diffs across same-seed runs."""
    lines = ["# retune history"]
    lines.extend(service.adaptive.history_lines())
    lines.append("# retune counters")
    for name, value in sorted(service.adaptive.counters().items()):
        lines.append(f"{name}={value}")
    lines.append("# controller trace")
    lines.extend(service.adaptive.trace.lines())
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=str, default="drifting",
                        help="scenario name or composition spec, e.g. "
                             "highway+rain+night_cycle (default: drifting)")
    parser.add_argument("--seed", type=int, default=11,
                        help="scenario seed (default: 11)")
    parser.add_argument("--speedup", type=float, default=400.0,
                        help="real-time speedup for the paced run "
                             "(default: 400)")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="clip seconds (default: 60)")
    parser.add_argument("--scale", type=float, default=0.12,
                        help="render scale (default: 0.12)")
    parser.add_argument("--history-out", type=str, default=None,
                        help="write the deterministic retune history to "
                             "this file (CI diffs two same-seed runs)")
    arguments = parser.parse_args()
    configure_logging()

    print(f"rendering + analysing the {arguments.scenario!r} clip "
          f"({arguments.duration:g}s @ scale {arguments.scale:g}, "
          f"seed {arguments.seed}) ...")
    analysis = analyse_scenario(arguments.scenario, arguments.duration,
                                arguments.scale, seed=arguments.seed)
    chunks = chunk_analysis(analysis, chunk_seconds=CHUNK_SECONDS)
    frozen = warmup_tune(chunks)
    lumas, fps = analysis.lumas, analysis.fps
    print(f"{len(chunks)} chunks of {CHUNK_SECONDS:g}s; mean luma drifts "
          f"{lumas[0]:.0f} -> {np.mean(lumas[-int(fps):]):.0f}; "
          f"frozen warm-up tune: {frozen.describe()}\n")

    print("=== virtual clock (reference) ===")
    baseline = run_soak(chunks, frozen, VirtualClock())
    applied = baseline.adaptive.retunes_applied
    suppressed = baseline.adaptive.retunes_suppressed
    print(f"drained in {baseline.wall_run_seconds * 1e3:.1f} wall ms; "
          f"{applied} retune(s) applied, {suppressed} suppressed as "
          f"tie-equal no-ops\n")
    if applied < 1:
        raise AssertionError("the drift soak applied no retune at all")

    print(f"=== real-time clock (speedup {arguments.speedup:g}x) ===")
    live = run_soak(chunks, frozen,
                    RealTimeClock(speedup=arguments.speedup))
    mismatches = baseline.fleet_report().parity_mismatches(
        live.fleet_report(), TOLERANCE)
    if history_document(baseline) != history_document(live):
        mismatches.append("retune histories differ across clock drivers")
    if mismatches:
        raise AssertionError("real-time soak diverged from the virtual "
                             "reference: " + "; ".join(mismatches))
    print(f"drained in {live.wall_run_seconds:.2f} wall s; retune history "
          f"and fleet report identical to the virtual run\n")

    frozen_schedule = [frozen] * len(chunks)
    adaptive_schedule = applied_schedule(baseline, frozen, len(chunks))
    print("=== accuracy-vs-bitrate trajectory ===")
    for line in trajectory(chunks, frozen_schedule, adaptive_schedule):
        print(line)
    frozen_score = replay_metrics(chunks, frozen_schedule)
    adaptive_score = replay_metrics(chunks, adaptive_schedule)
    print(f"\nfull clip: frozen   acc={frozen_score.accuracy:.4f} "
          f"ss={frozen_score.sampling_fraction:.4f} "
          f"f1={frozen_score.f1:.4f}")
    print(f"full clip: adaptive acc={adaptive_score.accuracy:.4f} "
          f"ss={adaptive_score.sampling_fraction:.4f} "
          f"f1={adaptive_score.f1:.4f}")
    if not adaptive_score.f1 > frozen_score.f1:
        raise AssertionError(
            f"adaptive F1 {adaptive_score.f1:.4f} does not beat the frozen "
            f"baseline {frozen_score.f1:.4f}")
    print("adaptive beats frozen: "
          f"F1 +{adaptive_score.f1 - frozen_score.f1:.4f}")

    document = history_document(baseline)
    print("\n".join(["", "=== retune history ==="] + document))
    if arguments.history_out:
        with open(arguments.history_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(document) + "\n")
        print(f"\nhistory written to {arguments.history_out}")


if __name__ == "__main__":
    main()
