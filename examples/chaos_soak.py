#!/usr/bin/env python3
"""Chaos soak: replay a seeded fault storm and prove the service heals.

Where ``streaming_service.py`` demonstrates the happy path, this example
draws a **seeded fault plan** (two edge crashes — one permanent, one
transient — a WAN partition window and a camera stream stall) and replays
it against the live service.  It asserts the whole self-healing contract:

1. **Zero lost chunks** — every chunk accepted by the service completes
   or is failed out with a reason; the drain terminates.
2. **Full accounting** — the recovery counters match the injected plan:
   both crashes seen, the transient edge restarted, sessions failed over
   off the dead edge, the stalled session reaped by the watchdog, and
   every failed-over stream accounted at its final edge in the report.
3. **Determinism** — the virtual-clock and real-time runs produce the
   *identical* recovery trace and fleet report; CI runs this example
   twice and diffs the ``--trace-out`` files verbatim.

Run with:  python examples/chaos_soak.py [--seed 7] [--speedup 400]
                                         [--edges 3] [--cameras 6]
                                         [--chunks 6] [--trace-out FILE]
"""

from __future__ import annotations

import argparse
from typing import List, Tuple

from repro.cluster import CameraJob
from repro.faults import FaultPlan, ResilienceConfig
from repro.logging_utils import configure_logging
from repro.rng import make_rng
from repro.service import (ChunkFeeder, ClockDriver, RealTimeClock,
                           StreamingService, TenantPolicy, VirtualClock,
                           chunk_camera_job)

TOLERANCE = 1e-6

#: Virtual seconds between a camera's consecutive chunk pushes.
PERIOD_SECONDS = 0.5

#: Narrow per-session in-flight bound: makes stalls observable (pushes
#: bounce once the stalled uplink wedges) so the watchdog can see them.
MAX_PENDING_CHUNKS = 2

#: Self-healing knobs shared by every soak run.
RESILIENCE = ResilienceConfig(stall_timeout_seconds=1.0,
                              watchdog_period_seconds=0.25,
                              breaker_cooldown_seconds=1.0)


def build_camera_plans(num_cameras: int, num_chunks: int,
                       seed: int) -> List[Tuple[str, list]]:
    """Deterministic per-camera chunk plans, drawn from the seeded tree."""
    plans = []
    for index in range(num_cameras):
        camera = f"cam-{index:02d}"
        rng = make_rng(seed, "chaos", camera)
        frames = int(rng.integers(180, 300))
        job = CameraJob(
            camera=camera, video=f"stream:{camera}",
            num_frames=frames,
            frames_for_inference=max(frames // 10, 1),
            edge_seconds=float(rng.uniform(0.25, 0.45)) * num_chunks,
            cloud_seconds=float(rng.uniform(0.08, 0.15)) * num_chunks,
            camera_edge_bytes=int(rng.uniform(0.5e6, 1.0e6)) * num_chunks,
            edge_cloud_bytes=int(rng.uniform(0.6e5, 1.2e5)) * num_chunks,
        )
        plans.append((camera, chunk_camera_job(job, num_chunks)))
    return plans


def run_service_soak(plans, plan: FaultPlan, num_edges: int,
                     clock: ClockDriver) -> StreamingService:
    """Feed every camera through the storm and drain to completion."""
    service = StreamingService(
        num_edge_servers=num_edges, clock=clock, faults=plan,
        resilience=RESILIENCE,
        max_sessions=len(plans) + 8,
        tenants=(TenantPolicy(name="cams", max_sessions=len(plans) + 8,
                              max_pending_chunks=MAX_PENDING_CHUNKS),))
    for index, (camera, chunks) in enumerate(plans):
        service.open_session(camera, tenant="cams")
        ChunkFeeder(service, camera, chunks,
                    period_seconds=PERIOD_SECONDS).start(at=0.1 * index)
    service.drain()
    return service


def assert_zero_lost_chunks(service: StreamingService) -> None:
    for session in service.ingest.sessions.values():
        if session.in_flight != 0:
            raise AssertionError(
                f"session {session.session_id!r} still has "
                f"{session.in_flight} chunks in flight after the drain")
        accounted = session.chunks_completed + session.chunks_failed
        if session.chunks_pushed != accounted:
            raise AssertionError(
                f"session {session.session_id!r} lost chunks: "
                f"{session.chunks_pushed} pushed, {accounted} accounted")


def assert_recovery_census(service: StreamingService,
                           plan: FaultPlan) -> None:
    """The counters must match the storm the plan actually injected."""
    stats = service.fault_stats()
    if stats is None:
        raise AssertionError("the storm left no fault statistics at all")
    expected_crashes = len(plan.edge_crashes)
    expected_restarts = sum(1 for crash in plan.edge_crashes
                            if not crash.permanent)
    checks = (
        ("crashes_seen", stats.crashes_seen, expected_crashes),
        ("edges_restarted", stats.edges_restarted, expected_restarts),
        ("wan_partitions", stats.wan_partitions,
         len(plan.wan_degradations)),
        ("stream_stalls", stats.stream_stalls, len(plan.stream_stalls)),
    )
    for name, got, expected in checks:
        if got != expected:
            raise AssertionError(f"{name}: expected {expected}, got {got}")
    if any(crash.permanent for crash in plan.edge_crashes):
        if stats.sessions_relocated < 1:
            raise AssertionError("permanent crash relocated no sessions")
    if plan.stream_stalls and stats.sessions_stalled < 1:
        raise AssertionError("the stall tripped no watchdog close")
    if stats.chunks_dropped != 0:
        raise AssertionError(f"{stats.chunks_dropped} chunks dropped")
    # Failed-over streams are accounted at their final edge.
    report = service.fleet_report()
    for session in service.ingest.sessions.values():
        if report.assignments[session.camera] != session.edge_index:
            raise AssertionError(
                f"report places {session.camera!r} on edge "
                f"{report.assignments[session.camera]}, session is on "
                f"{session.edge_index}")


def trace_document(service: StreamingService) -> List[str]:
    """The deterministic lines CI diffs across same-seed runs."""
    lines = ["# recovery trace"]
    lines.extend(service.recovery_trace.lines())
    lines.append("# fault counters")
    stats = service.fault_stats()
    for name, value in sorted((stats.as_dict() if stats else {}).items()):
        lines.append(f"{name}={value}")
    lines.append("# close reasons")
    for reason, count in sorted(service.ingest.close_reasons.items()):
        lines.append(f"{reason}={count}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7,
                        help="root seed of the workload and the fault plan "
                             "(default: 7)")
    parser.add_argument("--speedup", type=float, default=400.0,
                        help="real-time speedup for the paced run "
                             "(default: 400)")
    parser.add_argument("--edges", type=int, default=3,
                        help="edge servers (default: 3)")
    parser.add_argument("--cameras", type=int, default=6,
                        help="camera streams (default: 6)")
    parser.add_argument("--chunks", type=int, default=6,
                        help="chunks each camera pushes (default: 6)")
    parser.add_argument("--trace-out", type=str, default=None,
                        help="write the deterministic recovery trace to "
                             "this file (CI diffs two same-seed runs)")
    arguments = parser.parse_args()
    if arguments.edges < 3 or arguments.cameras < 3 or arguments.chunks < 2:
        parser.error("need --edges >= 3, --cameras >= 3, --chunks >= 2")
    configure_logging()

    plans = build_camera_plans(arguments.cameras, arguments.chunks,
                               arguments.seed)
    horizon = PERIOD_SECONDS * arguments.chunks + 1.0
    plan = FaultPlan.seeded(
        arguments.seed, num_edge_servers=arguments.edges,
        cameras=tuple(camera for camera, _ in plans),
        horizon_seconds=horizon)
    print(f"storm (seed {arguments.seed}): "
          f"{len(plan.edge_crashes)} edge crashes, "
          f"{len(plan.wan_degradations)} WAN partition(s), "
          f"{len(plan.stream_stalls)} stream stall(s) over "
          f"{arguments.cameras} cameras x {arguments.chunks} chunks on "
          f"{arguments.edges} edges\n")

    print("=== virtual clock (reference) ===")
    baseline = run_service_soak(plans, plan, arguments.edges,
                                VirtualClock())
    assert_zero_lost_chunks(baseline)
    assert_recovery_census(baseline, plan)
    stats = baseline.fault_stats()
    print(f"drained in {baseline.wall_run_seconds * 1e3:.1f} wall ms; "
          f"{stats.sessions_relocated} session(s) failed over, "
          f"{stats.sessions_stalled} reaped by the watchdog, "
          f"{stats.chunks_failed_over} chunk submissions requeued, "
          f"0 chunks lost\n")

    print(f"=== real-time clock (speedup {arguments.speedup:g}x) ===")
    live = run_service_soak(plans, plan, arguments.edges,
                            RealTimeClock(speedup=arguments.speedup))
    assert_zero_lost_chunks(live)
    mismatches = baseline.fleet_report().parity_mismatches(
        live.fleet_report(), TOLERANCE)
    mismatches += baseline.recovery_trace.mismatches(live.recovery_trace)
    mismatches += baseline.fault_stats().mismatches(live.fault_stats())
    if mismatches:
        raise AssertionError("real-time soak diverged from the virtual "
                             "reference: " + "; ".join(mismatches))
    print(f"drained in {live.wall_run_seconds:.2f} wall s; recovery trace, "
          f"fault counters and fleet report identical to the virtual run\n")

    document = trace_document(baseline)
    print("\n".join(["", "=== recovery trace ==="] + document))
    if arguments.trace_out:
        with open(arguments.trace_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(document) + "\n")
        print(f"\ntrace written to {arguments.trace_out}")


if __name__ == "__main__":
    main()
