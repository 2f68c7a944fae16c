#!/usr/bin/env python3
"""Scale the 3-tier deployment from one edge server to a fleet.

Builds a fleet of cameras (every Table I feed plus the new ``highway``
scenario, cycled until the requested fleet size), plans each camera's
3-tier job under the paper's best deployment (I-frame seeking on the edge,
NN in the cloud), and sweeps the number of edge servers and the placement
policy through the discrete-event fleet simulator: aggregate throughput,
per-tier utilisation, WAN queue depths and end-to-end latency percentiles.

With one edge server the fleet degenerates to the paper's testbed; adding
edge servers must never reduce aggregate throughput (the sweep asserts it).
Every sweep report is also computed by the event loop the fleet's
recurrence is defined by, and the two must be equal exactly.
Table I workloads come from the shared on-disk cache (``REPRO_CACHE_DIR``),
so a second run skips rendering and tuning entirely; ``--build-workers N``
builds a cold cache in parallel through
:class:`repro.parallel.WorkloadBuilder` (byte-identical artifacts).

``--scale-cameras N`` adds four synthetic N-camera fleets (no workload
rendering): a heterogeneous one on 64 edges, N identical cameras with no
arrival jitter on 8 edges, whose every delivery ties across the edges, the
same identical cameras on 8 edges of two workers each, and the
heterogeneous fleet again with 48 cloud workers behind its 64 edges.  The
first two run every edge station on one worker; the third takes the
recurrence's multi-worker path at the edges too; in the fourth a job
waits for a cloud worker now and then, so the cloud alternates between
closed-form stretches and heap segments.  Each runs through the event
loop and through the recurrence: both wall times are printed and the
reports must be equal exactly.  ``--json-out``
writes the sweep + comparisons as a JSON artifact.

Run with:  python examples/fleet_scaling.py [--build-workers 2]
                                            [--scale-cameras 64]
                                            [--json-out sweep.json]
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional

from repro import SystemConfig
from repro.cluster import CameraJob, FleetOrchestrator, PlacementPolicy
from repro.core import DeploymentMode, build_workload, plan_camera_job
from repro.datasets import ALL_DATASETS, DatasetSpec
from repro.datasets.generator import DatasetInstance
from repro.experiments import ExperimentConfig
from repro.logging_utils import configure_logging
from repro.parallel import WorkloadBuilder
from repro.video import RESOLUTION_720P, SyntheticScene, make_scenario

#: Fleet size of the sweep (acceptance floor: at least 16 cameras).
NUM_CAMERAS = 16

#: Edge-server counts on the sweep's x-axis.
EDGE_COUNTS = (1, 2, 4, 8)

#: Footage scale (kept small so the example runs in well under a minute).
DURATION_SECONDS = 12.0
RENDER_SCALE = 0.06

#: Edge servers of the heterogeneous and the tied ``--scale-cameras`` fleet.
SCALE_EDGES = 64
TIED_EDGES = 8
#: Cloud workers of the fourth ``--scale-cameras`` fleet: fewer than its
#: edges, so some jobs wait for one.
SCARCE_CLOUD_WORKERS = 48

#: The recurrence performs the event loop's float operations, so its
#: reports equal the loop's bit for bit.
TOLERANCE = 0.0

#: The ``highway`` scenario is not in Table I; this spec gives it the same
#: nominal-resolution cost accounting the registry datasets get.
HIGHWAY_SPEC = DatasetSpec(
    name="highway", objects=("car", "truck"),
    nominal_resolution=RESOLUTION_720P, fps=30.0, paper_duration_hours=4.0,
    description="fast vehicles crossing a highway overpass", has_labels=False)


def build_fleet_workloads(config: SystemConfig, build_workers: int = 1):
    """One workload per distinct feed: the five Table I datasets + highway.

    Table I feeds go through the shared workload cache (in-process + disk
    under ``REPRO_CACHE_DIR``) via :class:`repro.parallel.WorkloadBuilder`
    — with ``build_workers > 1`` the cold builds fan out across worker
    processes and still produce byte-identical cache artifacts.  The
    ad-hoc highway scenario is built directly since it has no registry
    entry to key a cache artifact on.
    """
    experiment_config = ExperimentConfig(
        duration_seconds=DURATION_SECONDS, render_scale=RENDER_SCALE,
        datasets=tuple(ALL_DATASETS))
    builder = WorkloadBuilder(experiment_config, config,
                              build_workers=build_workers)
    workloads = builder.build_workloads(ALL_DATASETS, split="full")
    profile = make_scenario("highway", duration_seconds=DURATION_SECONDS,
                            render_scale=RENDER_SCALE)
    instance = DatasetInstance(spec=HIGHWAY_SPEC, profile=profile,
                               video=SyntheticScene(profile).video())
    workloads.append(build_workload(instance, config=config))
    return workloads


def run_sweep(jobs, config: SystemConfig, verbose: bool = True):
    """Run the edges x policies sweep; returns ``{(policy, edges): report}``.

    Every report is checked against the event loop's (``_run_chain``).
    """
    header = (f"{'edges':>5} {'policy':<16} {'makespan s':>10} {'fps':>9} "
              f"{'edge util':>9} {'cloud util':>10} {'wan q':>5} "
              f"{'p50 s':>7} {'p95 s':>7} {'p99 s':>7} {'wall ms':>8}")
    if verbose:
        print(header)
        print("-" * len(header))
    reports = {}
    for policy in PlacementPolicy:
        previous_fps = 0.0
        for num_edges in EDGE_COUNTS:
            orchestrator = FleetOrchestrator(jobs, num_edge_servers=num_edges,
                                             config=config, policy=policy)
            report = orchestrator.run()
            assert_reports_match(orchestrator._run_chain(), report,
                                 (policy.value, num_edges))
            reports[(policy.value, num_edges)] = report
            fps = report.aggregate_throughput_fps
            if verbose:
                print(f"{num_edges:>5} {policy.value:<16} "
                      f"{report.makespan_seconds:>10.2f} {fps:>9.1f} "
                      f"{report.mean_edge_utilisation:>9.2f} "
                      f"{report.cloud_tier.utilisation:>10.2f} "
                      f"{report.max_wan_queue_depth:>5d} "
                      f"{report.latency_percentiles[50]:>7.2f} "
                      f"{report.latency_percentiles[95]:>7.2f} "
                      f"{report.latency_percentiles[99]:>7.2f} "
                      f"{report.sim_wall_seconds * 1e3:>8.1f}")
            if fps + 1e-9 < previous_fps:
                raise AssertionError(
                    f"throughput regressed under {policy.value} at "
                    f"{num_edges} edges: {fps:.1f} < {previous_fps:.1f} fps")
            previous_fps = fps
        if verbose:
            print()
    return reports


def synthetic_jobs(count: int):
    """A deterministic heterogeneous fleet with no workload rendering.

    The scale benchmark wants thousands of cameras without paying for
    synthetic video generation; the job costs here follow fixed arithmetic
    progressions (no RNG), so every run sees exactly the same fleet.
    """
    jobs = []
    for index in range(count):
        spread = index % 7
        jobs.append(CameraJob(
            camera=f"scale-{index:04d}", video=f"feed-{spread}",
            num_frames=240 + 36 * spread, frames_for_inference=8 + spread,
            edge_seconds=0.35 + 0.11 * spread,
            cloud_seconds=0.22 + 0.05 * ((index * 3) % 5),
            camera_edge_bytes=600_000 + 1013 * index,
            edge_cloud_bytes=180_000 + 577 * spread))
    return jobs


def identical_jobs(count: int):
    """``count`` copies of one camera's job: with no arrival jitter every
    edge runs the same float timeline, so simultaneous events abound."""
    return [CameraJob(camera=f"tied-{index:04d}", video="feed-0",
                      num_frames=240, frames_for_inference=8,
                      edge_seconds=0.35, cloud_seconds=0.22,
                      camera_edge_bytes=600_000, edge_cloud_bytes=180_000)
            for index in range(count)]


def timed(run):
    """``(report, wall seconds)`` of one fleet run."""
    started = time.perf_counter()
    report = run()
    return report, time.perf_counter() - started


def run_scale_comparison(label: str, jobs, num_edges: int,
                         config: SystemConfig, edge_workers: int = 1,
                         cloud_workers: Optional[int] = None):
    """Time the event loop against the recurrence on a synthetic fleet.

    Both must produce the same report; only the wall clock may differ.
    Returns the comparison row for the JSON artifact.
    """
    orchestrator = FleetOrchestrator(jobs, num_edge_servers=num_edges,
                                     config=config, edge_workers=edge_workers,
                                     cloud_workers=cloud_workers)
    chain_report, chain_wall = timed(orchestrator._run_chain)
    report, wall = timed(orchestrator.run)
    assert_reports_match(chain_report, report, f"the {label} fleet")
    print(f"--- scale comparison: {len(jobs)} {label} cameras, "
          f"{num_edges} edges x {edge_workers} workers, "
          f"{orchestrator.cloud_workers} cloud workers ---")
    print(f"  event loop : {chain_wall * 1e3:8.1f} ms")
    print(f"  recurrence : {wall * 1e3:8.1f} ms  "
          f"({chain_wall / wall if wall > 0 else 0.0:.2f}x)")
    print("  parity     : the recurrence's report equals the event loop's "
          f"(tolerance {TOLERANCE:g})")
    return {
        "fleet": label,
        "num_cameras": len(jobs),
        "num_edges": num_edges,
        "edge_workers": edge_workers,
        "cloud_workers": orchestrator.cloud_workers,
        "chain_wall_seconds": chain_wall,
        "recurrence_wall_seconds": wall,
    }


def assert_reports_match(reference, candidate, label) -> None:
    """Every metric of ``candidate`` must match the event loop's report."""
    mismatches = reference.parity_mismatches(candidate, TOLERANCE)
    if mismatches:
        raise AssertionError(f"the recurrence diverged from the event loop "
                             f"at {label}: " + "; ".join(mismatches))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build-workers", type=int, default=1,
        help="worker processes for the cold workload build (default: 1); "
             "parallel builds write byte-identical cache artifacts")
    parser.add_argument(
        "--scale-cameras", type=int, default=0, metavar="N",
        help="also run four synthetic N-camera fleets (heterogeneous on 64 "
             "edges, identical on 8, identical on 8 with two workers each, "
             "heterogeneous on 64 edges with 48 cloud workers) through the "
             "event loop and the recurrence, parity-checked, and print both "
             "wall times")
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the sweep tables + scale comparison as a JSON artifact")
    arguments = parser.parse_args()
    if arguments.build_workers < 1:
        parser.error("--build-workers must be >= 1")
    if arguments.scale_cameras < 0:
        parser.error("--scale-cameras must be >= 0")
    configure_logging()
    config = SystemConfig()
    mode = DeploymentMode.IFRAME_EDGE_CLOUD_NN

    print(f"Preparing {NUM_CAMERAS}-camera fleet "
          f"({len(ALL_DATASETS)} Table I feeds + highway, cycled, "
          f"build_workers={arguments.build_workers})...")
    workloads = build_fleet_workloads(config, arguments.build_workers)
    jobs = []
    for index in range(NUM_CAMERAS):
        workload = workloads[index % len(workloads)]
        jobs.append(plan_camera_job(workload, mode,
                                    camera=f"cam-{index:02d}:{workload.name}"))
    total_frames = sum(job.num_frames for job in jobs)
    print(f"  {len(jobs)} cameras, {total_frames} frames, "
          f"{sum(job.edge_seconds for job in jobs):.1f} s edge work, "
          f"{sum(job.cloud_seconds for job in jobs):.1f} s cloud work\n")

    reports = run_sweep(jobs, config)
    print("Aggregate throughput is monotonically non-decreasing in the "
          "number of edge servers for every placement policy, and every "
          f"report equals the event loop's (tolerance {TOLERANCE:g}).")

    comparison = None
    if arguments.scale_cameras:
        count = arguments.scale_cameras
        comparison = [
            run_scale_comparison("heterogeneous", synthetic_jobs(count),
                                 SCALE_EDGES, config),
            run_scale_comparison("identical", identical_jobs(count),
                                 TIED_EDGES, config),
            run_scale_comparison("identical", identical_jobs(count),
                                 TIED_EDGES, config, edge_workers=2),
            run_scale_comparison("heterogeneous", synthetic_jobs(count),
                                 SCALE_EDGES, config,
                                 cloud_workers=SCARCE_CLOUD_WORKERS),
        ]

    if arguments.json_out:
        artifact = {
            "sweep": [
                {"policy": policy, "num_edges": num_edges,
                 **report.as_dict()}
                for (policy, num_edges), report in sorted(reports.items())
            ],
            "scale_comparison": comparison,
        }
        with open(arguments.json_out, "w", encoding="utf-8") as stream:
            json.dump(artifact, stream, indent=2, sort_keys=True)
        print(f"Wrote sweep artifact to {arguments.json_out}.")


if __name__ == "__main__":
    main()
