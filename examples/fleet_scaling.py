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

The ``--workers`` axis executes the same sweep through the multiprocess
fleet layer (``SystemConfig.fleet_workers``): per-edge pipelines are
simulated in worker processes and merged deterministically, and the example
asserts every report matches the single-process run exactly.
Table I workloads come from the shared on-disk cache (``REPRO_CACHE_DIR``),
so a second run skips rendering and tuning entirely; ``--build-workers N``
builds a cold cache in parallel through
:class:`repro.parallel.WorkloadBuilder` (byte-identical artifacts).

``--precision fast`` builds the workloads through the float32 fast paths
(merged NN GEMMs, dot-product SADs with the exact-argmin tie fallback)
under the :data:`repro.contracts.FAST_CONTRACT` accuracy budget; the
default ``exact`` keeps every kernel bit-identical to the seed.

``--scale-cameras N`` switches to a synthetic N-camera fleet (no workload
rendering) and times the single-process run against the sharded one at the
largest ``--workers`` count, parity-checked; ``--min-speedup`` turns that
comparison into a hard gate (the CI fleet-scaling lane sets it).  Nothing
else about the sharded run is selectable: edges are dealt to the workers
longest first and the per-job arrays travel over shared memory where the
platform has it (the pool's pickle channel where it does not — the JSON
artifact records which).  ``--json-out`` writes the sweep + comparison as
a JSON artifact; ``--store`` round-trips every report through the
persistent :class:`repro.cluster.SQLiteResultStore` and verifies the
content-integrity hashes.

Run with:  python examples/fleet_scaling.py [--workers 1,2,4]
                                            [--build-workers 2]
                                            [--precision exact|fast]
                                            [--scale-cameras 64]
                                            [--json-out sweep.json]
                                            [--store results.sqlite]
"""

from __future__ import annotations

import argparse
import json
import time

from repro import SystemConfig
from repro.contracts import PRECISION_MODES
from repro.cluster import (CameraJob, FleetOrchestrator, PlacementPolicy,
                           SQLiteResultStore)
from repro.core import DeploymentMode, build_workload, plan_camera_job
from repro.datasets import ALL_DATASETS, DatasetSpec
from repro.datasets.generator import DatasetInstance
from repro.experiments import ExperimentConfig
from repro.logging_utils import configure_logging
from repro.parallel import WorkloadBuilder, pick_transport
from repro.video import RESOLUTION_720P, SyntheticScene, make_scenario

#: Fleet size of the sweep (acceptance floor: at least 16 cameras).
NUM_CAMERAS = 16

#: Edge-server counts on the sweep's x-axis.
EDGE_COUNTS = (1, 2, 4, 8)

#: Footage scale (kept small so the example runs in well under a minute).
DURATION_SECONDS = 12.0
RENDER_SCALE = 0.06

#: Reports across worker counts must agree to this tolerance: the sharded
#: run performs the same float operations, so they are bit-identical.
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


def run_sweep(jobs, config: SystemConfig, fleet_workers: int,
              verbose: bool = True):
    """Run the edges x policies sweep; returns ``{(policy, edges): report}``."""
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
            report = FleetOrchestrator(jobs, num_edge_servers=num_edges,
                                       config=config, policy=policy,
                                       fleet_workers=fleet_workers).run()
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


def timed_run(jobs, config: SystemConfig, num_edges: int, workers: int):
    """One fleet run under ``config``; returns ``(report, wall_seconds)``."""
    orchestrator = FleetOrchestrator(jobs, num_edge_servers=num_edges,
                                     config=config, fleet_workers=workers)
    started = time.perf_counter()
    report = orchestrator.run()
    return report, time.perf_counter() - started


def run_scale_comparison(num_cameras: int, num_edges: int, workers: int,
                         config: SystemConfig, min_speedup: float):
    """Time the single-process run against the sharded one.

    Both must produce the same report; only the wall clock may differ.
    Returns the comparison row for the JSON artifact; raises when the
    sharded run fails the ``--min-speedup`` gate.
    """
    jobs = synthetic_jobs(num_cameras)
    serial_report, serial_wall = timed_run(jobs, config, num_edges, workers=1)
    sharded_report, sharded_wall = timed_run(jobs, config, num_edges, workers)
    mismatches = serial_report.parity_mismatches(sharded_report, TOLERANCE)
    if mismatches:
        raise AssertionError("the sharded run diverged from the serial run: "
                             + "; ".join(mismatches))
    speedup = serial_wall / sharded_wall if sharded_wall > 0 else 0.0
    transport = pick_transport().kind
    print(f"--- scale comparison: {num_cameras} cameras, {num_edges} edges, "
          f"fleet_workers={workers} ---")
    print(f"  serial reference : {serial_wall * 1e3:8.1f} ms")
    print(f"  sharded          : {sharded_wall * 1e3:8.1f} ms  "
          f"(transport: {transport})")
    print(f"  speedup vs serial: {speedup:8.2f}x")
    print("  parity           : the sharded report equals the serial one "
          f"(tolerance {TOLERANCE:g})")
    if speedup < min_speedup:
        raise AssertionError(
            f"sharded speedup {speedup:.2f}x vs serial is below "
            f"the --min-speedup gate {min_speedup:.2f}x")
    return {
        "num_cameras": num_cameras,
        "num_edges": num_edges,
        "fleet_workers": workers,
        "serial_wall_seconds": serial_wall,
        "sharded_wall_seconds": sharded_wall,
        "speedup_vs_serial": speedup,
        "transport": transport,
    }


def store_reports(path: str, reports) -> None:
    """Round-trip every sweep report through the persistent SQLite store."""
    with SQLiteResultStore(path) as store:
        for (policy, num_edges), report in reports.items():
            run_id = f"{policy}-{num_edges}edges"
            store.store_fleet_report(run_id, report)
            summary = store.report_summary(run_id)
            if summary["metrics"] != json.loads(
                    json.dumps(report.as_dict())):
                raise AssertionError(f"store round-trip diverged for {run_id}")
        problems = store.verify_integrity()
        if problems:
            raise AssertionError("result store failed its integrity check: "
                                 + "; ".join(problems))
        print(f"Stored {len(reports)} reports in {path} "
              f"({len(store.run_ids())} runs, integrity verified).")


def assert_reports_match(baseline, candidate, workers: int) -> None:
    """Every metric of every report must match the single-process run."""
    for key, report in baseline.items():
        mismatches = report.parity_mismatches(candidate[key], TOLERANCE)
        if mismatches:
            raise AssertionError(
                f"fleet_workers={workers} diverged at {key}: "
                + "; ".join(mismatches))


def parse_workers(spec: str):
    counts = sorted({int(part) for part in spec.split(",") if part.strip()})
    if not counts or counts[0] < 1:
        raise argparse.ArgumentTypeError(
            f"--workers needs positive worker counts, got {spec!r}")
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=parse_workers, default=[1],
        help="comma-separated fleet_workers counts to sweep (default: 1); "
             "multi-process runs are asserted equal to the serial run")
    parser.add_argument(
        "--build-workers", type=int, default=1,
        help="worker processes for the cold workload build (default: 1, "
             "0 = auto-size from os.cpu_count()); parallel builds write "
             "byte-identical cache artifacts")
    parser.add_argument(
        "--precision", choices=sorted(PRECISION_MODES), default="exact",
        help="numeric mode of the workload build: 'exact' (default, "
             "bit-identical hot paths) or 'fast' (float32 kernels under "
             "the FAST_CONTRACT accuracy budget)")
    parser.add_argument(
        "--scale-cameras", type=int, default=0, metavar="N",
        help="also run the synthetic N-camera scale comparison (no "
             "workload rendering): single-process vs sharded over the "
             "largest --workers count, parity-checked")
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless the scale comparison's speedup vs the serial "
             "reference reaches this factor (default: 0 = report only; "
             "the CI fleet-scaling lane gates on it)")
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the sweep tables + scale comparison as a JSON artifact")
    parser.add_argument(
        "--store", metavar="PATH",
        help="round-trip every sweep report through the persistent SQLite "
             "result store at PATH and verify its content-integrity hashes")
    arguments = parser.parse_args()
    if arguments.build_workers < 0:
        parser.error("--build-workers must be >= 0 (0 = auto)")
    if arguments.scale_cameras < 0:
        parser.error("--scale-cameras must be >= 0")
    configure_logging()
    config = SystemConfig(precision=arguments.precision)
    print(f"Numeric contract: {config.contract.describe()}")
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

    worker_counts = list(arguments.workers)
    if worker_counts[0] != 1:
        worker_counts.insert(0, 1)  # the parity baseline
    baseline = None
    for workers in worker_counts:
        print(f"=== fleet_workers={workers} ===")
        reports = run_sweep(jobs, config, workers)
        if baseline is None:
            baseline = reports
        else:
            assert_reports_match(baseline, reports, workers)
            print(f"fleet_workers={workers}: all "
                  f"{len(reports)} reports equal the single-process run.\n")
    print("Aggregate throughput is monotonically non-decreasing in the "
          "number of edge servers for every placement policy.")

    comparison = None
    if arguments.scale_cameras:
        comparison = run_scale_comparison(
            arguments.scale_cameras, max(EDGE_COUNTS),
            max(worker_counts), config, arguments.min_speedup)

    if arguments.store:
        store_reports(arguments.store, baseline)

    if arguments.json_out:
        artifact = {
            "config": {
                "precision": config.precision,
                "worker_counts": worker_counts,
            },
            "sweep": [
                {"policy": policy, "num_edges": num_edges,
                 **report.as_dict()}
                for (policy, num_edges), report in sorted(baseline.items())
            ],
            "scale_comparison": comparison,
        }
        with open(arguments.json_out, "w", encoding="utf-8") as stream:
            json.dump(artifact, stream, indent=2, sort_keys=True)
        print(f"Wrote sweep artifact to {arguments.json_out}.")


if __name__ == "__main__":
    main()
