#!/usr/bin/env python3
"""Compare the five end-to-end deployments of Section V-B.

Builds the five Table I camera feeds, prepares a workload for each (semantic
encoding, default encoding, tuned MSE threshold, matched uniform-sampling
interval), and replays every deployment mode through the simulated 3-tier
cluster: throughput, data transfer and accuracy per deployment.

Run with:  python examples/edge_cloud_deployment.py
"""

from __future__ import annotations

from repro import SystemConfig
from repro.core import ALL_DEPLOYMENT_MODES, EndToEndSimulation, build_workload
from repro.datasets import ALL_DATASETS, build_dataset
from repro.logging_utils import configure_logging


def main() -> None:
    configure_logging()
    config = SystemConfig()

    print("Preparing workloads for the five Table I feeds "
          "(semantic + default encodings, baseline thresholds)...")
    workloads = []
    for name in ALL_DATASETS:
        instance = build_dataset(name, duration_seconds=25, render_scale=0.08)
        workload = build_workload(instance, config=config)
        workloads.append(workload)
        print(f"  {name:<16} {workload.num_frames:5d} frames, "
              f"{workload.num_semantic_iframes:4d} I-frames, "
              f"semantic {workload.semantic_bytes / 1e6:7.1f} MB, "
              f"default {workload.default_bytes / 1e6:7.1f} MB")

    simulation = EndToEndSimulation(workloads, config)
    print(f"\n{'deployment':<34} {'fps':>9} {'edge s':>8} {'cloud s':>8} "
          f"{'xfer s':>8} {'edge->cloud GB':>15} {'accuracy':>9}")
    for mode in ALL_DEPLOYMENT_MODES:
        report = simulation.run(mode)
        accuracy = f"{report.accuracy:.3f}" if report.accuracy is not None else "  n/a"
        print(f"{mode.label:<34} {report.throughput_fps:>9.1f} "
              f"{report.edge_seconds:>8.1f} {report.cloud_seconds:>8.1f} "
              f"{report.transfer_seconds:>8.1f} "
              f"{report.edge_cloud_bytes / 1e9:>15.4f} {accuracy:>9}")


if __name__ == "__main__":
    main()
