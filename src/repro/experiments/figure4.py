"""Figure 4: end-to-end throughput of the five deployment baselines.

The paper processes 20 hours of pre-recorded footage (5 videos) under five
deployments and reports frames per second as a function of how many videos
are processed (1, 3, 5).  This harness builds one workload per dataset
(semantic + default encodings, MSE threshold, uniform interval) and replays
the deployments through the calibrated 3-tier simulation.

Expected shape: the three semantic-encoding deployments beat uniform
sampling and MSE filtering; the 3-tier deployment (I-frame seeking on the
edge, NN in the cloud) is the fastest overall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..core.deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from ..core.pipeline import (DeploymentReport, EndToEndSimulation,
                             VideoWorkload)
from ..datasets.registry import ALL_DATASETS
from .common import ExperimentConfig, WorkloadBuilder, format_table

#: The corpus sizes on Figure 4's x-axis.
DEFAULT_VIDEO_COUNTS: Sequence[int] = (1, 3, 5)


def build_workloads(config: ExperimentConfig = ExperimentConfig(),
                    dataset_names: Sequence[str] = ALL_DATASETS,
                    system_config: Optional[SystemConfig] = None
                    ) -> List[VideoWorkload]:
    """Prepare the per-video workloads used by Figures 4 and 5.

    Workloads come from the in-process cache of
    :mod:`repro.experiments.common`, so a repeat preparation in the same
    process (the Figure 5 harness after this one) renders, tunes and
    encodes nothing.  With ``system_config.build_workers > 1`` the
    per-dataset builds fan out across worker processes through
    :class:`~repro.experiments.common.WorkloadBuilder`; the result equals
    the serial build.
    """
    return WorkloadBuilder(config, system_config).build_workloads(
        dataset_names, split="full")


def run(workloads: Optional[List[VideoWorkload]] = None,
        config: ExperimentConfig = ExperimentConfig(),
        dataset_names: Sequence[str] = ALL_DATASETS,
        video_counts: Sequence[int] = DEFAULT_VIDEO_COUNTS,
        modes: Sequence[DeploymentMode] = ALL_DEPLOYMENT_MODES,
        system_config: Optional[SystemConfig] = None,
        num_edge_servers: int = 1,
        placement: str = "round-robin"
        ) -> Dict[DeploymentMode, Dict[int, DeploymentReport]]:
    """Run the Figure 4 sweep on the discrete-event fleet scheduler.

    The default single edge server reproduces the paper's testbed; larger
    ``num_edge_servers`` shard the corpus across a simulated fleet (the
    busy-time totals, and hence this figure's throughput metric, are
    schedule-invariant — the fleet effects show up in each report's
    ``fleet`` field).

    Returns:
        ``{mode: {num_videos: report}}``.
    """
    system_config = system_config or SystemConfig()
    if workloads is None:
        workloads = build_workloads(config, dataset_names, system_config)
    video_counts = [count for count in video_counts if count <= len(workloads)]
    simulation = EndToEndSimulation(workloads, system_config,
                                    num_edge_servers=num_edge_servers,
                                    placement=placement)
    results: Dict[DeploymentMode, Dict[int, DeploymentReport]] = {}
    for mode in modes:
        results[mode] = simulation.throughput_vs_corpus_size(mode, video_counts)
    return results


def as_rows(results: Dict[DeploymentMode, Dict[int, DeploymentReport]]
            ) -> List[Dict[str, object]]:
    """Flatten the Figure 4 results into table rows."""
    rows = []
    for mode, per_count in results.items():
        for count, report in sorted(per_count.items()):
            rows.append({
                "deployment": mode.label,
                "num_videos": count,
                "throughput_fps": report.throughput_fps,
                "frames": report.total_frames,
                "inference_frames": report.frames_for_inference,
            })
    return rows


def render(results: Dict[DeploymentMode, Dict[int, DeploymentReport]]) -> str:
    """Format the Figure 4 series as text."""
    return format_table(as_rows(results),
                        ["deployment", "num_videos", "throughput_fps", "frames",
                         "inference_frames"],
                        title="Figure 4: end-to-end throughput (fps)")
