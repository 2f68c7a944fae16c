"""Figure 5: data transferred camera->edge and edge->cloud.

For the same five deployments as Figure 4, the paper reports how many bytes
move from the cameras to the edge tier and from the edge to the cloud.  The
headline observations this harness reproduces:

* the semantically encoded video shipped camera->edge is slightly larger
  (~12 % in the paper) than the default encoding because it holds more
  I-frames;
* shipping only the resized I-frames cuts the edge->cloud volume by roughly
  an order of magnitude (7x in the paper) compared to shipping the full
  video;
* the MSE deployment ships noticeably more than the I-frame deployment
  (~2.5x in the paper) because its threshold passes more frames.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..core.deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from ..core.pipeline import DeploymentReport, EndToEndSimulation, VideoWorkload
from ..datasets.registry import ALL_DATASETS
from .common import ExperimentConfig, format_table
from .figure4 import build_workloads


def run(workloads: Optional[List[VideoWorkload]] = None,
        config: ExperimentConfig = ExperimentConfig(),
        dataset_names: Sequence[str] = ALL_DATASETS,
        modes: Sequence[DeploymentMode] = ALL_DEPLOYMENT_MODES,
        system_config: Optional[SystemConfig] = None,
        num_edge_servers: int = 1,
        placement: str = "round-robin"
        ) -> Dict[DeploymentMode, DeploymentReport]:
    """Run the Figure 5 measurement (full corpus, every deployment).

    Runs on the discrete-event fleet scheduler; byte totals are placement-
    invariant, so this figure is unchanged by ``num_edge_servers``.
    Workloads come from :func:`repro.experiments.figure4.build_workloads`.
    """
    system_config = system_config or SystemConfig()
    if workloads is None:
        workloads = build_workloads(config, dataset_names, system_config)
    simulation = EndToEndSimulation(workloads, system_config,
                                    num_edge_servers=num_edge_servers,
                                    placement=placement)
    return {mode: simulation.run(mode) for mode in modes}


def as_rows(results: Dict[DeploymentMode, DeploymentReport]) -> List[Dict[str, object]]:
    """Flatten the Figure 5 results into table rows."""
    rows = []
    for mode, report in results.items():
        rows.append({
            "deployment": mode.label,
            "camera_edge_gb": report.camera_edge_bytes / 1e9,
            "edge_cloud_gb": report.edge_cloud_bytes / 1e9,
            "inference_frames": report.frames_for_inference,
        })
    return rows


def headline_ratios(results: Dict[DeploymentMode, DeploymentReport]) -> Dict[str, float]:
    """The three ratios the paper highlights in the Figure 5 discussion."""
    three_tier = results[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
    cloud_only = results[DeploymentMode.IFRAME_CLOUD_CLOUD_NN]
    mse = results[DeploymentMode.MSE_EDGE_CLOUD_NN]
    uniform = results[DeploymentMode.UNIFORM_EDGE_CLOUD_NN]
    ratios = {}
    if three_tier.edge_cloud_bytes > 0:
        ratios["full_video_over_iframes"] = (cloud_only.edge_cloud_bytes
                                             / three_tier.edge_cloud_bytes)
        ratios["mse_over_iframes"] = mse.edge_cloud_bytes / three_tier.edge_cloud_bytes
    if uniform.camera_edge_bytes > 0:
        ratios["semantic_over_default_camera_edge"] = (
            three_tier.camera_edge_bytes / uniform.camera_edge_bytes)
    return ratios


def render(results: Dict[DeploymentMode, DeploymentReport]) -> str:
    """Format the Figure 5 series as text."""
    table = format_table(as_rows(results),
                         ["deployment", "camera_edge_gb", "edge_cloud_gb",
                          "inference_frames"],
                         title="Figure 5: data transfer (GB)")
    ratios = headline_ratios(results)
    lines = [table, "", "Headline ratios:"]
    for key, value in sorted(ratios.items()):
        lines.append(f"  {key}: {value:.2f}x")
    return "\n".join(lines)
