"""Benchmark harness for Figure 4 (end-to-end throughput of five deployments)."""

import pytest

from repro.core import DeploymentMode
from repro.experiments import figure4


@pytest.fixture(scope="module")
def workloads(bench_config_small):
    """Workloads over all five Table I datasets (shared with Figure 5)."""
    return figure4.build_workloads(bench_config_small)


def test_figure4(benchmark, workloads):
    """Replay the five deployments over 1/3/5 videos and print Figure 4."""
    results = benchmark(figure4.run, workloads)
    print()
    print(figure4.render(results))
    five_videos = {mode: reports[max(reports)] for mode, reports in results.items()}
    fps = {mode: report.throughput_fps for mode, report in five_videos.items()}
    # Paper shape: the three semantic-encoding deployments beat uniform
    # sampling and MSE filtering, and the 3-tier deployment is the fastest.
    assert fps[DeploymentMode.IFRAME_EDGE_CLOUD_NN] == max(fps.values())
    for semantic_mode in (DeploymentMode.IFRAME_EDGE_CLOUD_NN,
                          DeploymentMode.IFRAME_CLOUD_CLOUD_NN,
                          DeploymentMode.IFRAME_EDGE_EDGE_NN):
        assert fps[semantic_mode] > fps[DeploymentMode.UNIFORM_EDGE_CLOUD_NN]
        assert fps[semantic_mode] > fps[DeploymentMode.MSE_EDGE_CLOUD_NN]
    # Throughput grows with the corpus only sub-linearly in time, i.e. the
    # per-frame cost stays roughly constant across 1 -> 5 videos.
    three_tier = results[DeploymentMode.IFRAME_EDGE_CLOUD_NN]
    assert three_tier[max(three_tier)].total_frames > three_tier[min(three_tier)].total_frames
