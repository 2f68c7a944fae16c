"""The per-mode charge table, stated once in literal arithmetic.

Every other test of the stage charges compares one implementation with
another (``run`` vs ``run_serial``, ``plan_camera_job`` vs ``run_serial``).
Here the expected edge / cloud seconds and camera->edge / edge->cloud bytes
are written out from the :class:`HardwareCalibration` defaults — 0.43 ms
seek, 11 ms decode, 37 ms MSE and 6 ms still-image decode per 1080p frame,
1.5 ms resize, 150 / 45 ms NN on edge / cloud, cloud CPU 2.2x the edge —
for a hand-built workload (no codec, no rendering), and all three
statements of the table are held to them.
"""

import pytest

from repro import HardwareCalibration, SystemConfig
from repro.cluster import CostModel
from repro.core import (ALL_DEPLOYMENT_MODES, DeploymentMode,
                        EndToEndSimulation, plan_camera_job)
from repro.core.pipeline import VideoWorkload
from repro.video import RESOLUTION_1080P, RESOLUTION_720P

F = 1000            # frames
N, U, M = 40, 50, 60  # semantic I-frames, uniform samples, MSE samples
SEMANTIC_BYTES, DEFAULT_BYTES, RESIZED_BYTES = 9_000_000, 6_000_000, 20_000


def make_workload(resolution):
    return VideoWorkload(
        name="hand-built", num_frames=F, nominal_resolution=resolution,
        semantic_bytes=SEMANTIC_BYTES, default_bytes=DEFAULT_BYTES,
        semantic_iframe_bytes=3_000_000,
        semantic_samples=list(range(0, F, F // N)),
        mse_samples=list(range(M)), uniform_samples=list(range(0, F, F // U)),
        resized_frame_bytes=RESIZED_BYTES)


def expected_charges(mode, s):
    """(edge s, cloud s, camera->edge bytes, edge->cloud bytes); ``s`` is the
    pixel ratio to 1080p, which scales the per-pixel stages only."""
    return {
        DeploymentMode.IFRAME_EDGE_CLOUD_NN: (
            (0.43 * s * F + 6.0 * s * N + 1.5 * N) / 1e3,
            45 * N / 2.2 / 1e3,
            SEMANTIC_BYTES, N * RESIZED_BYTES),
        DeploymentMode.IFRAME_CLOUD_CLOUD_NN: (
            0.0,
            (0.43 * s * F + 6.0 * s * N + 1.5 * N + 45 * N) / 2.2 / 1e3,
            SEMANTIC_BYTES, SEMANTIC_BYTES),
        DeploymentMode.IFRAME_EDGE_EDGE_NN: (
            (0.43 * s * F + 6.0 * s * N + 1.5 * N + 150 * N) / 1e3,
            0.0,
            SEMANTIC_BYTES, 128 * N),
        DeploymentMode.UNIFORM_EDGE_CLOUD_NN: (
            (11.0 * s * F + 1.5 * U) / 1e3,
            45 * U / 2.2 / 1e3,
            DEFAULT_BYTES, U * RESIZED_BYTES),
        DeploymentMode.MSE_EDGE_CLOUD_NN: (
            (11.0 * s * F + 37.0 * s * F + 1.5 * M) / 1e3,
            45 * M / 2.2 / 1e3,
            DEFAULT_BYTES, M * RESIZED_BYTES),
    }[mode]


def charged(statement, workload, mode, config):
    """The four charges as one of the three implementations states them."""
    if statement == "plan_camera_job":
        result = plan_camera_job(workload, mode, CostModel(config.hardware))
    else:
        result = getattr(EndToEndSimulation([workload], config), statement)(mode)
    return (result.edge_seconds, result.cloud_seconds,
            result.camera_edge_bytes, result.edge_cloud_bytes)


STATEMENTS = ("plan_camera_job", "run_serial", "run")


@pytest.mark.parametrize("statement", STATEMENTS)
@pytest.mark.parametrize("resolution", (RESOLUTION_1080P, RESOLUTION_720P),
                         ids=("1080p", "720p"))
@pytest.mark.parametrize("mode", ALL_DEPLOYMENT_MODES, ids=lambda mode: mode.name)
def test_charges_match_the_literal_table(mode, resolution, statement):
    scale = resolution.pixels / (1920 * 1080)
    edge, cloud, camera_edge, edge_cloud = charged(
        statement, make_workload(resolution), mode, SystemConfig())
    want_edge, want_cloud, want_camera_edge, want_edge_cloud = \
        expected_charges(mode, scale)
    assert edge == pytest.approx(want_edge, rel=1e-12, abs=1e-15)
    assert cloud == pytest.approx(want_cloud, rel=1e-12, abs=1e-15)
    assert (camera_edge, edge_cloud) == (want_camera_edge, want_edge_cloud)


@pytest.mark.parametrize("statement", STATEMENTS)
@pytest.mark.parametrize("mode", ALL_DEPLOYMENT_MODES, ids=lambda mode: mode.name)
def test_tier_speed_scales_the_whole_tier(mode, statement):
    """``HardwareCalibration`` is the one source of the tier speeds: doubling
    a tier's CPU speed halves every charge on it, not just the NN term."""
    workload = make_workload(RESOLUTION_1080P)
    doubled = SystemConfig(hardware=HardwareCalibration(
        edge_speed_factor=2.0, cloud_speed_factor=4.4))
    edge, cloud, *_ = charged(statement, workload, mode, SystemConfig())
    fast_edge, fast_cloud, *_ = charged(statement, workload, mode, doubled)
    assert fast_edge == pytest.approx(edge / 2.0, rel=1e-12)
    assert fast_cloud == pytest.approx(cloud / 2.0, rel=1e-12)
