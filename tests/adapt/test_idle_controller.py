"""An installed but idle adaptive controller changes nothing.

Scene-less chunks never reach the drift monitor, so a service built with
``adaptive=AdaptiveConfig()`` must report exactly what the controller-less
service reports — same floats, same counters — and never retune.
"""

from repro.adapt import AdaptiveConfig
from repro.service import ChunkFeeder, FrameChunk, StreamingService

NUM_CAMERAS = 8
NUM_CHUNKS = 4


def run_service(adaptive):
    service = StreamingService(num_edge_servers=2, adaptive=adaptive)
    chunks = [FrameChunk(num_frames=30, frames_for_inference=3,
                         edge_seconds=0.05, cloud_seconds=0.02,
                         camera_edge_bytes=500_000, edge_cloud_bytes=60_000)
              for _ in range(NUM_CHUNKS)]
    for index in range(NUM_CAMERAS):
        camera = f"cam-{index}"
        service.open_session(camera)
        ChunkFeeder(service, camera, list(chunks),
                    period_seconds=0.2).start(at=0.01 * index)
    service.drain()
    return service


def test_scene_less_chunks_leave_the_report_bit_identical():
    plain = run_service(adaptive=None)
    idle = run_service(adaptive=AdaptiveConfig())
    report = idle.fleet_report()
    assert report.parity_mismatches(plain.fleet_report(), 0.0) == []
    assert report.total_frames == NUM_CAMERAS * NUM_CHUNKS * 30
    assert idle.scheduler.events_processed == plain.scheduler.events_processed
    assert idle.adaptive.retunes_applied == 0
    assert idle.status().retune_counters == {}
