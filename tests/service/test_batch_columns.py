"""The batch commit's integer columns past what int64 holds.

The commit sums each session's frame counts and bytes in Python's
integers, over slices of one column a field.  A feed whose totals pass
2**63 must leave the state the event loop leaves, bit for bit, on the
batch.
"""

from __future__ import annotations

from repro.service import (ChunkFeeder, FrameChunk, StreamingService,
                           VirtualClock)
from test_batch_drain import counting_loop_entries, force_loop, observed

#: Three to a session: the frame totals pass 2**63; the byte totals stay
#: below it (a session's report refuses more), but the six chunks' bytes
#: together do not.
HUGE = FrameChunk(num_frames=2 ** 62, frames_for_inference=2 ** 62 - 1,
                  edge_seconds=0.5, cloud_seconds=0.25,
                  camera_edge_bytes=2 ** 61, edge_cloud_bytes=2 ** 61 + 1)


def drained(loop):
    service = StreamingService(num_edge_servers=2, clock=VirtualClock())
    if loop:
        force_loop(service)
    for index, camera in enumerate(("a", "b")):
        service.open_session(camera, edge_index=index)
        ChunkFeeder(service, camera, [HUGE] * 3,
                    period_seconds=1.0).start(at=0.5 * index)
    return observed(service, service.drain())


def test_totals_past_int64_equal_the_loop():
    with counting_loop_entries() as entered:
        batch = drained(loop=False)
        assert not entered
        loop = drained(loop=True)
        assert len(entered) == 6
    assert batch == loop
    assert [(session["frames_pushed"], session["camera_edge_bytes_pushed"])
            for session in batch["sessions"]] == [(3 * 2 ** 62,
                                                   3 * 2 ** 61)] * 2
