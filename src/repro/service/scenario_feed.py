"""Turn any scenario — or composition spec — into a streamable chunk feed.

``examples/drift_soak.py`` used to hard-code its render → analyse → chunk
pipeline against the ``drifting`` scenario.  This module is the library
form: give it any name :func:`~repro.video.scenarios.make_scenario`
accepts (including DSL specs such as ``"highway+rain+night_cycle"``) and
it renders the clip once, runs the scene-cut analysis pass, and slices
the result into scene-carrying :class:`FrameChunk` objects ready for
:meth:`StreamingService.push_frames` or a
:class:`~repro.service.feeder.ChunkFeeder`.

Everything downstream of the profile is deterministic, so two calls with
the same arguments produce byte-identical chunk sequences — the property
the soak examples' CI jobs diff on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..adapt import chunk_scene
from ..codec.scenecut import FrameActivity, SceneCutAnalyzer
from ..config import real_number, validate_precision, whole_number
from ..errors import ServiceError
from ..video.scenarios import make_scenario
from ..video.synthetic import SyntheticScene
from .session import FrameChunk

#: Seconds of footage per chunk; pushes paced at this period keep
#: decision times aligned with footage time.
DEFAULT_CHUNK_SECONDS = 2.0

#: Synthetic per-chunk pipeline costs — tiny, so every chunk drains well
#: before the next push and soaks never trip backpressure.
DEFAULT_EDGE_SECONDS = 0.05
DEFAULT_CLOUD_SECONDS = 0.02
DEFAULT_LAN_BYTES_PER_FRAME = 1200
DEFAULT_WAN_BYTES_PER_FRAME = 150


@dataclass(frozen=True)
class ClipAnalysis:
    """One rendered clip after the analysis pass.

    Attributes:
        activities: Per-frame scene-cut activities, in frame order.
        frame_labels: Per-frame ground-truth label sets.
        lumas: Per-frame mean luma (the drift detectors' brightness feed).
        fps: Frame rate of the rendered profile.
    """

    activities: Tuple[FrameActivity, ...]
    frame_labels: Tuple[frozenset, ...]
    lumas: Tuple[float, ...]
    fps: float


def analyse_scenario(name: str, duration_seconds: float,
                     render_scale: float, seed: Optional[int] = None,
                     precision: str = "exact") -> ClipAnalysis:
    """Render a scenario clip and run the analysis pass once.

    Args:
        name: Scenario name or composition spec
            (``"night+snow+dropout"``) — anything
            :func:`~repro.video.scenarios.make_scenario` accepts.
        duration_seconds: Clip length to render.
        render_scale: Resolution scale factor.
        seed: Optional schedule-seed override, forwarded to the scenario
            constructor.
        precision: Checked by :func:`~repro.config.validate_precision` and
            otherwise ignored: the analysis has one numeric mode.  The
            benchmark still passes it; ROADMAP item 18 removes it.
    """
    validate_precision(precision)
    profile = make_scenario(name, duration_seconds=duration_seconds,
                            render_scale=render_scale, seed=seed)
    scene = SyntheticScene(profile)
    labels = scene.script.frame_labels()
    lumas: List[float] = []

    def frames():
        for index in range(profile.num_frames):
            frame = scene.frame_array(index)
            lumas.append(float(np.asarray(frame, dtype=np.float64).mean()))
            yield frame

    # The rendered uint8 planes go to the analyser in batches.
    activities = SceneCutAnalyzer().analyze_frames(frames())
    return ClipAnalysis(activities=tuple(activities),
                        frame_labels=tuple(frozenset(f) for f in labels),
                        lumas=tuple(lumas), fps=profile.fps)


def chunk_analysis(analysis: ClipAnalysis,
                   chunk_seconds: float = DEFAULT_CHUNK_SECONDS,
                   edge_seconds: float = DEFAULT_EDGE_SECONDS,
                   cloud_seconds: float = DEFAULT_CLOUD_SECONDS,
                   lan_bytes_per_frame: int = DEFAULT_LAN_BYTES_PER_FRAME,
                   wan_bytes_per_frame: int = DEFAULT_WAN_BYTES_PER_FRAME,
                   ) -> List[FrameChunk]:
    """Slice an analysed clip into scene-carrying stream chunks.

    Trailing frames that do not fill a whole chunk are dropped, matching
    the paced feeders' expectation of uniform chunk durations.

    Raises:
        ServiceError: If ``chunk_seconds`` is not a real number (a bool is
            not one) that rounds to at least one frame at the clip's rate.
    """
    frames = real_number(chunk_seconds, "chunk_seconds",
                         ServiceError) * analysis.fps
    # round() raises on nan and inf (1e308 s at 30 fps among them), so they
    # are refused first.
    per_chunk = round(frames) if 0 < frames < math.inf else 0
    if per_chunk < 1:
        raise ServiceError(
            f"chunk_seconds must hold at least one frame at "
            f"{analysis.fps} fps, got {chunk_seconds!r}")
    whole_number(lan_bytes_per_frame, "lan_bytes_per_frame", ServiceError, 0)
    whole_number(wan_bytes_per_frame, "wan_bytes_per_frame", ServiceError, 0)
    num_chunks = len(analysis.activities) // per_chunk
    chunks = []
    for index in range(num_chunks):
        lo, hi = index * per_chunk, (index + 1) * per_chunk
        scene = chunk_scene(
            analysis.activities[lo:hi], analysis.frame_labels[lo:hi],
            mean_brightness=float(np.mean(analysis.lumas[lo:hi])))
        chunks.append(FrameChunk(
            num_frames=per_chunk,
            frames_for_inference=max(per_chunk // 20, 1),
            edge_seconds=edge_seconds,
            cloud_seconds=cloud_seconds,
            camera_edge_bytes=lan_bytes_per_frame * per_chunk,
            edge_cloud_bytes=wan_bytes_per_frame * per_chunk,
            scene=scene))
    return chunks
