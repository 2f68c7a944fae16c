"""Table III: speed of event detection (frames per second).

The paper measures how many frames per second each event-detection front end
sustains: SiEVE (I-frame seeking on metadata), MSE and SIFT (full decode of
every frame plus the similarity computation).  The measured hardware is not
available here, so the primary numbers come from the calibrated cost model
evaluated at each dataset's *nominal* resolution; the experiment also
measures the wall-clock throughput of this library's own implementations on
a short clip, which preserves the same ordering (seeking is orders of
magnitude cheaper than decode-based filtering).

Expected shape: SiEVE is ~100-170x faster than MSE and SIFT on every
dataset, with absolute fps decreasing as resolution grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.costmodel import CostModel
from ..codec.encoder import VideoEncoder
from ..codec.gop import EncoderParameters
from ..codec.iframe_seeker import IFrameSeeker
from ..datasets.registry import LABELLED_DATASETS, get_dataset
from ..vision.mse import MseChangeDetector
from ..vision.sift import SiftChangeDetector
from ..vision.similarity import score_video
from .common import (ExperimentConfig, WorkloadBuilder, format_table,
                     prepare_dataset)


@dataclass
class Table3Row:
    """One dataset row of Table III.

    Attributes:
        dataset: Dataset name.
        sieve_fps: Simulated SiEVE (I-frame seeking) throughput.
        mse_fps: Simulated decode+MSE throughput.
        sift_fps: Simulated decode+SIFT throughput.
        sieve_speedup_vs_mse: Ratio of the two.
        sieve_speedup_vs_sift: Ratio of the two.
        measured_sieve_fps: Wall-clock seeking throughput of this library.
        measured_mse_fps: Wall-clock MSE throughput of this library.
        measured_sift_fps: Wall-clock SIFT throughput of this library.
    """

    dataset: str
    sieve_fps: float
    mse_fps: float
    sift_fps: float
    sieve_speedup_vs_mse: float
    sieve_speedup_vs_sift: float
    measured_sieve_fps: Optional[float] = None
    measured_mse_fps: Optional[float] = None
    measured_sift_fps: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Dictionary view used by the table formatter."""
        row: Dict[str, object] = {
            "dataset": self.dataset,
            "sieve_fps": self.sieve_fps,
            "mse_fps": self.mse_fps,
            "sift_fps": self.sift_fps,
            "speedup_vs_mse": self.sieve_speedup_vs_mse,
            "speedup_vs_sift": self.sieve_speedup_vs_sift,
        }
        if self.measured_sieve_fps is not None:
            row.update({
                "measured_sieve_fps": self.measured_sieve_fps,
                "measured_mse_fps": self.measured_mse_fps,
                "measured_sift_fps": self.measured_sift_fps,
            })
        return row


def simulated_row(dataset_name: str, cost_model: Optional[CostModel] = None
                  ) -> Table3Row:
    """Build one Table III row from the calibrated cost model."""
    cost_model = cost_model or CostModel()
    spec = get_dataset(dataset_name)
    resolution = spec.nominal_resolution
    sieve = cost_model.event_detection_fps("sieve", resolution)
    mse = cost_model.event_detection_fps("mse", resolution)
    sift = cost_model.event_detection_fps("sift", resolution)
    return Table3Row(dataset=dataset_name, sieve_fps=sieve, mse_fps=mse,
                     sift_fps=sift, sieve_speedup_vs_mse=sieve / mse,
                     sieve_speedup_vs_sift=sieve / sift)


def measured_row(row: Table3Row, config: ExperimentConfig) -> Table3Row:
    """Augment a simulated row with wall-clock measurements of this library."""
    prepared = prepare_dataset(row.dataset, config)
    video = prepared.video
    num_frames = video.metadata.num_frames

    encoded = VideoEncoder(EncoderParameters()).encode(
        video, activities=prepared.activities, materialise_payload=False)
    serialized = encoded.serialize()
    seeker = IFrameSeeker()
    start = time.perf_counter()
    seeker.seek_serialized(serialized)
    seek_elapsed = max(time.perf_counter() - start, 1e-9)

    start = time.perf_counter()
    score_video(MseChangeDetector(), video)
    mse_elapsed = max(time.perf_counter() - start, 1e-9)

    start = time.perf_counter()
    score_video(SiftChangeDetector(), video)
    sift_elapsed = max(time.perf_counter() - start, 1e-9)

    row.measured_sieve_fps = num_frames / seek_elapsed
    row.measured_mse_fps = num_frames / mse_elapsed
    row.measured_sift_fps = num_frames / sift_elapsed
    return row


def run(config: ExperimentConfig = ExperimentConfig(),
        measure_wallclock: bool = False) -> List[Table3Row]:
    """Run Table III over the labelled datasets.

    The wall-clock measurements run on prepared clips from the in-process
    cache.
    """
    rows = []
    names = list(config.datasets or LABELLED_DATASETS)
    if measure_wallclock:
        # Prepare every measured clip up front; measured_row then hits the
        # cache.
        WorkloadBuilder(config).prepare_datasets(names)
    for name in names:
        row = simulated_row(name)
        if measure_wallclock:
            row = measured_row(row, config)
        rows.append(row)
    return rows


def render(rows: List[Table3Row]) -> str:
    """Format Table III as text."""
    columns = ["dataset", "sieve_fps", "mse_fps", "sift_fps",
               "speedup_vs_mse", "speedup_vs_sift"]
    if rows and rows[0].measured_sieve_fps is not None:
        columns += ["measured_sieve_fps", "measured_mse_fps", "measured_sift_fps"]
    return format_table([row.as_dict() for row in rows], columns,
                        title="Table III: event-detection speed (fps)")
