"""Figure 3: per-frame accuracy vs. percentage of sampled frames.

For every labelled dataset the paper sweeps the sampling budget from 0.5 % to
3.5 % of the frames and reports per-frame object-label accuracy for SiEVE,
SIFT matching and MSE differencing.  SiEVE's points come from different
(GOP, scenecut) configurations; the baselines' thresholds are tuned to match
each SiEVE sampling rate.

Expected shape (paper): SiEVE dominates both baselines at every sampling
rate and exceeds 95 % accuracy by ~3.5 %; MSE beats SIFT on the
small-object datasets (coral reef, venice) and loses on jackson square.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..codec.gop import ActivityColumns, EncoderParameters
from ..core.metrics import evaluate_sampling
from ..vision.mse import MseChangeDetector
from ..vision.sift import SiftChangeDetector
from ..vision.similarity import (ThresholdSampler, score_video,
                                 threshold_for_sampling_fraction)
from .common import (ExperimentConfig, PreparedDataset, WorkloadBuilder,
                     format_table)

#: SiEVE configurations swept to cover the 0.5 %-3.5 % sampling range: a
#: fine scenecut sweep at a large GOP plus the pure-GOP (scenecut-off)
#: configurations that give the smallest sampling rates.
DEFAULT_SIEVE_SWEEP: Sequence[EncoderParameters] = tuple(
    [EncoderParameters(gop_size=gop, scenecut_threshold=0.0)
     for gop in (200, 100)]
    + [EncoderParameters(gop_size=1000, scenecut_threshold=scenecut)
       for scenecut in (100.0, 150.0, 200.0, 225.0, 250.0, 300.0)]
)


@dataclass
class Figure3Point:
    """One point of one curve of Figure 3.

    Attributes:
        dataset: Dataset name.
        method: ``"sieve"``, ``"mse"`` or ``"sift"``.
        sampling_fraction: Fraction of frames sampled.
        accuracy: Per-frame label accuracy.
    """

    dataset: str
    method: str
    sampling_fraction: float
    accuracy: float

    def as_dict(self) -> Dict[str, object]:
        """Dictionary view used by the table formatter."""
        return {
            "dataset": self.dataset,
            "method": self.method,
            "sampling_pct": 100.0 * self.sampling_fraction,
            "accuracy": self.accuracy,
        }


def run_dataset(prepared: PreparedDataset,
                sieve_sweep: Sequence[EncoderParameters] = DEFAULT_SIEVE_SWEEP,
                include_sift: bool = True) -> List[Figure3Point]:
    """Produce the Figure 3 curves for one prepared dataset."""
    video = prepared.video
    timeline = prepared.timeline
    points: List[Figure3Point] = []

    # --- SiEVE: one point per encoder configuration -----------------------
    sieve_fractions: List[float] = []
    columns = ActivityColumns(prepared.activities)
    for parameters in sieve_sweep:
        keyframes = columns.keyframe_indices(parameters)
        score = evaluate_sampling(timeline, keyframes)
        sieve_fractions.append(score.sampling_fraction)
        points.append(Figure3Point(prepared.name, "sieve",
                                   score.sampling_fraction, score.accuracy))

    # --- Baselines: thresholds matched to SiEVE's sampling rates ----------
    detectors = {"mse": MseChangeDetector()}
    if include_sift:
        detectors["sift"] = SiftChangeDetector()
    for method, detector in detectors.items():
        scores = score_video(detector, video)
        for fraction in sieve_fractions:
            threshold = threshold_for_sampling_fraction(scores, fraction)
            samples = ThresholdSampler(threshold).sample(scores)
            score = evaluate_sampling(timeline, samples)
            points.append(Figure3Point(prepared.name, method,
                                       score.sampling_fraction, score.accuracy))
    return points


def run(config: ExperimentConfig = ExperimentConfig(),
        sieve_sweep: Sequence[EncoderParameters] = DEFAULT_SIEVE_SWEEP,
        include_sift: bool = True,
        prepared: Optional[Dict[str, PreparedDataset]] = None
        ) -> List[Figure3Point]:
    """Run the Figure 3 sweep over every labelled dataset in ``config``.

    Datasets not passed in ``prepared`` (render + analysis pass) come from
    the in-process prepared-dataset cache.
    """
    missing = [name for name in config.datasets
               if name not in (prepared or {})]
    built = (WorkloadBuilder(config).prepare_datasets(missing) if missing
             else {})
    points: List[Figure3Point] = []
    for name in config.datasets:
        dataset = (prepared or {}).get(name) or built[name]
        if dataset.timeline is None:
            continue
        points.extend(run_dataset(dataset, sieve_sweep, include_sift))
    return points


def summarize(points: Sequence[Figure3Point]) -> Dict[str, Dict[str, float]]:
    """Mean accuracy per (dataset, method) — the paper's "outperforms by X %"."""
    sums: Dict[tuple, List[float]] = {}
    for point in points:
        sums.setdefault((point.dataset, point.method), []).append(point.accuracy)
    summary: Dict[str, Dict[str, float]] = {}
    for (dataset, method), values in sums.items():
        summary.setdefault(dataset, {})[method] = sum(values) / len(values)
    return summary


def render(points: Sequence[Figure3Point]) -> str:
    """Format the Figure 3 points as a text table."""
    rows = [point.as_dict() for point in sorted(
        points, key=lambda p: (p.dataset, p.method, p.sampling_fraction))]
    return format_table(rows, ["dataset", "method", "sampling_pct", "accuracy"],
                        title="Figure 3: accuracy vs sampled frames")
