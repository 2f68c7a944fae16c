"""Table II: semantic vs. default encoder parameters.

For every labelled dataset the paper compares the tuned ("semantic") encoder
configuration against x264's defaults (GOP=250, scenecut=40) in terms of
per-frame accuracy, sample size (SS) and F1 score, with parameters tuned on
the first half of the footage and evaluated on the second half.

Expected shape: the semantic configuration reaches >95 % accuracy at a
1-3.5 % sample size and a higher F1 than the default configuration, whose
accuracy collapses because its I-frames land wherever the GOP boundary
happens to fall rather than at event starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..codec.gop import DEFAULT_PARAMETERS, ActivityColumns, EncoderParameters
from ..core.metrics import evaluate_sampling
from ..core.tuner import SemanticEncoderTuner, TuningGrid
from ..parallel.workloads import WorkloadBuilder
from .common import ExperimentConfig, PreparedDataset, format_table


@dataclass
class Table2Row:
    """One dataset row of Table II.

    Attributes:
        dataset: Dataset name.
        semantic_parameters: The tuned configuration.
        semantic_accuracy: Accuracy of the tuned configuration on the test clip.
        semantic_sampling: Sample size (SS) of the tuned configuration.
        semantic_f1: F1 of the tuned configuration.
        default_accuracy: Accuracy of the default configuration.
        default_sampling: Sample size of the default configuration.
        default_f1: F1 of the default configuration.
    """

    dataset: str
    semantic_parameters: EncoderParameters
    semantic_accuracy: float
    semantic_sampling: float
    semantic_f1: float
    default_accuracy: float
    default_sampling: float
    default_f1: float

    def as_dict(self) -> Dict[str, object]:
        """Dictionary view used by the table formatter."""
        return {
            "dataset": self.dataset,
            "tuned_params": self.semantic_parameters.describe(),
            "sem_acc": self.semantic_accuracy,
            "sem_ss_pct": 100.0 * self.semantic_sampling,
            "sem_f1": self.semantic_f1,
            "def_acc": self.default_accuracy,
            "def_ss_pct": 100.0 * self.default_sampling,
            "def_f1": self.default_f1,
        }


def run_dataset(train: PreparedDataset, test: PreparedDataset,
                grid: Optional[TuningGrid] = None,
                default_parameters: EncoderParameters = DEFAULT_PARAMETERS
                ) -> Table2Row:
    """Produce one Table II row: tune on ``train``, evaluate on ``test``."""
    tuner = SemanticEncoderTuner(grid or TuningGrid())
    tuning = tuner.tune_from_activities(train.activities, train.timeline, train.name)
    semantic_parameters = tuning.best_parameters

    columns = ActivityColumns(test.activities)
    semantic_keyframes = columns.keyframe_indices(semantic_parameters)
    default_keyframes = columns.keyframe_indices(default_parameters)
    semantic_score = evaluate_sampling(test.timeline, semantic_keyframes)
    default_score = evaluate_sampling(test.timeline, default_keyframes)
    return Table2Row(
        dataset=test.name,
        semantic_parameters=semantic_parameters,
        semantic_accuracy=semantic_score.accuracy,
        semantic_sampling=semantic_score.sampling_fraction,
        semantic_f1=semantic_score.f1,
        default_accuracy=default_score.accuracy,
        default_sampling=default_score.sampling_fraction,
        default_f1=default_score.f1,
    )


def run(config: ExperimentConfig = ExperimentConfig(),
        grid: Optional[TuningGrid] = None,
        build_workers: Optional[int] = None) -> List[Table2Row]:
    """Run Table II over every labelled dataset in ``config``.

    The train/test clips of every dataset are independent cache entries,
    so with ``build_workers > 1`` the whole ``datasets x splits`` matrix
    renders concurrently through :class:`repro.parallel.WorkloadBuilder`.
    """
    builder = WorkloadBuilder(config, build_workers=build_workers)
    matrix = builder.prepare_dataset_splits(config.datasets,
                                            splits=("train", "test"))
    rows: List[Table2Row] = []
    for name in config.datasets:
        train = matrix[(name, "train")]
        test = matrix[(name, "test")]
        if train.timeline is None or test.timeline is None:
            continue
        rows.append(run_dataset(train, test, grid))
    return rows


def render(rows: List[Table2Row]) -> str:
    """Format Table II as text."""
    return format_table([row.as_dict() for row in rows],
                        ["dataset", "tuned_params", "sem_acc", "sem_ss_pct",
                         "sem_f1", "def_acc", "def_ss_pct", "def_f1"],
                        title="Table II: semantic vs default encoder parameters")
