"""Dataset registry mirroring Table I of the paper.

Each :class:`DatasetSpec` records the paper's nominal properties of a dataset
(objects, resolution, fps, duration, whether ground-truth labels exist) and
knows how to build the synthetic stand-in video at an experiment-friendly
duration and render scale.  The nominal resolution is what the simulated
cost model and the data-transfer accounting use, so the reproduced tables
keep realistic magnitudes even though the rendered pixel planes are smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DatasetError
from ..video.frame import (RESOLUTION_1080P, RESOLUTION_400P, RESOLUTION_720P,
                           Resolution)
from ..video.scenarios import (DEFAULT_DURATION_SECONDS, DEFAULT_RENDER_SCALE,
                               make_scenario)
from ..video.synthetic import SceneProfile


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table I.

    Attributes:
        name: Dataset name (also the scenario name).
        objects: Object classes appearing in the feed.
        nominal_resolution: Resolution of the original footage.
        fps: Frame rate of the original footage.
        paper_duration_hours: Footage length used by the paper.
        description: Table I description.
        has_labels: Whether ground-truth object labels are available (the
            first three datasets).
    """

    name: str
    objects: Tuple[str, ...]
    nominal_resolution: Resolution
    fps: float
    paper_duration_hours: float
    description: str
    has_labels: bool

    def build_profile(self, duration_seconds: float = DEFAULT_DURATION_SECONDS,
                      render_scale: float = DEFAULT_RENDER_SCALE,
                      seed: Optional[int] = None) -> SceneProfile:
        """Build the synthetic scene profile standing in for this dataset."""
        return make_scenario(self.name, duration_seconds=duration_seconds,
                             render_scale=render_scale, seed=seed)

    def size_scale_to_nominal(self, rendered: Resolution) -> float:
        """Factor converting rendered-resolution byte counts to nominal ones."""
        return self.nominal_resolution.pixels / rendered.pixels


#: The five datasets of Table I.
TABLE_I: Dict[str, DatasetSpec] = {
    "jackson_square": DatasetSpec(
        name="jackson_square", objects=("car", "bus", "truck"),
        nominal_resolution=RESOLUTION_400P, fps=30.0, paper_duration_hours=8.0,
        description="vehicles going back and forth in a public square",
        has_labels=True),
    "coral_reef": DatasetSpec(
        name="coral_reef", objects=("person",),
        nominal_resolution=RESOLUTION_720P, fps=30.0, paper_duration_hours=8.0,
        description="people watching coral reefs in an aquarium",
        has_labels=True),
    "venice": DatasetSpec(
        name="venice", objects=("boat",),
        nominal_resolution=RESOLUTION_1080P, fps=30.0, paper_duration_hours=8.0,
        description="boats moving in the lagoon",
        has_labels=True),
    "taipei": DatasetSpec(
        name="taipei", objects=("car", "person"),
        nominal_resolution=RESOLUTION_1080P, fps=30.0, paper_duration_hours=4.0,
        description="vehicles and people in a public square in Taipei",
        has_labels=False),
    "amsterdam": DatasetSpec(
        name="amsterdam", objects=("car", "person"),
        nominal_resolution=RESOLUTION_720P, fps=30.0, paper_duration_hours=4.0,
        description="road intersections in Amsterdam",
        has_labels=False),
}

#: Datasets with ground-truth labels (used by Figure 3 / Tables II-III).
LABELLED_DATASETS: Tuple[str, ...] = ("jackson_square", "coral_reef", "venice")

#: All dataset names in Table I order.
ALL_DATASETS: Tuple[str, ...] = tuple(TABLE_I)


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return TABLE_I[name]
    except KeyError as exc:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of {sorted(TABLE_I)}") from exc


def all_datasets() -> List[DatasetSpec]:
    """Specs of all five datasets."""
    return [TABLE_I[name] for name in ALL_DATASETS]
