"""Dataset instantiation helpers: train/test splits and cached builds.

The paper uses the first half of every labelled feed to tune encoder
parameters (and the baselines' thresholds) and the second half for
evaluation.  :func:`build_dataset`'s ``split`` reproduces that protocol for
the synthetic stand-ins: the train and test clips come from the same scene
profile but with different schedule seeds, i.e. the same camera on
different days.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rng import derive_seed
from ..video.raw_video import VideoSource
from ..video.scenarios import DEFAULT_RENDER_SCALE
from ..video.synthetic import SceneProfile, SyntheticScene
from .registry import DatasetSpec, get_dataset


@dataclass
class DatasetInstance:
    """A rendered dataset clip plus its provenance.

    Attributes:
        spec: The Table I dataset this clip stands in for.
        profile: The scene profile actually rendered.
        video: The generated video (its ``timeline`` carries ground truth).
        split: ``"train"``, ``"test"`` or ``"full"``.
    """

    spec: DatasetSpec
    profile: SceneProfile
    video: VideoSource
    split: str = "full"

    @property
    def timeline(self):
        """Ground-truth event timeline of the clip."""
        return self.video.timeline

    @property
    def name(self) -> str:
        """Dataset name."""
        return self.spec.name


def build_dataset(name: str, duration_seconds: float = 120.0,
                  render_scale: float = DEFAULT_RENDER_SCALE,
                  seed: Optional[int] = None, split: str = "full") -> DatasetInstance:
    """Build one synthetic clip standing in for a Table I dataset.

    Args:
        name: Dataset name.
        duration_seconds: Clip length.
        render_scale: Resolution scale applied to the nominal resolution.
        seed: Scene schedule seed (defaults to a split-specific derivation).
        split: Label recorded on the instance (``"train"``/``"test"``/``"full"``).

    Returns:
        The built :class:`DatasetInstance`.
    """
    spec = get_dataset(name)
    if seed is None:
        seed = derive_seed(1000, name, split)
    profile = spec.build_profile(duration_seconds=duration_seconds,
                                 render_scale=render_scale, seed=seed)
    video = SyntheticScene(profile).video()
    return DatasetInstance(spec=spec, profile=profile, video=video, split=split)

