"""Scenario profiles mirroring the paper's five datasets (Table I).

Each function returns a :class:`~repro.video.synthetic.SceneProfile` whose
event structure mirrors the description in Table I of the paper:

========================  ===================  ============  ==========================================
Dataset                   Objects              Resolution    Character
========================  ===================  ============  ==========================================
Jackson square            car, bus, truck      600x400       close-up vehicles, large apparent size
Coral reef                person               1280x720      people in an aquarium, small apparent size
Venice                    boat                 1920x1080     boats shot from far away, smallest objects
Taipei                    car, person          1920x1080     busy square, frequent events, unlabelled
Amsterdam                 car, person          1280x720      road intersection, unlabelled
========================  ===================  ============  ==========================================

The paper uses 8-hour videos for the labelled datasets and 4-hour videos for
the unlabelled ones.  Rendering hours of video is unnecessary for
reproducing the evaluation's *shape* — what matters is the number of events
and the per-event frame counts — so every constructor takes a
``duration_seconds`` and a ``render_scale``; the defaults give minutes-long
clips at a reduced resolution that keep the same relative object sizes and
event rates.  The dataset registry (:mod:`repro.datasets.registry`) records
the paper's nominal resolution and duration for cost modelling.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DatasetError
from .frame import RESOLUTION_1080P, RESOLUTION_400P, RESOLUTION_720P
from .synthetic import ObjectClassSpec, SceneProfile

#: Default rendered duration of a scenario clip, in seconds.
DEFAULT_DURATION_SECONDS = 120.0

#: Default scale factor applied to the paper's nominal resolution when
#: rendering pixels.  Object sizes are specified relative to the frame, so
#: the event/motion structure is unaffected.
DEFAULT_RENDER_SCALE = 0.16


def jackson_square(duration_seconds: float = DEFAULT_DURATION_SECONDS,
                   render_scale: float = DEFAULT_RENDER_SCALE,
                   seed: int = 1) -> SceneProfile:
    """Jackson town square: close-up cars, buses and trucks (600x400)."""
    classes = (
        (ObjectClassSpec("car", relative_height=0.30, aspect_ratio=2.2,
                         speed_fraction=0.22, brightness_delta=80.0), 0.7),
        (ObjectClassSpec("bus", relative_height=0.42, aspect_ratio=2.8,
                         speed_fraction=0.15, brightness_delta=95.0), 0.15),
        (ObjectClassSpec("truck", relative_height=0.38, aspect_ratio=2.5,
                         speed_fraction=0.17, brightness_delta=90.0), 0.15),
    )
    profile = SceneProfile(
        name="jackson_square",
        resolution=RESOLUTION_400P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=7.0,
        mean_dwell_seconds=5.0,
        noise_std=2.0,
        background_detail=22.0,
        illumination_drift=3.0,
        max_concurrent_objects=1,
        seed=seed,
    )
    return profile.scaled(render_scale)


def coral_reef(duration_seconds: float = DEFAULT_DURATION_SECONDS,
               render_scale: float = DEFAULT_RENDER_SCALE,
               seed: int = 2) -> SceneProfile:
    """Coral reef aquarium: people watching the tank, small apparent size (720p)."""
    classes = (
        (ObjectClassSpec("person", relative_height=0.12, aspect_ratio=0.45,
                         speed_fraction=0.12, brightness_delta=55.0,
                         shape="ellipse"), 1.0),
    )
    profile = SceneProfile(
        name="coral_reef",
        resolution=RESOLUTION_720P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=5.0,
        mean_dwell_seconds=7.0,
        noise_std=2.5,
        background_detail=30.0,
        illumination_drift=4.0,
        max_concurrent_objects=1,
        seed=seed,
    )
    return profile.scaled(render_scale)


def venice(duration_seconds: float = DEFAULT_DURATION_SECONDS,
           render_scale: float = DEFAULT_RENDER_SCALE,
           seed: int = 3) -> SceneProfile:
    """Venice lagoon: boats shot from a long distance, smallest objects (1080p)."""
    classes = (
        (ObjectClassSpec("boat", relative_height=0.06, aspect_ratio=3.0,
                         speed_fraction=0.08, brightness_delta=45.0), 1.0),
    )
    profile = SceneProfile(
        name="venice",
        resolution=RESOLUTION_1080P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=12.0,
        mean_dwell_seconds=9.0,
        noise_std=2.0,
        background_detail=18.0,
        illumination_drift=5.0,
        max_concurrent_objects=1,
        seed=seed,
    )
    return profile.scaled(render_scale)


def taipei(duration_seconds: float = DEFAULT_DURATION_SECONDS,
           render_scale: float = DEFAULT_RENDER_SCALE,
           seed: int = 4) -> SceneProfile:
    """Taipei public square: mixed cars and pedestrians, frequent events (1080p)."""
    classes = (
        (ObjectClassSpec("car", relative_height=0.18, aspect_ratio=2.2,
                         speed_fraction=0.25, brightness_delta=70.0), 0.6),
        (ObjectClassSpec("person", relative_height=0.10, aspect_ratio=0.45,
                         speed_fraction=0.10, brightness_delta=50.0,
                         shape="ellipse"), 0.4),
    )
    profile = SceneProfile(
        name="taipei",
        resolution=RESOLUTION_1080P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=4.0,
        mean_dwell_seconds=5.0,
        noise_std=2.5,
        background_detail=26.0,
        illumination_drift=3.0,
        max_concurrent_objects=2,
        seed=seed,
    )
    return profile.scaled(render_scale)


def amsterdam(duration_seconds: float = DEFAULT_DURATION_SECONDS,
              render_scale: float = DEFAULT_RENDER_SCALE,
              seed: int = 5) -> SceneProfile:
    """Amsterdam road intersection: cars and pedestrians (720p)."""
    classes = (
        (ObjectClassSpec("car", relative_height=0.20, aspect_ratio=2.3,
                         speed_fraction=0.28, brightness_delta=75.0), 0.7),
        (ObjectClassSpec("person", relative_height=0.11, aspect_ratio=0.45,
                         speed_fraction=0.11, brightness_delta=50.0,
                         shape="ellipse"), 0.3),
    )
    profile = SceneProfile(
        name="amsterdam",
        resolution=RESOLUTION_720P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=6.0,
        mean_dwell_seconds=4.0,
        noise_std=2.0,
        background_detail=24.0,
        illumination_drift=3.5,
        max_concurrent_objects=2,
        seed=seed,
    )
    return profile.scaled(render_scale)


def highway(duration_seconds: float = DEFAULT_DURATION_SECONDS,
            render_scale: float = DEFAULT_RENDER_SCALE,
            seed: int = 6) -> SceneProfile:
    """Highway overpass: fast cars and trucks in a steady stream (720p).

    Not part of the paper's Table I — added for the fleet-scaling workload,
    where a high event rate stresses the edge tier harder than the square
    and intersection feeds.
    """
    classes = (
        (ObjectClassSpec("car", relative_height=0.16, aspect_ratio=2.4,
                         speed_fraction=0.40, brightness_delta=72.0), 0.8),
        (ObjectClassSpec("truck", relative_height=0.24, aspect_ratio=2.9,
                         speed_fraction=0.32, brightness_delta=88.0), 0.2),
    )
    profile = SceneProfile(
        name="highway",
        resolution=RESOLUTION_720P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=3.0,
        mean_dwell_seconds=3.0,
        noise_std=2.5,
        background_detail=20.0,
        illumination_drift=2.5,
        max_concurrent_objects=2,
        seed=seed,
    )
    return profile.scaled(render_scale)


def night(duration_seconds: float = DEFAULT_DURATION_SECONDS,
          render_scale: float = DEFAULT_RENDER_SCALE,
          seed: int = 7) -> SceneProfile:
    """Night-time intersection under a flickering street lamp (720p).

    Not part of the paper's Table I — added as the adversarial profile for
    scene-cut detection: the scene is dark (low base brightness), the
    sensor is noisy, and a failing lamp makes the *whole frame's*
    brightness jump between consecutive frames.  Motion compensation
    cannot explain a global luma step, so a naive novelty measure would
    fire on every flicker; the encoder's novel-pixel threshold has to
    separate the sub-threshold flicker from genuine arrivals of the
    bright-headlight cars and dim pedestrians.  The flicker amplitude is
    deliberately *below* the novelty threshold while headlights are far
    above it.
    """
    classes = (
        (ObjectClassSpec("car", relative_height=0.20, aspect_ratio=2.3,
                         speed_fraction=0.24, brightness_delta=95.0), 0.6),
        (ObjectClassSpec("person", relative_height=0.11, aspect_ratio=0.45,
                         speed_fraction=0.10, brightness_delta=40.0,
                         shape="ellipse"), 0.4),
    )
    profile = SceneProfile(
        name="night",
        resolution=RESOLUTION_720P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=6.0,
        mean_dwell_seconds=4.0,
        noise_std=3.5,
        background_detail=16.0,
        texture_detail=20.0,
        illumination_drift=6.0,
        base_brightness=45.0,
        flicker_amplitude=9.0,
        max_concurrent_objects=2,
        seed=seed,
    )
    return profile.scaled(render_scale)


def drifting(duration_seconds: float = DEFAULT_DURATION_SECONDS,
             render_scale: float = DEFAULT_RENDER_SCALE,
             seed: int = 8) -> SceneProfile:
    """Highway feed drifting into night over the course of the clip (720p).

    Not part of the paper's Table I — this is the regime-change workload
    for the online adaptive tuner (:mod:`repro.adapt`).  It starts as the
    daylight ``highway`` stream and morphs, linearly over the clip, into
    the adversarial ``night`` regime: the global brightness falls
    110 → 45, a street-lamp flicker fades in to the night scenario's
    amplitude, sensor noise rises as the virtual gain cranks up, and —
    decisive for the tuner — the vehicles' luma contrast fades towards
    the background, so the scenecut threshold that detects every arrival
    at noon silently misses the dim ones at dusk.  A tune frozen on the
    opening minutes therefore degrades mid-clip, which is exactly the
    drift the detectors must catch and the re-tune must repair.
    """
    classes = (
        (ObjectClassSpec("car", relative_height=0.16, aspect_ratio=2.4,
                         speed_fraction=0.40, brightness_delta=72.0), 0.8),
        (ObjectClassSpec("truck", relative_height=0.24, aspect_ratio=2.9,
                         speed_fraction=0.32, brightness_delta=88.0), 0.2),
    )
    profile = SceneProfile(
        name="drifting",
        resolution=RESOLUTION_720P,
        fps=30.0,
        duration_seconds=duration_seconds,
        object_classes=classes,
        mean_gap_seconds=3.0,
        mean_dwell_seconds=3.0,
        noise_std=2.0,
        background_detail=20.0,
        illumination_drift=2.5,
        base_brightness=110.0,
        brightness_ramp=-65.0,
        flicker_ramp=9.0,
        noise_ramp=1.5,
        object_contrast_ramp=-0.55,
        max_concurrent_objects=2,
        seed=seed,
    )
    return profile.scaled(render_scale)


#: Mapping from scenario name to constructor.
SCENARIOS = {
    "jackson_square": jackson_square,
    "coral_reef": coral_reef,
    "venice": venice,
    "taipei": taipei,
    "amsterdam": amsterdam,
    "highway": highway,
    "night": night,
    "drifting": drifting,
}

#: Scenarios for which the paper has ground-truth object labels.
LABELLED_SCENARIOS = ("jackson_square", "coral_reef", "venice")

#: Scenarios the paper uses only in the end-to-end evaluation.
UNLABELLED_SCENARIOS = ("taipei", "amsterdam")


def make_scenario(name: str, duration_seconds: float = DEFAULT_DURATION_SECONDS,
                  render_scale: float = DEFAULT_RENDER_SCALE,
                  seed: Optional[int] = None) -> SceneProfile:
    """Build a scenario profile by name or composition spec.

    Args:
        name: One of :data:`SCENARIOS`, or a composition spec such as
            ``"highway+rain+night_cycle"`` (base scenario plus transform
            presets from :mod:`repro.video.transforms`).
        duration_seconds: Rendered clip length.
        render_scale: Resolution scale factor applied to the paper's nominal
            resolution.
        seed: Override the scenario's default schedule seed.  The override
            is passed *into* the constructor, so it governs schedule
            generation and every derived RNG stream — not just the stored
            ``profile.seed``.

    Returns:
        The configured :class:`SceneProfile`.

    Raises:
        DatasetError: If ``name`` is not a known scenario or a valid spec.
    """
    try:
        constructor = SCENARIOS[name]
    except KeyError as exc:
        if isinstance(name, str) and "+" in name:
            # Unregistered composition specs are built on the fly; the
            # import is deferred because transforms composes *on top of*
            # this module.
            from .transforms import compose_spec
            constructor = compose_spec(name)
        else:
            raise DatasetError(
                f"unknown scenario {name!r}; expected one of "
                f"{sorted(SCENARIOS)}") from exc
    if seed is None:
        return constructor(duration_seconds=duration_seconds,
                           render_scale=render_scale)
    return constructor(duration_seconds=duration_seconds,
                       render_scale=render_scale, seed=seed)
