"""Composable scenario transforms: weather, day-night, crowds, camera faults.

The eight shipped scenario profiles cover the paper's Table I; this module
turns them into a *family*.  Each transform is a small, orthogonal,
deterministic rewrite of a :class:`~repro.video.synthetic.SceneProfile` —
weather (rain, fog, snow), day-night illumination cycles, crowd density,
static occluders and camera faults (frame dropout, exposure flicker,
sensor shake, compression blockiness).  Three rules keep them safe to
stack:

* **No-op defaults.**  Every factory called with its default arguments
  returns a transform that leaves the profile *equal* — and therefore the
  rendered frames bit-identical (the renderer gates every effect on its
  non-default value).  Pinned per transform in ``tests/video``.
* **Name stability.**  Transforms never rename the profile: the name keys
  every ``make_rng`` stream (schedule, background, per-frame noise), so a
  rain layer over ``highway`` keeps the exact highway traffic underneath.
* **Seeded determinism.**  Effects that need randomness draw from their
  own ``make_rng(profile.seed, profile.name, <stage>, ...)`` stream inside
  the renderer; composition order cannot reorder anybody's draws.

Composition is exposed two ways: programmatically via :func:`compose`
(returns a scenario constructor) and as a spec string —
``"highway+rain+night_cycle"`` — accepted by
:func:`~repro.video.scenarios.make_scenario` and usable anywhere a
scenario name is (stream sessions, examples, the fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from ..errors import DatasetError
from .scenarios import (DEFAULT_DURATION_SECONDS, DEFAULT_RENDER_SCALE,
                        SCENARIOS)
from .synthetic import SceneProfile


@dataclass(frozen=True)
class ScenarioTransform:
    """A named, deterministic rewrite of a :class:`SceneProfile`."""

    name: str
    apply: Callable[[SceneProfile], SceneProfile]

    def __call__(self, profile: SceneProfile) -> SceneProfile:
        transformed = self.apply(profile)
        if transformed.name != profile.name:
            raise DatasetError(
                f"transform {self.name!r} renamed the profile "
                f"{profile.name!r} -> {transformed.name!r}; the name keys "
                f"every RNG stream and must be stable")
        return transformed


def rain(intensity: float = 0.0) -> ScenarioTransform:
    """Bright rain streaks redrawn every frame (``0`` = exact no-op)."""
    return ScenarioTransform(
        "rain", lambda profile: replace(profile, rain_intensity=intensity))


def fog(density: float = 0.0) -> ScenarioTransform:
    """Contrast wash towards a bright fog luma (``0`` = exact no-op)."""
    return ScenarioTransform(
        "fog", lambda profile: replace(profile, fog_density=density))


def snow(density: float = 0.0) -> ScenarioTransform:
    """Per-frame bright speckle (``0`` = exact no-op)."""
    return ScenarioTransform(
        "snow", lambda profile: replace(profile, snow_density=density))


def night_cycle(amplitude: float = 0.0,
                periods: float = 1.0) -> ScenarioTransform:
    """Day-night raised-cosine illumination cycle (``0`` = exact no-op)."""
    return ScenarioTransform(
        "night_cycle",
        lambda profile: replace(profile, night_cycle_amplitude=amplitude,
                                night_cycle_periods=periods))


def crowd(gap_factor: float = 1.0, dwell_factor: float = 1.0,
          max_concurrent: Optional[int] = None) -> ScenarioTransform:
    """Scale arrival density and concurrency (defaults = exact no-op).

    ``gap_factor < 1`` shrinks the idle gaps between visits (denser
    traffic); ``max_concurrent`` raises the simultaneous-object cap.
    Unlike the pixel-stage transforms this one rewrites the *schedule*
    inputs, so it changes the sampled script — deliberately: crowding is
    an event-structure property, not a pixel effect.
    """
    def apply(profile: SceneProfile) -> SceneProfile:
        return replace(
            profile,
            mean_gap_seconds=profile.mean_gap_seconds * gap_factor,
            mean_dwell_seconds=profile.mean_dwell_seconds * dwell_factor,
            max_concurrent_objects=(profile.max_concurrent_objects
                                    if max_concurrent is None
                                    else max_concurrent))
    return ScenarioTransform("crowd", apply)


def occlusion(fraction: float = 0.0) -> ScenarioTransform:
    """Static dark foreground pillars (``0`` = exact no-op)."""
    return ScenarioTransform(
        "occlusion",
        lambda profile: replace(profile, occlusion_fraction=fraction))


def dropout(rate: float = 0.0) -> ScenarioTransform:
    """Per-frame delivery dropout, repeats last frame (``0`` = exact no-op)."""
    return ScenarioTransform(
        "dropout", lambda profile: replace(profile, dropout_rate=rate))


def exposure_flicker(jitter: float = 0.0) -> ScenarioTransform:
    """Multiplicative per-frame gain hunting (``0`` = exact no-op)."""
    return ScenarioTransform(
        "exposure_flicker",
        lambda profile: replace(profile, exposure_jitter=jitter))


def sensor_jitter(pixels: int = 0) -> ScenarioTransform:
    """Per-frame camera-shake translation (``0`` = exact no-op)."""
    return ScenarioTransform(
        "sensor_jitter",
        lambda profile: replace(profile, sensor_jitter_px=pixels))


def blocky(strength: float = 0.0) -> ScenarioTransform:
    """Compression-artifact block flattening (``0`` = exact no-op)."""
    return ScenarioTransform(
        "blocky", lambda profile: replace(profile, blockiness=strength))


#: Factories of every transform, keyed by name, at their *no-op* defaults.
#: The no-op pinning tests iterate this mapping, so adding a factory here
#: automatically puts its default under the bit-identity contract.
TRANSFORM_FACTORIES: Dict[str, Callable[..., ScenarioTransform]] = {
    "rain": rain,
    "fog": fog,
    "snow": snow,
    "night_cycle": night_cycle,
    "crowd": crowd,
    "occlusion": occlusion,
    "dropout": dropout,
    "exposure_flicker": exposure_flicker,
    "sensor_jitter": sensor_jitter,
    "blocky": blocky,
}

#: Named presets used by composition specs: each entry is a zero-argument
#: callable returning a transform with *non-trivial* parameters.  Presets
#: are intentionally moderate — severe enough to move the tuned optimum,
#: mild enough that a composed stack of three still yields a recognisable
#: surveillance feed (the fuzzer samples arbitrary subsets of these).
TRANSFORMS: Dict[str, Callable[[], ScenarioTransform]] = {
    "rain": lambda: rain(0.35),
    "fog": lambda: fog(0.45),
    "snow": lambda: snow(0.02),
    "night_cycle": lambda: night_cycle(amplitude=70.0, periods=1.0),
    "crowd": lambda: crowd(gap_factor=0.4, max_concurrent=4),
    "occlusion": lambda: occlusion(0.18),
    "dropout": lambda: dropout(0.08),
    "exposure_flicker": lambda: exposure_flicker(0.05),
    "sensor_jitter": lambda: sensor_jitter(1),
    "blocky": lambda: blocky(0.5),
}


def apply_transforms(profile: SceneProfile,
                     *transforms: ScenarioTransform) -> SceneProfile:
    """Apply ``transforms`` left to right."""
    for transform in transforms:
        profile = transform(profile)
    return profile


def parse_spec(spec: str) -> Tuple[str, Tuple[str, ...]]:
    """Split ``"base+transform+transform"`` into its validated parts."""
    if not isinstance(spec, str):
        raise DatasetError(f"composition spec must be a str, got {spec!r}")
    base, *names = [part.strip() for part in spec.split("+")]
    if not base:
        raise DatasetError(f"composition spec {spec!r} has an empty base")
    unknown = [name for name in names if name not in TRANSFORMS]
    if unknown:
        raise DatasetError(
            f"unknown transform(s) {unknown} in spec {spec!r}; expected "
            f"one of {sorted(TRANSFORMS)}")
    return base, tuple(names)


def compose(base: str, *transform_names: str):
    """Build a scenario constructor for ``base`` plus preset transforms.

    The returned callable has the registry constructor signature
    ``(duration_seconds, render_scale, seed=None)`` — a ``seed`` override
    is forwarded to the *base* constructor so it reaches schedule
    generation, exactly like the plain scenarios.
    """
    if not isinstance(base, str):
        raise DatasetError(f"base must be a str, got {base!r}")
    unknown = [name for name in transform_names if name not in TRANSFORMS]
    if unknown:
        raise DatasetError(
            f"unknown transform(s) {unknown}; expected one of "
            f"{sorted(TRANSFORMS)}")

    def constructor(duration_seconds: float = DEFAULT_DURATION_SECONDS,
                    render_scale: float = DEFAULT_RENDER_SCALE,
                    seed: Optional[int] = None) -> SceneProfile:
        try:
            base_constructor = SCENARIOS[base]
        except KeyError as exc:
            raise DatasetError(
                f"unknown base scenario {base!r}; expected one of "
                f"{sorted(name for name in SCENARIOS if '+' not in name)}"
            ) from exc
        kwargs = {} if seed is None else {"seed": seed}
        profile = base_constructor(duration_seconds=duration_seconds,
                                   render_scale=render_scale, **kwargs)
        return apply_transforms(
            profile, *(TRANSFORMS[name]() for name in transform_names))

    constructor.__name__ = "compose_" + "_".join((base,) + transform_names)
    constructor.__doc__ = (f"Composed scenario: {base} + "
                           f"{', '.join(transform_names) or 'nothing'}.")
    return constructor


def compose_spec(spec: str):
    """:func:`compose` from a ``"base+t1+t2"`` spec string."""
    base, names = parse_spec(spec)
    return compose(base, *names)


def register_composed(spec: str) -> None:
    """Register a composition spec as a first-class ``SCENARIOS`` entry."""
    if spec in SCENARIOS:
        raise DatasetError(f"scenario {spec!r} is already registered")
    SCENARIOS[spec] = compose_spec(spec)


#: Composed scenarios shipped in the registry: a rainy highway sliding
#: into night, a crowded foggy square, and a snowy low-light feed on a
#: lossy camera link.  They behave exactly like the hand-written entries
#: (``make_scenario``, stream sessions, examples).
BUILTIN_COMPOSED_SPECS = (
    "highway+rain+night_cycle",
    "taipei+crowd+fog",
    "night+snow+dropout",
)

for _spec in BUILTIN_COMPOSED_SPECS:
    register_composed(_spec)
