"""Procedural surveillance-scene generator.

The paper evaluates SiEVE on real surveillance feeds (Table I).  Those videos
are not redistributable and cannot be downloaded in this offline environment,
so this module generates *synthetic surveillance scenes* that preserve the
properties the evaluation actually depends on:

* a static background viewed by a fixed camera,
* objects of a given class entering the scene, dwelling while moving across
  it, and leaving — producing the paper's notion of *events* (maximal runs of
  frames with the same label set),
* object apparent size controlled per scenario (close-up cars vs. distant
  boats), which determines how much motion an entering object causes and
  therefore which scenecut threshold detects it,
* sensor noise and slow illumination drift, which is what limits naive
  pixel-difference baselines such as MSE.

Every frame is a deterministic function of ``(profile, frame_index)`` so
videos can be streamed lazily without keeping all frames in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import FINITE, NON_NEGATIVE, POSITIVE, real_number, whole_number
from ..errors import ConfigurationError
from ..rng import make_rng
from .events import EventTimeline
from .frame import Resolution
from .raw_video import GeneratedVideo, VideoMetadata


@dataclass(frozen=True)
class ObjectClassSpec:
    """Appearance and motion model of one object class in a scene.

    Attributes:
        label: Object label reported by the ground truth (e.g. ``"car"``).
        relative_height: Object bounding-box height as a fraction of frame
            height.  Close-up objects (Jackson square cars) are large
            (~0.25+); distant objects (Venice boats) are small (~0.05).
        aspect_ratio: Bounding-box width divided by height.
        speed_fraction: Fraction of the frame width the object traverses per
            second of video.
        brightness_delta: Luma offset of the object relative to the
            background (positive = brighter).  Larger objects with larger
            deltas create more inter-frame motion cost.
        shape: ``"rectangle"`` or ``"ellipse"``.
    """

    label: str
    relative_height: float
    aspect_ratio: float = 2.0
    speed_fraction: float = 0.25
    brightness_delta: float = 70.0
    shape: str = "rectangle"

    def __post_init__(self) -> None:
        real_number(self.relative_height, "relative_height", above=0, most=1)
        real_number(self.aspect_ratio, "aspect_ratio", **POSITIVE)
        real_number(self.speed_fraction, "speed_fraction", **POSITIVE)
        real_number(self.brightness_delta, "brightness_delta", **FINITE)
        if self.shape not in ("rectangle", "ellipse"):
            raise ConfigurationError(f"unknown shape {self.shape!r}")


#: Each real field of :class:`SceneProfile` with its bounds.
_PROFILE_REALS = {
    **dict.fromkeys(("fps", "duration_seconds", "mean_gap_seconds",
                     "mean_dwell_seconds", "night_cycle_periods"), POSITIVE),
    **dict.fromkeys(("noise_std", "flicker_amplitude",
                     "night_cycle_amplitude"), NON_NEGATIVE),
    **dict.fromkeys(("background_detail", "texture_detail",
                     "illumination_drift", "brightness_ramp", "flicker_ramp",
                     "noise_ramp"), FINITE),
    **dict.fromkeys(("rain_intensity", "snow_density", "blockiness"),
                    {"least": 0, "most": 1}),
    **dict.fromkeys(("occlusion_fraction", "dropout_rate"),
                    {"least": 0, "most": 0.9}),
    **dict.fromkeys(("fog_density", "exposure_jitter"),
                    {"least": 0, "below": 1}),
    "base_brightness": {"least": 0, "most": 255},
    # Contrast cannot flip.
    "object_contrast_ramp": {"least": -1, "below": math.inf},
}


@dataclass(frozen=True)
class SceneProfile:
    """Full description of a synthetic surveillance scene.

    Attributes:
        name: Scene / camera name.
        resolution: Rendered frame resolution.
        fps: Frame rate.
        duration_seconds: Length of the generated video.
        object_classes: Object classes that may appear, with sampling weights.
        mean_gap_seconds: Mean idle time between the end of one object's
            visit and the start of the next.
        mean_dwell_seconds: Mean time an object stays in the scene.
        noise_std: Standard deviation of per-frame sensor noise (luma units).
        background_detail: Amplitude of the smooth (low-frequency) background
            structure: road markings, water gradients, large shadows.
        texture_detail: Amplitude of the static high-frequency background
            texture (asphalt grain, ripples, foliage).  This texture is what
            makes occlusion/disocclusion at object boundaries unpredictable
            for a motion-compensating encoder — the physical effect real
            scene-cut detection keys on — so it must be comfortably larger
            than the sensor noise.
        illumination_drift: Peak-to-peak amplitude of a slow global
            brightness oscillation (simulates clouds / daylight changes).
        base_brightness: Mean luma level of the background's top edge
            (``110`` reproduces the daylight scenes; low values give
            night-time footage).
        flicker_amplitude: Peak amplitude of a *fast* per-frame global
            brightness jitter (failing street lamps, rolling-shutter
            beating).  Unlike the slow drift it changes between
            consecutive frames, so motion compensation cannot explain it
            away — the stress case for scene-cut detection.  ``0``
            (default) renders bit-identical to the pre-flicker generator.
        brightness_ramp: Luma added to the global illumination, scaled
            linearly from ``0`` at the first frame to the full value at
            the last — a negative ramp morphs a daylight scene into
            night over the clip.  ``0`` (default) is bit-identical.
        flicker_ramp: Added to ``flicker_amplitude`` with the same linear
            schedule (street lamps that degrade as night falls).  ``0``
            (default) is bit-identical.
        noise_ramp: Added to ``noise_std`` with the same linear schedule
            (sensor gain cranking up in low light).  ``0`` (default) is
            bit-identical.
        object_contrast_ramp: Multiplies every object's luma delta by
            ``1 + ramp * progress`` — a negative ramp fades objects into
            the background, which is what genuinely shifts the optimal
            scenecut threshold mid-clip.  ``0`` (default) is
            bit-identical.
        rain_intensity: Density of per-frame bright rain streaks in
            ``[0, 1]``.  Streaks are redrawn every frame, so they are
            unpredictable residual for the motion-compensating encoder —
            the classic false-scene-cut stressor.  ``0`` (default) is
            bit-identical.
        fog_density: Contrast wash towards a bright fog luma in
            ``[0, 1)`` applied over the composed frame — objects fade
            towards the background, shrinking every residual.  ``0``
            (default) is bit-identical.
        snow_density: Per-pixel probability of a bright snow speckle,
            redrawn every frame, in ``[0, 1]``.  ``0`` (default) is
            bit-identical.
        night_cycle_amplitude: Peak luma dip of a day-night illumination
            cycle spanning the clip (a raised-cosine that starts and ends
            at full daylight).  ``0`` (default) is bit-identical.
        night_cycle_periods: Number of day-night cycles across the clip.
        occlusion_fraction: Fraction of the frame width covered by static
            dark foreground pillars (fences, poles, signage) drawn *over*
            the objects, in ``[0, 0.9]``.  ``0`` (default) is
            bit-identical.
        dropout_rate: Per-frame probability, in ``[0, 0.9]``, that the
            camera fails to deliver a frame and the previous delivered
            frame is repeated verbatim (frame 0 is always delivered).
            Repeats are bit-exact, so they cost the encoder nothing but
            desynchronise pixels from the ground-truth labels — the
            realistic price of a lossy camera link.  ``0`` (default) is
            bit-identical.
        exposure_jitter: Peak *multiplicative* per-frame gain jitter in
            ``[0, 1)`` (auto-exposure hunting).  Unlike the additive
            flicker its effect scales with scene brightness.  ``0``
            (default) is bit-identical.
        sensor_jitter_px: Maximum per-frame camera shake translation, in
            pixels (the frame is rolled by a per-frame deterministic
            ``(dy, dx)``).  A translation is exactly what motion search
            can compensate, so this stresses the estimator without
            faking novelty.  ``0`` (default) is bit-identical.
        blockiness: Blend factor in ``[0, 1]`` towards the 8x8
            block-mean image (transcoding/compression artifacts).  ``0``
            (default) is bit-identical.
        max_concurrent_objects: Upper bound on simultaneously visible objects.
        seed: Root seed for the event schedule and appearance sampling.
    """

    name: str
    resolution: Resolution
    fps: float
    duration_seconds: float
    object_classes: Tuple[Tuple[ObjectClassSpec, float], ...]
    mean_gap_seconds: float = 8.0
    mean_dwell_seconds: float = 6.0
    noise_std: float = 2.0
    background_detail: float = 25.0
    texture_detail: float = 28.0
    illumination_drift: float = 3.0
    base_brightness: float = 110.0
    flicker_amplitude: float = 0.0
    brightness_ramp: float = 0.0
    flicker_ramp: float = 0.0
    noise_ramp: float = 0.0
    object_contrast_ramp: float = 0.0
    rain_intensity: float = 0.0
    fog_density: float = 0.0
    snow_density: float = 0.0
    night_cycle_amplitude: float = 0.0
    night_cycle_periods: float = 1.0
    occlusion_fraction: float = 0.0
    dropout_rate: float = 0.0
    exposure_jitter: float = 0.0
    sensor_jitter_px: int = 0
    blockiness: float = 0.0
    max_concurrent_objects: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, bounds in _PROFILE_REALS.items():
            real_number(getattr(self, name), name, **bounds)
        for name, least in (("sensor_jitter_px", 0),
                            ("max_concurrent_objects", 1), ("seed", None)):
            whole_number(getattr(self, name), name, least=least)
        if int(round(self.duration_seconds * self.fps)) < 2:
            raise ConfigurationError(
                f"duration_seconds={self.duration_seconds!r} at "
                f"fps={self.fps!r} yields fewer than 2 frames; a clip must "
                f"span at least 2 frames (ramps, schedules and the encoder "
                f"lookahead all assume a successor frame exists)")
        real_number(self.base_brightness + self.brightness_ramp,
                    "base_brightness + brightness_ramp", least=0, most=255)
        real_number(self.flicker_amplitude + self.flicker_ramp,
                    "flicker_amplitude + flicker_ramp", least=0)
        real_number(self.noise_std + self.noise_ramp,
                    "noise_std + noise_ramp", least=0)
        if not self.object_classes:
            raise ConfigurationError("object_classes must not be empty")
        real_number(sum(weight for _, weight in self.object_classes),
                    "the object class weights' sum", **POSITIVE)

    @property
    def num_frames(self) -> int:
        """Number of frames in the generated video."""
        return max(int(round(self.duration_seconds * self.fps)), 1)

    def ramp_progress(self, frame_index: int) -> float:
        """Linear drift-ramp progress at ``frame_index`` (``0`` → ``1``)."""
        return frame_index / max(self.num_frames - 1, 1)

    def scaled(self, factor: float, name: Optional[str] = None) -> "SceneProfile":
        """Return a copy rendered at ``factor`` times the resolution.

        Used to run experiment-scale videos at a reduced pixel count while
        keeping the event structure identical (object sizes are relative).
        """
        return replace(self, name=name or self.name,
                       resolution=self.resolution.scaled(factor))


@dataclass(frozen=True)
class ObjectTrack:
    """A single object's visit to the scene.

    Attributes:
        label: Object label.
        spec: Appearance spec of the object's class.
        enter_frame: First frame in which the object is visible.
        exit_frame: One past the last visible frame.
        lane_fraction: Vertical position of the object's centre, as a
            fraction of frame height.
        direction: ``+1`` for left-to-right motion, ``-1`` for right-to-left.
        brightness: Actual luma delta of this instance.
        size_jitter: Multiplicative jitter applied to the class height.
    """

    label: str
    spec: ObjectClassSpec
    enter_frame: int
    exit_frame: int
    lane_fraction: float
    direction: int
    brightness: float
    size_jitter: float = 1.0

    def __post_init__(self) -> None:
        whole_number(self.exit_frame, "exit_frame",
                     above=whole_number(self.enter_frame, "enter_frame"))
        if whole_number(self.direction, "direction") not in (-1, 1):
            raise ConfigurationError("direction must be +1 or -1")
        real_number(self.lane_fraction, "lane_fraction", **FINITE)
        real_number(self.brightness, "brightness", **FINITE)
        real_number(self.size_jitter, "size_jitter", **POSITIVE)

    @property
    def num_frames(self) -> int:
        """Number of frames the object is visible."""
        return self.exit_frame - self.enter_frame

    def is_visible(self, frame_index: int) -> bool:
        """Whether the object is in the scene at ``frame_index``."""
        return self.enter_frame <= frame_index < self.exit_frame

    def bounding_box(self, frame_index: int,
                     resolution: Resolution) -> Optional[Tuple[int, int, int, int]]:
        """Bounding box ``(x0, y0, x1, y1)`` at ``frame_index`` or ``None``.

        The object enters from one side, traverses the frame linearly over
        its dwell time, and exits on the other side; the box is clipped to
        the frame.
        """
        if not self.is_visible(frame_index):
            return None
        height = max(int(round(self.spec.relative_height * self.size_jitter
                               * resolution.height)), 2)
        width = max(int(round(height * self.spec.aspect_ratio)), 2)
        if self.num_frames > 1:
            progress = (frame_index - self.enter_frame) / (self.num_frames - 1)
        else:
            # A single-frame visit has no trajectory to interpolate; putting
            # it mid-crossing keeps the object on screen instead of parking
            # it off-frame at progress 0 (where clipping deleted the box).
            progress = 0.5
        span = resolution.width + width
        if self.direction > 0:
            center_x = -width / 2 + progress * span
        else:
            center_x = resolution.width + width / 2 - progress * span
        center_y = self.lane_fraction * resolution.height
        x0 = int(round(center_x - width / 2))
        x1 = int(round(center_x + width / 2))
        y0 = int(round(center_y - height / 2))
        y1 = int(round(center_y + height / 2))
        x0, x1 = max(x0, 0), min(x1, resolution.width)
        y0, y1 = max(y0, 0), min(y1, resolution.height)
        if x0 >= x1 or y0 >= y1:
            return None
        return (x0, y0, x1, y1)


class SceneScript:
    """The event schedule of a synthetic scene: which objects appear when."""

    def __init__(self, tracks: Sequence[ObjectTrack], num_frames: int) -> None:
        whole_number(num_frames, "num_frames", least=1)
        self.tracks: Tuple[ObjectTrack, ...] = tuple(
            sorted(tracks, key=lambda track: track.enter_frame))
        self.num_frames = num_frames
        for track in self.tracks:
            if track.exit_frame > num_frames:
                raise ConfigurationError(
                    f"track {track.label} extends past the end of the video")

    def labels_at(self, frame_index: int) -> frozenset:
        """Ground-truth label set at ``frame_index``."""
        return frozenset(track.label for track in self.tracks
                         if track.is_visible(frame_index))

    def visible_tracks(self, frame_index: int) -> List[ObjectTrack]:
        """Tracks visible at ``frame_index``."""
        return [track for track in self.tracks if track.is_visible(frame_index)]

    def frame_labels(self) -> List[frozenset]:
        """Per-frame ground-truth label sets."""
        boundaries = np.zeros(self.num_frames + 1, dtype=bool)
        for track in self.tracks:
            boundaries[track.enter_frame] = True
            boundaries[track.exit_frame] = True
        labels: List[frozenset] = []
        current = self.labels_at(0)
        for index in range(self.num_frames):
            if index > 0 and boundaries[index]:
                current = self.labels_at(index)
            labels.append(current)
        return labels

    def timeline(self) -> EventTimeline:
        """Compress the per-frame labels into an :class:`EventTimeline`."""
        return EventTimeline.from_frame_labels(self.frame_labels())


def generate_script(profile: SceneProfile) -> SceneScript:
    """Sample the object schedule for ``profile``.

    Objects arrive after exponentially distributed idle gaps and dwell for a
    log-normal-ish duration around ``mean_dwell_seconds``.  At most
    ``max_concurrent_objects`` are visible at once; additional arrivals are
    deferred, which mimics e.g. queues of cars entering a junction.

    Args:
        profile: Scene description.

    Returns:
        The sampled :class:`SceneScript`.
    """
    rng = make_rng(profile.seed, profile.name, "script")
    num_frames = profile.num_frames
    specs = [spec for spec, _ in profile.object_classes]
    weights = np.array([weight for _, weight in profile.object_classes], dtype=float)
    weights = weights / weights.sum()

    tracks: List[ObjectTrack] = []
    # Frames at which each "lane slot" becomes free again.
    slot_free_at = [0] * profile.max_concurrent_objects
    cursor = int(rng.exponential(profile.mean_gap_seconds) * profile.fps)
    while cursor < num_frames - 2:
        slot = int(np.argmin(slot_free_at))
        enter = max(cursor, slot_free_at[slot])
        if enter >= num_frames - 2:
            break
        dwell_seconds = max(rng.normal(profile.mean_dwell_seconds,
                                       profile.mean_dwell_seconds * 0.3),
                            profile.mean_dwell_seconds * 0.3)
        dwell_frames = max(int(round(dwell_seconds * profile.fps)), 2)
        exit_frame = min(enter + dwell_frames, num_frames)
        spec = specs[int(rng.choice(len(specs), p=weights))]
        track = ObjectTrack(
            label=spec.label,
            spec=spec,
            enter_frame=enter,
            exit_frame=exit_frame,
            lane_fraction=float(rng.uniform(0.25, 0.75)),
            direction=int(rng.choice([-1, 1])),
            brightness=float(spec.brightness_delta * rng.uniform(0.8, 1.2)
                             * rng.choice([-1.0, 1.0], p=[0.3, 0.7])),
            size_jitter=float(rng.uniform(0.85, 1.15)),
        )
        tracks.append(track)
        slot_free_at[slot] = exit_frame
        gap_frames = int(rng.exponential(profile.mean_gap_seconds) * profile.fps)
        cursor = exit_frame + max(gap_frames, 1)
    return SceneScript(tracks, num_frames)


def _block_average(image: np.ndarray, block: int = 8) -> np.ndarray:
    """Replace each ``block x block`` tile with its mean (edge-padded).

    This is the compression-artifact model behind ``blockiness``: a cheap
    stand-in for a harsh requantisation pass that flattens every
    macroblock.
    """
    height, width = image.shape
    pad_y = (-height) % block
    pad_x = (-width) % block
    padded = np.pad(image, ((0, pad_y), (0, pad_x)), mode="edge")
    tiles = padded.reshape(padded.shape[0] // block, block,
                           padded.shape[1] // block, block)
    means = tiles.mean(axis=(1, 3))
    expanded = np.repeat(np.repeat(means, block, axis=0), block, axis=1)
    return expanded[:height, :width]


class SyntheticScene:
    """Renderer for a :class:`SceneProfile`.

    The renderer produces grayscale (luma) frames: the SiEVE mechanism —
    motion-driven I-frame placement, I-frame seeking, per-frame labels — is
    entirely determined by luma motion, and the codec, baselines and NN
    substrate all operate on luma.  Colour frames can be obtained with
    ``as_color=True`` (the luma plane is replicated with a mild per-channel
    tint), which is only needed for JPEG-transport size experiments.

    Args:
        profile: Scene description.
        script: Pre-sampled schedule; sampled from the profile when omitted.
        as_color: Render 3-channel frames instead of grayscale.
    """

    def __init__(self, profile: SceneProfile, script: Optional[SceneScript] = None,
                 as_color: bool = False) -> None:
        self.profile = profile
        self.script = script if script is not None else generate_script(profile)
        self.as_color = as_color
        self._background = self._render_background()
        # Every DSL stage below is gated on its non-default value so the
        # default profiles draw zero extra RNG and render bit-identically
        # (pinned by tests/integration/test_scenario_anchors.py).
        self._occluders = (self._sample_occluders()
                           if profile.occlusion_fraction > 0 else ())
        self._delivered = (self._delivery_schedule()
                           if profile.dropout_rate > 0 else None)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def _render_background(self) -> np.ndarray:
        """Render the static background texture once."""
        resolution = self.profile.resolution
        rng = make_rng(self.profile.seed, self.profile.name, "background")
        height, width = resolution.shape
        yy, xx = np.mgrid[0:height, 0:width]
        base = self.profile.base_brightness + 30.0 * (yy / max(height - 1, 1))
        # Low-frequency texture: sum of a few random sinusoids, which gives a
        # smooth "road / water / floor" look without needing image assets.
        texture = np.zeros((height, width), dtype=np.float64)
        for _ in range(6):
            fx = rng.uniform(0.5, 4.0) * 2 * math.pi / max(width, 1)
            fy = rng.uniform(0.5, 4.0) * 2 * math.pi / max(height, 1)
            phase = rng.uniform(0, 2 * math.pi)
            amplitude = rng.uniform(0.2, 1.0)
            texture += amplitude * np.sin(fx * xx + fy * yy + phase)
        texture *= self.profile.background_detail / max(np.abs(texture).max(), 1e-9)
        # Static high-frequency grain (asphalt, water ripples, foliage).  It
        # is part of the *scene*, not the sensor: it does not change between
        # frames, but it cannot be predicted by shifting neighbouring pixels,
        # which is what makes occlusions and disocclusions at object
        # boundaries visible to the motion-compensating encoder.
        grain = rng.uniform(-self.profile.texture_detail,
                            self.profile.texture_detail, size=(height, width))
        return np.clip(base + texture + grain, 0, 255)

    def _sample_occluders(self) -> Tuple[Tuple[int, int], ...]:
        """Sample the static foreground pillars (fences, poles, signage).

        Pillars are part of the scene: they never move, but they are drawn
        *over* the objects, so a crossing object genuinely disappears and
        reappears — the disocclusion events real scene-cut detection has
        to survive.
        """
        resolution = self.profile.resolution
        rng = make_rng(self.profile.seed, self.profile.name, "occluders")
        width = resolution.width
        target = self.profile.occlusion_fraction * width
        pillars = []
        covered = 0
        while covered < target:
            pillar = max(int(round(rng.uniform(0.03, 0.09) * width)), 1)
            x0 = int(rng.integers(0, max(width - pillar, 1)))
            pillars.append((x0, x0 + pillar))
            covered += pillar
        return tuple(pillars)

    def _delivery_schedule(self) -> List[int]:
        """Map each frame index to the source frame the camera delivered.

        Frame 0 is always delivered; afterwards each frame is dropped with
        probability ``dropout_rate`` (per-frame deterministic draw) and the
        previous delivered frame repeats verbatim.  Rendering the *source*
        index keeps repeats bit-exact, so a dropped frame is a zero-residual
        P-frame — the camera link stutters, the encoder shrugs.
        """
        rate = self.profile.dropout_rate
        delivered = [0]
        for index in range(1, self.profile.num_frames):
            drop_rng = make_rng(self.profile.seed, self.profile.name,
                                "dropout", str(index))
            delivered.append(delivered[-1] if drop_rng.random() < rate
                             else index)
        return delivered

    def _illumination(self, frame_index: int) -> float:
        """Global brightness offset at ``frame_index`` (drift + flicker).

        The ramp terms are exact no-ops at their ``0.0`` defaults
        (``x + 0.0 * p == x`` and an unchanged flicker amplitude draws
        the identical uniform), keeping default profiles bit-identical.
        """
        period_frames = 45.0 * self.profile.fps
        progress = self.profile.ramp_progress(frame_index)
        level = (self.profile.illumination_drift / 2.0) * math.sin(
            2 * math.pi * frame_index / max(period_frames, 1.0))
        level += self.profile.brightness_ramp * progress
        if self.profile.night_cycle_amplitude > 0:
            # Raised cosine: full daylight at both clip ends, the deepest
            # night at each cycle's midpoint — smooth enough that motion
            # compensation tracks it, dark enough to starve object contrast.
            cycle = 0.5 * (1.0 - math.cos(
                2 * math.pi * self.profile.night_cycle_periods * progress))
            level -= self.profile.night_cycle_amplitude * cycle
        amplitude = (self.profile.flicker_amplitude
                     + self.profile.flicker_ramp * progress)
        if amplitude > 0:
            # Per-frame deterministic jitter: unlike the slow drift it is
            # uncorrelated between consecutive frames, so the whole frame's
            # residual moves together — exactly what stresses scene-cut
            # detection in low light.
            flicker_rng = make_rng(self.profile.seed, self.profile.name,
                                   "flicker", str(frame_index))
            level += flicker_rng.uniform(-amplitude, amplitude)
        return level

    def frame_array(self, frame_index: int) -> np.ndarray:
        """Render the pixel array of ``frame_index`` (deterministic)."""
        if not 0 <= frame_index < self.profile.num_frames:
            raise ConfigurationError(
                f"frame index {frame_index} outside video of {self.profile.num_frames}")
        if self._delivered is not None:
            # A dropped frame repeats the previous delivered frame verbatim:
            # rendering the *source* index reproduces it bit-exactly.
            frame_index = self._delivered[frame_index]
        resolution = self.profile.resolution
        progress = self.profile.ramp_progress(frame_index)
        # Object contrast fades by the ramp schedule; the 1.0 factor at the
        # default preserves every pixel bit-for-bit (x * 1.0 == x).
        contrast = 1.0 + self.profile.object_contrast_ramp * progress
        # The broadcast add already allocates a fresh array, so the objects
        # below may draw into it in place without touching the cached
        # background.
        image = self._background + self._illumination(frame_index)
        for track in self.script.visible_tracks(frame_index):
            box = track.bounding_box(frame_index, resolution)
            if box is None:
                continue
            x0, y0, x1, y1 = box
            brightness = track.brightness * contrast
            if track.spec.shape == "rectangle":
                image[y0:y1, x0:x1] += brightness
                # A darker "window/cabin" band adds internal texture so that
                # feature-based baselines have something to match.
                band_top = y0 + (y1 - y0) // 4
                band_bottom = y0 + (y1 - y0) // 2
                image[band_top:band_bottom, x0:x1] -= brightness * 0.35
            else:
                yy, xx = np.mgrid[y0:y1, x0:x1]
                cy, cx = (y0 + y1) / 2.0, (x0 + x1) / 2.0
                ry, rx = max((y1 - y0) / 2.0, 1.0), max((x1 - x0) / 2.0, 1.0)
                mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
                region = image[y0:y1, x0:x1]
                region[mask] += brightness
        for x0, x1 in self._occluders:
            # Foreground pillars darken whatever they cover — including the
            # objects drawn above, which is the point.
            image[:, x0:x1] *= 0.3
        if self.profile.fog_density > 0:
            fog = self.profile.fog_density
            image = image * (1.0 - fog) + 200.0 * fog
        if self.profile.rain_intensity > 0:
            rain_rng = make_rng(self.profile.seed, self.profile.name, "rain",
                                str(frame_index))
            height, width = image.shape
            streaks = max(int(round(self.profile.rain_intensity * width * 0.5)), 1)
            length = max(height // 10, 2)
            xs = rain_rng.integers(0, width, size=streaks)
            ys = rain_rng.integers(0, height, size=streaks)
            for x, y in zip(xs, ys):
                image[y:y + length, x] += 25.0
        if self.profile.snow_density > 0:
            snow_rng = make_rng(self.profile.seed, self.profile.name, "snow",
                                str(frame_index))
            flakes = snow_rng.random(size=image.shape) < self.profile.snow_density
            image[flakes] += 45.0
        noise_rng = make_rng(self.profile.seed, self.profile.name, "noise",
                             str(frame_index))
        noise_std = self.profile.noise_std + self.profile.noise_ramp * progress
        if noise_std > 0:
            image += noise_rng.normal(0.0, noise_std, size=image.shape)
        if self.profile.exposure_jitter > 0:
            gain_rng = make_rng(self.profile.seed, self.profile.name,
                                "exposure", str(frame_index))
            jitter = self.profile.exposure_jitter
            image *= 1.0 + gain_rng.uniform(-jitter, jitter)
        if self.profile.sensor_jitter_px > 0:
            shake_rng = make_rng(self.profile.seed, self.profile.name,
                                 "jitter", str(frame_index))
            bound = self.profile.sensor_jitter_px
            dy, dx = shake_rng.integers(-bound, bound + 1, size=2)
            image = np.roll(image, (int(dy), int(dx)), axis=(0, 1))
        if self.profile.blockiness > 0:
            image = (image * (1.0 - self.profile.blockiness)
                     + _block_average(image) * self.profile.blockiness)
        image = np.clip(image, 0, 255).astype(np.uint8)
        if self.as_color:
            tint = np.array([1.0, 0.97, 0.92])
            image = np.clip(image[..., None] * tint, 0, 255).astype(np.uint8)
        return image

    # ------------------------------------------------------------------ #
    # Video construction
    # ------------------------------------------------------------------ #
    def video(self) -> GeneratedVideo:
        """Return a lazily rendered :class:`GeneratedVideo` with ground truth."""
        metadata = VideoMetadata(
            name=self.profile.name,
            resolution=self.profile.resolution,
            fps=self.profile.fps,
            num_frames=self.profile.num_frames,
            extra={"synthetic": True, "seed": self.profile.seed},
        )
        return GeneratedVideo(metadata, self.frame_array, self.script.timeline())
