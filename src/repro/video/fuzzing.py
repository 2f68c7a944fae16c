"""Scenario fuzzing: random composed profiles under cross-layer invariants.

The scenario DSL (:mod:`repro.video.transforms`) makes the space of inputs
to the pipeline combinatorial; this module is the harness that patrols it.
A :class:`ScenarioComposition` names one point of the space — a base
scenario, an ordered subset of transform presets and a schedule seed — and
:func:`check_composition` pushes it through the whole stack
(generate → encode → tune → fleet) while asserting the invariants every
layer promises for *any* input, not just the eight shipped profiles:

1. **Decoder round-trip exactness** — serialize → deserialize preserves
   the bitstream, and decoding either object yields bit-identical frames.
2. **No I-frame storms** — consecutive I-frames are never closer than
   ``effective_min_gop`` nor farther apart than ``gop_size``, whatever the
   weather does to the novelty signal.
3. **Tuner grid convergence** — the grid search returns a member of the
   grid with a sane F1 and is deterministic under replay.
4. **Chain == recurrence parity** — a fleet built from the composition
   reports bit-identically from the event loop and from the recurrence.

Failures serialize to replayable JSON repro files
(:meth:`ScenarioComposition.to_json`); ``examples/scenario_fuzz.py`` is
the CLI for both fuzzing and replaying, and ``tests/fuzz`` drives the same
checks property-style through hypothesis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..cluster.fleet import CameraJob, FleetOrchestrator
from ..codec.bitstream import EncodedVideo
from ..codec.decoder import VideoDecoder
from ..codec.encoder import VideoEncoder
from ..codec.gop import EncoderParameters
from ..config import POSITIVE, real_number, whole_number
from ..core.tuner import SemanticEncoderTuner, TuningGrid
from ..errors import DatasetError
from ..rng import make_rng
from .scenarios import SCENARIOS, make_scenario
from .synthetic import SyntheticScene
from .transforms import TRANSFORMS

#: Clip geometry of every fuzzed composition: long enough for several
#: object visits and GOP boundaries, small enough that a 25-composition
#: budget finishes in CI minutes.
FUZZ_DURATION_SECONDS = 4.0
FUZZ_RENDER_SCALE = 0.05

#: Encoder configuration the invariants run under.  The small GOP makes
#: both placement rules (forced refresh and latched scene cuts) fire many
#: times in a 120-frame clip; ``effective_min_gop`` is 5.
FUZZ_PARAMETERS = EncoderParameters(gop_size=50, scenecut_threshold=100.0)

#: The tuner grid replayed per composition (3 x 3, spanning the paper's
#: extremes at clip-appropriate GOP sizes).
FUZZ_GRID = TuningGrid(gop_sizes=(25, 50, 120),
                       scenecut_thresholds=(40.0, 150.0, 250.0))

#: Cameras in the parity fleet built from each composition.
FLEET_CAMERAS = 6

#: Parity tolerance: the recurrence is held to the chain bit for bit.
PARITY_TOLERANCE = 0.0


def fuzz_base_names() -> Tuple[str, ...]:
    """The plain (non-composed) scenario names the fuzzer samples from."""
    return tuple(sorted(name for name in SCENARIOS if "+" not in name))


@dataclass(frozen=True)
class ScenarioComposition:
    """One fuzzed point: base scenario + transform presets + seed."""

    base: str
    transforms: Tuple[str, ...] = ()
    seed: int = 0
    duration_seconds: float = FUZZ_DURATION_SECONDS
    render_scale: float = FUZZ_RENDER_SCALE

    def __post_init__(self) -> None:
        if not (isinstance(self.base, str) and isinstance(self.transforms, tuple)
                and all(isinstance(name, str) for name in self.transforms)):
            raise DatasetError(f"base must be a str and transforms a tuple of "
                               f"str, got {self.base!r}, {self.transforms!r}")
        whole_number(self.seed, "seed", DatasetError)
        for name in ("duration_seconds", "render_scale"):
            real_number(getattr(self, name), name, DatasetError, **POSITIVE)

    @property
    def spec(self) -> str:
        """The ``base+t1+t2`` composition spec string."""
        return "+".join((self.base,) + self.transforms)

    def build_profile(self):
        """Materialise the composed :class:`SceneProfile`."""
        return make_scenario(self.spec, duration_seconds=self.duration_seconds,
                             render_scale=self.render_scale, seed=self.seed)

    def describe(self) -> str:
        """Stable one-line description (used in fuzz summaries)."""
        return f"{self.spec} seed={self.seed}"

    def to_json(self) -> str:
        """Serialize to the replayable repro-file format."""
        return json.dumps({
            "base": self.base,
            "transforms": list(self.transforms),
            "seed": self.seed,
            "duration_seconds": self.duration_seconds,
            "render_scale": self.render_scale,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: str) -> "ScenarioComposition":
        """Parse a repro file produced by :meth:`to_json`."""
        try:
            raw = json.loads(data)
            transforms = raw["transforms"]
            if isinstance(transforms, list):  # JSON has no tuples
                transforms = tuple(transforms)
            return cls(base=raw["base"], transforms=transforms, seed=raw["seed"],
                       duration_seconds=float(raw["duration_seconds"]),
                       render_scale=float(raw["render_scale"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed scenario repro file: {exc}") from exc


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant a composition broke, with a human-readable detail."""

    invariant: str
    detail: str


@dataclass
class FuzzResult:
    """Outcome of checking one composition."""

    composition: ScenarioComposition
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """The deterministic one-line summary CI diffs across runs."""
        if self.ok:
            status = "OK"
        else:
            status = "FAIL[" + ",".join(sorted(
                {violation.invariant for violation in self.violations})) + "]"
        return f"{self.composition.describe()} {status}"


def sample_composition(rng: np.random.Generator) -> ScenarioComposition:
    """Draw one composition: a base, 0-3 distinct presets, a seed."""
    bases = fuzz_base_names()
    base = bases[int(rng.integers(len(bases)))]
    names = sorted(TRANSFORMS)
    count = int(rng.integers(0, 4))
    if count:
        picks = rng.choice(len(names), size=count, replace=False)
        transforms = tuple(names[int(index)] for index in picks)
    else:
        transforms = ()
    seed = int(rng.integers(1, 100_000))
    return ScenarioComposition(base=base, transforms=transforms, seed=seed)


# --------------------------------------------------------------------- #
# Invariant checks
# --------------------------------------------------------------------- #
def _check_roundtrip(encoded: EncodedVideo, violations: List[InvariantViolation]) -> None:
    data = encoded.serialize()
    parsed = EncodedVideo.deserialize(data)
    if parsed.frame_types() != encoded.frame_types():
        violations.append(InvariantViolation(
            "roundtrip", "frame types changed across serialize/deserialize"))
        return
    original_sizes = [frame.size_bytes for frame in encoded.frames]
    parsed_sizes = [frame.size_bytes for frame in parsed.frames]
    if parsed_sizes != original_sizes:
        violations.append(InvariantViolation(
            "roundtrip", "frame sizes changed across serialize/deserialize"))
        return
    direct = VideoDecoder().decode_video(encoded)
    reparsed = VideoDecoder().decode_video(parsed)
    for index in range(direct.metadata.num_frames):
        if not np.array_equal(direct.frame(index).data,
                              reparsed.frame(index).data):
            violations.append(InvariantViolation(
                "roundtrip",
                f"decoded frame {index} differs between the in-memory and "
                f"re-parsed bitstreams"))
            return


def _check_iframe_storm(encoded: EncodedVideo,
                        parameters: EncoderParameters,
                        violations: List[InvariantViolation]) -> None:
    keyframes = encoded.keyframe_indices
    if not keyframes or keyframes[0] != 0:
        violations.append(InvariantViolation(
            "iframe_storm", f"first frame is not an I-frame: {keyframes[:3]}"))
        return
    floor = parameters.effective_min_gop
    for previous, current in zip(keyframes, keyframes[1:]):
        gap = current - previous
        if gap < floor:
            violations.append(InvariantViolation(
                "iframe_storm",
                f"I-frames {previous} and {current} are {gap} frames apart; "
                f"min GOP is {floor}"))
            return
        if gap > parameters.gop_size:
            violations.append(InvariantViolation(
                "iframe_storm",
                f"I-frames {previous} and {current} are {gap} frames apart; "
                f"the forced-refresh bound is {parameters.gop_size}"))
            return
    tail = encoded.num_frames - 1 - keyframes[-1]
    if tail > parameters.gop_size:
        violations.append(InvariantViolation(
            "iframe_storm",
            f"{tail} trailing frames after the last I-frame exceed "
            f"gop_size={parameters.gop_size}"))


def _check_tuner(activities, timeline,
                 violations: List[InvariantViolation]) -> None:
    tuner = SemanticEncoderTuner(FUZZ_GRID, base_parameters=FUZZ_PARAMETERS)
    result = tuner.tune_from_activities(activities, timeline)
    grid_configs = FUZZ_GRID.configurations(FUZZ_PARAMETERS)
    if result.best.parameters not in grid_configs:
        violations.append(InvariantViolation(
            "tuner", f"best configuration {result.best.parameters.describe()} "
                     f"is not a member of the grid"))
    if not 0.0 <= result.best.score.f1 <= 1.0:
        violations.append(InvariantViolation(
            "tuner", f"best F1 {result.best.score.f1} outside [0, 1]"))
    if len(result.results) != FUZZ_GRID.num_configurations:
        violations.append(InvariantViolation(
            "tuner", f"grid search returned {len(result.results)} results "
                     f"for {FUZZ_GRID.num_configurations} configurations"))
    replay = SemanticEncoderTuner(
        FUZZ_GRID, base_parameters=FUZZ_PARAMETERS).tune_from_activities(
            activities, timeline)
    if (replay.best.parameters != result.best.parameters
            or replay.best.score.f1 != result.best.score.f1):
        violations.append(InvariantViolation(
            "tuner", "replaying the identical grid search changed the "
                     "winner — the tie-break contract is broken"))


def _fleet_jobs(composition: ScenarioComposition,
                encoded: EncodedVideo) -> List[CameraJob]:
    """Derive a deterministic parity fleet from the encoded composition."""
    total_bytes = sum(frame.size_bytes for frame in encoded.frames)
    inference_frames = max(len(encoded.keyframe_indices), 1)
    return [
        CameraJob(camera=f"{composition.spec}#{index}",
                  video=composition.spec,
                  num_frames=encoded.num_frames,
                  frames_for_inference=inference_frames + index,
                  edge_seconds=0.2 + 0.03 * index,
                  cloud_seconds=0.1 + 0.02 * index,
                  camera_edge_bytes=total_bytes + 1000 * index,
                  edge_cloud_bytes=max(total_bytes // 8, 1) + 500 * index)
        for index in range(FLEET_CAMERAS)
    ]


def _check_fleet_parity(composition: ScenarioComposition,
                        encoded: EncodedVideo,
                        violations: List[InvariantViolation]) -> None:
    orchestrator = FleetOrchestrator(_fleet_jobs(composition, encoded),
                                     num_edge_servers=2)
    mismatches = orchestrator._run_chain().parity_mismatches(
        orchestrator.run(), PARITY_TOLERANCE)
    if mismatches:
        violations.append(InvariantViolation(
            "fleet_parity", "; ".join(mismatches)))


def check_composition(composition: ScenarioComposition) -> FuzzResult:
    """Run the full invariant set over one composition.

    Args:
        composition: The fuzzed point to check.

    Returns:
        A :class:`FuzzResult`; ``result.ok`` means every invariant held.
    """
    violations: List[InvariantViolation] = []
    try:
        profile = composition.build_profile()
        scene = SyntheticScene(profile)
        video = scene.video().materialise()
        encoder = VideoEncoder(FUZZ_PARAMETERS)
        activities = encoder.analyze(video)
        encoded = encoder.encode(video, True, activities)
        _check_roundtrip(encoded, violations)
        _check_iframe_storm(encoded, FUZZ_PARAMETERS, violations)
        _check_tuner(activities, scene.script.timeline(), violations)
        _check_fleet_parity(composition, encoded, violations)
    except Exception as exc:  # noqa: BLE001 - a crash IS a finding
        violations.append(InvariantViolation(
            "crash", f"{type(exc).__name__}: {exc}"))
    return FuzzResult(composition=composition, violations=violations)


@dataclass
class FuzzRun:
    """Outcome of a full fuzz budget."""

    root_seed: int
    results: List[FuzzResult]
    repro_paths: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[FuzzResult]:
        return [result for result in self.results if not result.ok]

    def lines(self) -> List[str]:
        """The deterministic document CI diffs across same-seed runs."""
        lines = [f"# scenario fuzz: budget={len(self.results)} "
                 f"seed={self.root_seed}"]
        for index, result in enumerate(self.results):
            lines.append(f"{index:03d} {result.summary()}")
        lines.append(f"# {len(self.failures)} failure(s) "
                     f"/ {len(self.results)} compositions")
        return lines


def run_fuzz(budget: int, root_seed: int, *,
             out_dir: Optional[str] = None) -> FuzzRun:
    """Check ``budget`` sampled compositions; write repros for failures.

    Args:
        budget: Number of compositions to sample and check.
        root_seed: Root seed; the whole run is a pure function of it.
        out_dir: Directory for ``repro_NNN.json`` files (failures only).

    Returns:
        The :class:`FuzzRun` (summary lines, per-composition results,
        paths of any repro files written).
    """
    results: List[FuzzResult] = []
    repro_paths: List[str] = []
    for index in range(budget):
        rng = make_rng(root_seed, "scenario-fuzz", str(index))
        composition = sample_composition(rng)
        result = check_composition(composition)
        results.append(result)
        if not result.ok and out_dir is not None:
            import os
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"repro_{index:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(composition.to_json() + "\n")
            repro_paths.append(path)
    return FuzzRun(root_seed=root_seed, results=results,
                   repro_paths=repro_paths)
