"""Shared configuration, caching and formatting for the experiment harnesses.

Every table/figure module accepts an :class:`ExperimentConfig` controlling
the synthetic-footage scale.  The defaults regenerate the paper's result
*shapes* in a few minutes on a laptop CPU; shorter settings serve the test
suite, and longer/larger settings can be passed for higher-fidelity runs.

This module also owns the two-level artifact cache the harnesses share:

* **Prepared datasets** (rendered clip + codec analysis pass) are cached
  in-process *and* persisted through :mod:`repro.datasets.diskcache`, so a
  second Python session with a warm ``REPRO_CACHE_DIR`` skips the render
  and the analysis lookahead entirely.
* **Workloads** (the condensed per-video simulation inputs: tuned
  parameters' encode sizes, per-method sample sets) are cached the same
  way under a key extending the dataset key, so warm runs also skip the
  offline tuning and both size-only encodes.

Cache activity is observable through :mod:`repro.perf` stage sections
(``dataset.render`` / ``dataset.analyze`` / ``dataset.disk_hit`` and
``workload.build`` / ``workload.disk_hit`` / ``workload.parallel_warm``) —
the warm-session acceptance test asserts that a warm run records no
``dataset.render`` section.  There is one build path: a cache directory that
cannot be written means every run recomputes, since a failed store is
caught and dropped, never raised.

Builds can fan out across processes: the experiment harnesses accept a
``build_workers`` count (default ``SystemConfig.build_workers``) and route
through :class:`repro.parallel.WorkloadBuilder`, which warms the disk cache
from worker processes and assembles identical results here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..codec.encoder import VideoEncoder
from ..codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from ..codec.scenecut import FrameActivity
from ..config import POSITIVE, SystemConfig, real_number
from ..datasets import diskcache
from ..datasets.generator import DatasetInstance, build_dataset
from ..datasets.registry import LABELLED_DATASETS, get_dataset
from ..perf import section as perf_section
from ..video.events import Event, EventTimeline
from ..video.frame import Frame, Resolution
from ..video.raw_video import RawVideo, VideoMetadata


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale of the synthetic footage used by an experiment run.

    Attributes:
        duration_seconds: Length of every rendered clip.
        render_scale: Resolution scale applied to the nominal resolutions.
        datasets: Dataset names included in the run.
    """

    duration_seconds: float = 60.0
    render_scale: float = 0.12
    datasets: Sequence[str] = LABELLED_DATASETS

    def __post_init__(self) -> None:
        for name in ("duration_seconds", "render_scale"):
            real_number(getattr(self, name), name, **POSITIVE)


@dataclass
class PreparedDataset:
    """A dataset clip plus its (cached) codec analysis pass.

    Attributes:
        instance: The rendered clip and ground truth.
        activities: Per-frame scene-cut analysis (parameter independent).
    """

    instance: DatasetInstance
    activities: List[FrameActivity] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Dataset name."""
        return self.instance.name

    @property
    def video(self):
        """The clip itself."""
        return self.instance.video

    @property
    def timeline(self):
        """Ground-truth timeline (``None`` for unlabelled datasets)."""
        return self.instance.timeline


#: In-process (L1) cache of prepared datasets, keyed by everything that
#: affects the result (see :func:`_cache_key`).  Rendering a clip and running
#: the analysis pass dominate harness start-up, yet Figures 3-5, Tables 1-3
#: and the examples all prepare the same clips — the cache makes every repeat
#: preparation free.  The persistent (L2) layer lives in
#: :mod:`repro.datasets.diskcache`.
_PREPARED_CACHE: Dict[tuple, PreparedDataset] = {}

#: In-process (L1) cache of built workloads (see :func:`prepare_workload`),
#: mapping key tuples to :class:`~repro.core.pipeline.VideoWorkload`.
_WORKLOAD_CACHE: Dict[tuple, object] = {}

#: Disk-cache artifact kinds (directory names under ``REPRO_CACHE_DIR``).
DATASET_CACHE_KIND = "prepared-dataset"
WORKLOAD_CACHE_KIND = "workload"


def _cache_key(name: str, config: ExperimentConfig, split: str,
               base_parameters: EncoderParameters) -> tuple:
    """Content key of one prepared dataset.

    Covers the rendered footage (dataset, split, duration, render scale) and
    the analysis pass configuration (the encoder parameters), i.e. every
    input :func:`prepare_dataset` derives its output from.
    """
    return (name, split, float(config.duration_seconds),
            float(config.render_scale), base_parameters)


def prepare_dataset(name: str, config: ExperimentConfig, split: str = "test",
                    base_parameters: EncoderParameters = EncoderParameters()
                    ) -> PreparedDataset:
    """Render one dataset clip and run the codec analysis pass over it.

    Results are cached in-process under a content key (dataset name, split,
    duration, render scale, encoder parameters), persisted to the on-disk
    cache under ``REPRO_CACHE_DIR``, and shared across every harness.
    Callers receive the shared instance and must not mutate it.
    """
    key = _cache_key(name, config, split, base_parameters)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        disk_key = diskcache.content_key(DATASET_CACHE_KIND, *key)
        prepared = _load_prepared_from_disk(name, config, split, disk_key)
        if prepared is None:
            prepared = _prepare_dataset_uncached(name, config, split,
                                                 base_parameters)
            _store_prepared_to_disk(disk_key, name, config, split, prepared)
        _PREPARED_CACHE[key] = prepared
    return prepared


#: Clips whose raw frames would exceed this stay lazily generated; at the
#: default scales a dataset is a few tens of megabytes, but the env-driven
#: high-fidelity scales (full resolution, minutes of footage) would run to
#: gigabytes per dataset if materialised.
MATERIALISE_LIMIT_BYTES = 256 * 1024 * 1024


def _prepare_dataset_uncached(name: str, config: ExperimentConfig, split: str,
                              base_parameters: EncoderParameters
                              ) -> PreparedDataset:
    with perf_section("dataset.render"):
        instance = build_dataset(name, duration_seconds=config.duration_seconds,
                                 render_scale=config.render_scale, split=split)
        # Materialise the synthetic clip when it fits comfortably in memory:
        # the harnesses stream a prepared video several times (analysis, two
        # encodes, the MSE baseline), and lazily generated frames would be
        # re-rendered on every pass.
        video = instance.video
        if hasattr(video, "materialise"):
            frame_bytes = video.frame(0).data.nbytes
            if frame_bytes * video.metadata.num_frames <= MATERIALISE_LIMIT_BYTES:
                instance.video = video.materialise()
    with perf_section("dataset.analyze"):
        activities = VideoEncoder(base_parameters).analyze(instance.video)
    return PreparedDataset(instance=instance, activities=activities)


# --------------------------------------------------------------------------- #
# Prepared-dataset (de)serialisation for the on-disk cache
# --------------------------------------------------------------------------- #
def _timeline_to_payload(timeline: Optional[EventTimeline]):
    """Timeline -> (arrays, manifest fragment); ``(None, None)`` when absent."""
    if timeline is None:
        return {}, None
    starts = np.array([event.start_frame for event in timeline.events],
                      dtype=np.int64)
    ends = np.array([event.end_frame for event in timeline.events],
                    dtype=np.int64)
    labels = [sorted(event.labels) for event in timeline.events]
    return ({"timeline_starts": starts, "timeline_ends": ends},
            {"timeline_labels": labels})


def _timeline_from_payload(arrays, manifest) -> Optional[EventTimeline]:
    labels = manifest.get("timeline_labels")
    if labels is None:
        return None
    events = [Event(int(start), int(end), frozenset(event_labels))
              for start, end, event_labels in zip(
                  arrays["timeline_starts"], arrays["timeline_ends"], labels)]
    return EventTimeline(events)


def _activities_to_arrays(activities: List[FrameActivity]) -> Dict[str, np.ndarray]:
    return {
        "activity_frame_index": np.array(
            [a.frame_index for a in activities], dtype=np.int64),
        "activity_novel": np.array(
            [a.novel_block_fraction for a in activities], dtype=np.float64),
        "activity_is_first": np.array(
            [a.is_first for a in activities], dtype=np.bool_),
    }


def _activities_from_arrays(arrays) -> List[FrameActivity]:
    return [
        FrameActivity(frame_index=int(index), novel_block_fraction=float(novel),
                      is_first=bool(first))
        for index, novel, first in zip(arrays["activity_frame_index"],
                                       arrays["activity_novel"],
                                       arrays["activity_is_first"])
    ]


def _store_prepared_to_disk(disk_key: str, name: str, config: ExperimentConfig,
                            split: str, prepared: PreparedDataset) -> bool:
    """Persist a prepared dataset; returns whether it was written.

    Only materialised clips are persisted — a clip that stayed lazily
    generated (because it exceeded :data:`MATERIALISE_LIMIT_BYTES`) would be
    as expensive to serialise as to re-render.
    """
    video = prepared.instance.video
    if not isinstance(video, RawVideo):
        return False
    try:
        arrays: Dict[str, np.ndarray] = {
            "frames": np.stack(video.as_arrays()),
        }
        arrays.update(_activities_to_arrays(prepared.activities))
        timeline_arrays, timeline_manifest = _timeline_to_payload(video.timeline)
        arrays.update(timeline_arrays)
        manifest: Dict[str, object] = {
            "dataset": name,
            "split": split,
            "duration_seconds": float(config.duration_seconds),
            "render_scale": float(config.render_scale),
            "video_name": video.metadata.name,
            "fps": float(video.metadata.fps),
            "profile_seed": prepared.instance.profile.seed,
        }
        if timeline_manifest:
            manifest.update(timeline_manifest)
        diskcache.store(DATASET_CACHE_KIND, disk_key, arrays, manifest)
        return True
    except OSError:
        # A read-only or full cache directory must never fail a run.
        return False


def _load_prepared_from_disk(name: str, config: ExperimentConfig, split: str,
                             disk_key: str) -> Optional[PreparedDataset]:
    # The section is recorded only on an actual hit, but must cover the
    # whole hit cost — the np.load/decompress included — so it is timed
    # with a stopwatch and folded in at the end.
    from ..perf import Stopwatch, get_recorder
    watch = Stopwatch().start()
    loaded = diskcache.load(DATASET_CACHE_KIND, disk_key)
    if loaded is None:
        return None
    arrays, manifest = loaded
    try:
        spec = get_dataset(name)
        profile = spec.build_profile(
            duration_seconds=config.duration_seconds,
            render_scale=config.render_scale,
            seed=int(manifest["profile_seed"]))
        timeline = _timeline_from_payload(arrays, manifest)
        fps = float(manifest["fps"])
        stacked = arrays["frames"]
        frames = [Frame(index=index, data=stacked[index],
                        timestamp=index / fps)
                  for index in range(stacked.shape[0])]
        metadata = VideoMetadata(
            name=str(manifest["video_name"]),
            resolution=Resolution(stacked.shape[2], stacked.shape[1]),
            fps=fps,
            num_frames=len(frames),
            extra={"synthetic": True, "seed": profile.seed})
        video = RawVideo(metadata, frames, timeline)
        instance = DatasetInstance(spec=spec, profile=profile, video=video,
                                   split=split)
        activities = _activities_from_arrays(arrays)
        prepared = PreparedDataset(instance=instance, activities=activities)
    except Exception:
        # Treat any malformed entry exactly like a miss.
        diskcache.evict(DATASET_CACHE_KIND, disk_key)
        return None
    get_recorder().add_section_time("dataset.disk_hit", watch.stop())
    return prepared


# --------------------------------------------------------------------------- #
# Workload-level cache
# --------------------------------------------------------------------------- #
def _workload_key_parts(name: str, config: ExperimentConfig, split: str,
                        base_parameters: EncoderParameters,
                        system_config: SystemConfig, target_f1: float,
                        unlabelled_sample_period_seconds: float) -> tuple:
    """Everything :func:`prepare_workload`'s output is derived from."""
    from ..core.pipeline import H264_EFFICIENCY_FACTOR
    return (WORKLOAD_CACHE_KIND, name, split, float(config.duration_seconds),
            float(config.render_scale), base_parameters,
            tuple(system_config.nn_input_resolution), float(target_f1),
            float(unlabelled_sample_period_seconds),
            float(H264_EFFICIENCY_FACTOR))


def prepare_workload(name: str, config: ExperimentConfig, split: str = "full",
                     system_config: Optional[SystemConfig] = None,
                     base_parameters: EncoderParameters = DEFAULT_PARAMETERS,
                     target_f1: float = 0.95,
                     unlabelled_sample_period_seconds: float = 5.0):
    """Build (or reuse) the end-to-end workload of one dataset.

    The heavy stages — offline tuning, the two size-only encodes, the MSE
    baseline fit — run only on a cold cache; a warm hit reconstructs the
    :class:`~repro.core.pipeline.VideoWorkload` from the on-disk artifact
    without touching the footage at all.

    Returns:
        The prepared :class:`~repro.core.pipeline.VideoWorkload`.
    """
    from ..core.pipeline import build_workload
    system_config = system_config or SystemConfig()
    key_parts = _workload_key_parts(name, config, split, base_parameters,
                                    system_config, target_f1,
                                    unlabelled_sample_period_seconds)
    workload = _WORKLOAD_CACHE.get(key_parts)
    if workload is not None:
        return workload
    disk_key = diskcache.content_key(*key_parts)
    workload = _load_workload_from_disk(name, disk_key)
    if workload is None:
        prepared = prepare_dataset(name, config, split, base_parameters)
        with perf_section("workload.build"):
            workload = build_workload(prepared.instance, config=system_config,
                                      default_parameters=base_parameters,
                                      target_f1=target_f1,
                                      unlabelled_sample_period_seconds=(
                                          unlabelled_sample_period_seconds),
                                      activities=prepared.activities)
        _store_workload_to_disk(disk_key, name, workload)
    _WORKLOAD_CACHE[key_parts] = workload
    return workload


def _store_workload_to_disk(disk_key: str, name: str, workload) -> bool:
    try:
        arrays: Dict[str, np.ndarray] = {
            "semantic_samples": np.asarray(workload.semantic_samples,
                                           dtype=np.int64),
            "mse_samples": np.asarray(workload.mse_samples, dtype=np.int64),
            "uniform_samples": np.asarray(workload.uniform_samples,
                                          dtype=np.int64),
        }
        timeline_arrays, timeline_manifest = _timeline_to_payload(
            workload.timeline)
        arrays.update(timeline_arrays)
        manifest: Dict[str, object] = {
            "dataset": name,
            "workload_name": workload.name,
            "num_frames": int(workload.num_frames),
            "nominal_width": int(workload.nominal_resolution.width),
            "nominal_height": int(workload.nominal_resolution.height),
            "semantic_bytes": int(workload.semantic_bytes),
            "default_bytes": int(workload.default_bytes),
            "semantic_iframe_bytes": int(workload.semantic_iframe_bytes),
            "resized_frame_bytes": int(workload.resized_frame_bytes),
        }
        if timeline_manifest:
            manifest.update(timeline_manifest)
        diskcache.store(WORKLOAD_CACHE_KIND, disk_key, arrays, manifest)
        return True
    except OSError:
        return False


def _load_workload_from_disk(name: str, disk_key: str):
    from ..core.pipeline import VideoWorkload
    from ..perf import Stopwatch, get_recorder
    watch = Stopwatch().start()
    loaded = diskcache.load(WORKLOAD_CACHE_KIND, disk_key)
    if loaded is None:
        return None
    arrays, manifest = loaded
    try:
        workload = VideoWorkload(
            name=str(manifest["workload_name"]),
            num_frames=int(manifest["num_frames"]),
            nominal_resolution=Resolution(int(manifest["nominal_width"]),
                                          int(manifest["nominal_height"])),
            semantic_bytes=int(manifest["semantic_bytes"]),
            default_bytes=int(manifest["default_bytes"]),
            semantic_iframe_bytes=int(manifest["semantic_iframe_bytes"]),
            semantic_samples=[int(i) for i in arrays["semantic_samples"]],
            mse_samples=[int(i) for i in arrays["mse_samples"]],
            uniform_samples=[int(i) for i in arrays["uniform_samples"]],
            resized_frame_bytes=int(manifest["resized_frame_bytes"]),
            timeline=_timeline_from_payload(arrays, manifest),
        )
    except Exception:
        diskcache.evict(WORKLOAD_CACHE_KIND, disk_key)
        return None
    get_recorder().add_section_time("workload.disk_hit", watch.stop())
    return workload


def format_table(rows: Iterable[Dict[str, object]], columns: Sequence[str],
                 title: str = "") -> str:
    """Render rows as a fixed-width text table (what the benchmarks print)."""
    rows = list(rows)
    header = " | ".join(f"{column:>18}" for column in columns)
    separator = "-+-".join("-" * 18 for _ in columns)
    lines = []
    if title:
        lines.append(str(title))
    lines.append(header)
    lines.append(separator)
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4g}")
            else:
                cells.append(f"{str(value):>18}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
