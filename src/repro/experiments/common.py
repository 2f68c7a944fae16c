"""Shared configuration, caching and formatting for the experiment harnesses.

Every table/figure module accepts an :class:`ExperimentConfig` controlling
the synthetic-footage scale.  The defaults regenerate the paper's result
*shapes* in a few minutes on a laptop CPU; shorter settings serve the test
suite, and longer/larger settings can be passed for higher-fidelity runs.

This module also owns the one artifact cache the harnesses share, kept in
memory for the life of the process:

* **Prepared datasets** (rendered clip + codec analysis pass), keyed by
  :func:`_dataset_key`;
* **Workloads** (the condensed per-video simulation inputs: tuned
  parameters' encode sizes, per-method sample sets), keyed by
  :func:`_workload_key`.

Figures 3-5, Tables I-III and the examples prepare the same clips, so each
is rendered once per process.  Nothing is stored between processes: the
footage is procedural, so a clip is a function of its key.

:class:`WorkloadBuilder` fans cold builds out over
``SystemConfig.build_workers`` processes.  Each worker runs
:func:`prepare_dataset` / :func:`prepare_workload` and the pool returns the
result, which the parent puts into the cache under the same key.

Cache activity is observable through :mod:`repro.perf` stage sections:
``dataset.render`` / ``dataset.analyze`` and ``workload.build`` record cold
builds in this process, ``workload.parallel_build`` a fan-out.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..codec.encoder import VideoEncoder
from ..codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from ..codec.scenecut import FrameActivity
from ..config import POSITIVE, SystemConfig, real_number
from ..core.pipeline import (H264_EFFICIENCY_FACTOR, VideoWorkload,
                             build_workload)
from ..datasets.generator import DatasetInstance, build_dataset
from ..datasets.registry import LABELLED_DATASETS, TABLE_I
from ..errors import ConfigurationError
from ..logging_utils import get_logger
from ..perf import section as perf_section

_LOGGER = get_logger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale of the synthetic footage used by an experiment run.

    Attributes:
        duration_seconds: Length of every rendered clip.
        render_scale: Resolution scale applied to the nominal resolutions.
        datasets: Dataset names included in the run, stored as a tuple of
            Table I names.
    """

    duration_seconds: float = 60.0
    render_scale: float = 0.12
    datasets: Sequence[str] = LABELLED_DATASETS

    def __post_init__(self) -> None:
        for name in ("duration_seconds", "render_scale"):
            real_number(getattr(self, name), name, **POSITIVE)
        # A bare string is iterable too, but as its letters.
        if isinstance(self.datasets, (str, bytes)) or not isinstance(
                self.datasets, Iterable):
            raise ConfigurationError(
                f"datasets must be a sequence of dataset names, got "
                f"{self.datasets!r}")
        datasets = tuple(self.datasets)
        unknown = [name for name in datasets
                   if not (isinstance(name, str) and name in TABLE_I)]
        if unknown:
            raise ConfigurationError(
                f"unknown datasets {unknown!r}; expected names from "
                f"{sorted(TABLE_I)}")
        object.__setattr__(self, "datasets", datasets)


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


#: Prepared datasets of this process, keyed by :func:`_dataset_key`.
_PREPARED_CACHE: Dict[tuple, PreparedDataset] = {}

#: Built workloads of this process, keyed by :func:`_workload_key`.
_WORKLOAD_CACHE: Dict[tuple, VideoWorkload] = {}


def _dataset_key(name: str, config: ExperimentConfig, split: str,
                 base_parameters: EncoderParameters) -> tuple:
    """Everything :func:`prepare_dataset`'s output is derived from: the
    rendered footage (dataset, split, duration, render scale) and the
    analysis pass's encoder parameters."""
    return (name, split, float(config.duration_seconds),
            float(config.render_scale), base_parameters)


def _workload_key(name: str, config: ExperimentConfig, split: str,
                  system_config: SystemConfig,
                  base_parameters: EncoderParameters, target_f1: float,
                  unlabelled_sample_period_seconds: float) -> tuple:
    """Everything :func:`prepare_workload`'s output is derived from."""
    return (_dataset_key(name, config, split, base_parameters),
            tuple(system_config.nn_input_resolution), float(target_f1),
            float(unlabelled_sample_period_seconds),
            float(H264_EFFICIENCY_FACTOR))


def prepare_dataset(name: str, config: ExperimentConfig, split: str = "test",
                    base_parameters: EncoderParameters = EncoderParameters()
                    ) -> PreparedDataset:
    """Render one dataset clip and run the codec analysis pass over it.

    Results are cached in-process under :func:`_dataset_key` and shared
    across every harness.  Callers receive the shared instance and must
    not mutate it.
    """
    key = _dataset_key(name, config, split, base_parameters)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        prepared = _PREPARED_CACHE[key] = _prepare_dataset_uncached(
            name, config, split, base_parameters)
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


def prepare_workload(name: str, config: ExperimentConfig, split: str = "full",
                     system_config: Optional[SystemConfig] = None,
                     base_parameters: EncoderParameters = DEFAULT_PARAMETERS,
                     target_f1: float = 0.95,
                     unlabelled_sample_period_seconds: float = 5.0
                     ) -> VideoWorkload:
    """Build (or reuse) the end-to-end workload of one dataset.

    The heavy stages — offline tuning, the two size-only encodes, the MSE
    baseline fit — run once per process and key (:func:`_workload_key`);
    the footage comes from :func:`prepare_dataset`.
    """
    system_config = system_config or SystemConfig()
    key = _workload_key(name, config, split, system_config, base_parameters,
                        target_f1, unlabelled_sample_period_seconds)
    workload = _WORKLOAD_CACHE.get(key)
    if workload is None:
        prepared = prepare_dataset(name, config, split, base_parameters)
        with perf_section("workload.build"):
            workload = build_workload(prepared.instance, config=system_config,
                                      default_parameters=base_parameters,
                                      target_f1=target_f1,
                                      unlabelled_sample_period_seconds=(
                                          unlabelled_sample_period_seconds),
                                      activities=prepared.activities)
        _WORKLOAD_CACHE[key] = workload
    return workload


class WorkloadBuilder:
    """Build experiment workloads, fanning out across processes.

    With ``system_config.build_workers > 1`` and more than one artifact
    missing from this process's cache, each missing artifact is built by
    :func:`prepare_dataset` / :func:`prepare_workload` in a worker
    process, and the pool returns it into the cache under its key.  The
    results are then read off the cache in the caller's order, so they
    equal the serial build's whatever the worker count or completion
    order.  The fan-out is best-effort: a pool that cannot start, a
    killed worker or a result the pool cannot return leaves its artifacts
    missing, and the serial pass builds them here.

    Args:
        config: Footage scale shared by every artifact.
        system_config: Simulation config; its ``build_workers`` is the
            worker count (``1`` is the serial path).
    """

    def __init__(self, config: ExperimentConfig,
                 system_config: Optional[SystemConfig] = None) -> None:
        self.config = config
        self.system_config = system_config or SystemConfig()

    def prepare_datasets(
            self, names: Optional[Sequence[str]] = None, split: str = "test",
            base_parameters: EncoderParameters = EncoderParameters()
            ) -> Dict[str, PreparedDataset]:
        """Prepare every named dataset (rendered clip + analysis pass).

        Returns ``{name: PreparedDataset}`` in input order.
        """
        matrix = self.prepare_dataset_splits(names, (split,), base_parameters)
        return {name: prepared for (name, _), prepared in matrix.items()}

    def prepare_dataset_splits(
            self, names: Optional[Sequence[str]] = None,
            splits: Sequence[str] = ("test",),
            base_parameters: EncoderParameters = EncoderParameters()
            ) -> Dict[Tuple[str, str], PreparedDataset]:
        """Prepare the ``names x splits`` matrix of datasets; each cell is
        its own artifact, so e.g. Table II's train/test pairs build
        concurrently."""
        tasks = [(name, self.config, split, base_parameters)
                 for name in self._names(names) for split in splits]
        self._fan_out(prepare_dataset, _dataset_key, _PREPARED_CACHE, tasks)
        return {(task[0], task[2]): prepare_dataset(*task) for task in tasks}

    def build_workloads(
            self, names: Optional[Sequence[str]] = None, split: str = "full",
            base_parameters: EncoderParameters = DEFAULT_PARAMETERS,
            target_f1: float = 0.95,
            unlabelled_sample_period_seconds: float = 5.0
            ) -> List[VideoWorkload]:
        """Build one :class:`VideoWorkload` per named dataset, in order."""
        tasks = [(name, self.config, split, self.system_config,
                  base_parameters, target_f1, unlabelled_sample_period_seconds)
                 for name in self._names(names)]
        self._fan_out(prepare_workload, _workload_key, _WORKLOAD_CACHE, tasks)
        return [prepare_workload(*task) for task in tasks]

    def _names(self, names: Optional[Sequence[str]]) -> List[str]:
        return list(self.config.datasets if names is None else names)

    def _fan_out(self, build: Callable, key: Callable,
                 cache: Dict[tuple, object], tasks: List[tuple]) -> None:
        """Run ``build(*task)`` in worker processes for every task whose
        ``key(*task)`` is not in ``cache``, and store each result there
        (both functions take :func:`prepare_dataset`'s or
        :func:`prepare_workload`'s arguments)."""
        missing = {key(*task): task for task in tasks}
        missing = {cell: task for cell, task in missing.items()
                   if cell not in cache}
        workers = min(self.system_config.build_workers, len(missing))
        if workers <= 1:
            return
        lost: List[BaseException] = []
        try:
            with perf_section("workload.parallel_build"), \
                    ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {cell: pool.submit(build, *task)
                           for cell, task in missing.items()}
                # One future at a time: a killed worker or an unreturnable
                # result loses its own tasks, not the others' results.
                for cell, future in futures.items():
                    try:
                        cache[cell] = future.result()
                    except Exception as error:  # noqa: BLE001
                        lost.append(error)
        except Exception as error:  # noqa: BLE001 - the pool itself failed
            lost.append(error)
        if lost:
            _LOGGER.warning(
                "parallel workload build lost %d task(s) (%s: %s); "
                "the serial pass rebuilds them", len(lost),
                type(lost[-1]).__name__, lost[-1])


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
