"""Parallel workload building: prepare/tune datasets across processes.

This module parallelises the dominant cold-start cost, workload
*building* — dataset render -> codec analysis -> offline tuning -> the two
size-only encodes.  The stages of one dataset form a strict chain, but
different datasets are completely independent, and every intermediate
artifact already flows through the content-keyed on-disk cache
(:mod:`repro.datasets.diskcache`).  That cache is what makes an exact
parallel decomposition trivial:

1. **Workers** (one task per ``(artifact, dataset, split)``, sharded over a
   ``ProcessPoolExecutor``) each run the ordinary serial build of their
   dataset — the same :func:`~repro.experiments.common.prepare_dataset` /
   :func:`~repro.experiments.common.prepare_workload` code path — which
   persists the prepared-dataset and workload bundles under their per-task
   content keys.  Tasks never share a key, so workers never contend on an
   entry; two builders racing the *same* corpus at worst double-render one
   entry (the loser's atomic rename overwrites identical bytes).
2. **The parent** then assembles the results in the caller's dataset
   order by running the very same serial path, which now finds every
   artifact on disk.  The assembled workload objects are reconstructed
   from the same bundles a warm serial session would read, and the cache
   artifacts were produced by the same serialisation code the serial
   build runs — so parallel builds are **byte-identical** on disk and
   value-identical in memory to serial builds, regardless of worker count
   or completion order.

``SystemConfig.build_workers == 1`` (the default) bypasses the fan-out
entirely; the parity of the two paths is pinned by
``tests/parallel/test_workload_builder.py``.  Workers inherit
``REPRO_CACHE_DIR`` through the environment.  When process pools are
unavailable (restricted sandboxes) the builder degrades to the serial path:
same results, no parallelism.  So does a cache directory that cannot be
written: the workers' stores fail quietly, and the parent's assembly pass
recomputes every artifact itself.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..codec.gop import DEFAULT_PARAMETERS, EncoderParameters
from ..config import SystemConfig, whole_number
from ..errors import ConfigurationError
from ..logging_utils import get_logger
from ..perf import section as perf_section

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only.
    from ..core.pipeline import VideoWorkload
    from ..experiments.common import ExperimentConfig, PreparedDataset

_LOGGER = get_logger(__name__)

#: Artifact kinds a :class:`BuildTask` can produce.
DATASET_ARTIFACT = "dataset"
WORKLOAD_ARTIFACT = "workload"


@dataclass(frozen=True)
class BuildTask:
    """One dataset's build, shipped to a worker process.

    Every field is a plain value or frozen dataclass, so the task pickles
    across the pool boundary; the worker rebuilds the artifact through the
    ordinary serial code path, persisting it under the task's content key.

    Attributes:
        artifact: ``"dataset"`` (render + analysis pass) or ``"workload"``
            (render + analysis + tuning + both size-only encodes).
        name: Dataset name.
        split: Dataset split.
        config: Footage scale.
        base_parameters: Analysis-pass encoder parameters.
        system_config: Simulation config (workload tasks only).
        target_f1: Tuning target (workload tasks only).
        unlabelled_sample_period_seconds: Fallback sampling period for
            unlabelled datasets (workload tasks only).
    """

    artifact: str
    name: str
    split: str
    config: "ExperimentConfig"
    base_parameters: EncoderParameters = DEFAULT_PARAMETERS
    system_config: Optional[SystemConfig] = None
    target_f1: float = 0.95
    unlabelled_sample_period_seconds: float = 5.0


def execute_build_task(task: BuildTask) -> Tuple[str, str, str]:
    """Worker entry point: run one task's serial build, warming the cache.

    Must stay importable at module level (and its argument picklable) for
    the process pool.  Returns ``(artifact, name, split)`` as a completion
    token; the heavy results travel through the on-disk cache, not the
    pickle channel.
    """
    from ..experiments.common import prepare_dataset, prepare_workload
    if task.artifact == WORKLOAD_ARTIFACT:
        prepare_workload(
            task.name, task.config, task.split, task.system_config,
            task.base_parameters, task.target_f1,
            task.unlabelled_sample_period_seconds)
    elif task.artifact == DATASET_ARTIFACT:
        prepare_dataset(task.name, task.config, task.split,
                        task.base_parameters)
    else:
        raise ConfigurationError(f"unknown build artifact {task.artifact!r}")
    return (task.artifact, task.name, task.split)


class WorkloadBuilder:
    """Build experiment workloads, optionally fanning out across processes.

    Args:
        config: Footage scale shared by every task.
        system_config: Simulation config; its ``build_workers`` is the
            default worker count.
        build_workers: Worker-process override (``None`` defers to
            ``system_config.build_workers``; ``1`` is the serial path).
    """

    def __init__(self, config: "ExperimentConfig",
                 system_config: Optional[SystemConfig] = None,
                 build_workers: Optional[int] = None) -> None:
        self.config = config
        self.system_config = system_config or SystemConfig()
        self.build_workers = whole_number(
            self.system_config.build_workers if build_workers is None
            else build_workers, "build_workers", least=1)

    # ------------------------------------------------------------------ #
    # Public build surfaces
    # ------------------------------------------------------------------ #
    def prepare_datasets(
            self, names: Optional[Sequence[str]] = None, split: str = "test",
            base_parameters: EncoderParameters = EncoderParameters()
            ) -> Dict[str, "PreparedDataset"]:
        """Prepare every named dataset (rendered clip + analysis pass).

        Returns ``{name: PreparedDataset}`` in input order; equal to the
        serial :func:`repro.experiments.common.prepare_dataset` results.
        """
        matrix = self.prepare_dataset_splits(names, (split,), base_parameters)
        return {name: prepared for (name, _), prepared in matrix.items()}

    def prepare_dataset_splits(
            self, names: Optional[Sequence[str]] = None,
            splits: Sequence[str] = ("test",),
            base_parameters: EncoderParameters = EncoderParameters()
            ) -> Dict[Tuple[str, str], "PreparedDataset"]:
        """Prepare the ``names x splits`` matrix of datasets.

        Each ``(name, split)`` cell is an independent task (its own content
        key), so e.g. Table II's train/test pairs build concurrently.
        """
        from ..experiments.common import prepare_dataset
        names = list(self.config.datasets if names is None else names)
        tasks = [
            BuildTask(artifact=DATASET_ARTIFACT, name=name, split=split,
                      config=self.config, base_parameters=base_parameters)
            for name in names for split in splits
        ]
        self._warm(tasks)
        return {
            (name, split): prepare_dataset(name, self.config, split,
                                           base_parameters)
            for name in names for split in splits
        }

    def build_workloads(
            self, names: Optional[Sequence[str]] = None, split: str = "full",
            base_parameters: EncoderParameters = DEFAULT_PARAMETERS,
            target_f1: float = 0.95,
            unlabelled_sample_period_seconds: float = 5.0
            ) -> List["VideoWorkload"]:
        """Build one :class:`VideoWorkload` per named dataset, in order.

        The heavy stages run in worker processes when ``build_workers > 1``
        (writing the ordinary cache artifacts); the returned list is always
        assembled deterministically by dataset order in the parent and is
        equal to the serial result.
        """
        from ..experiments.common import prepare_workload
        names = list(self.config.datasets if names is None else names)
        tasks = [
            BuildTask(artifact=WORKLOAD_ARTIFACT, name=name, split=split,
                      config=self.config, base_parameters=base_parameters,
                      system_config=self.system_config, target_f1=target_f1,
                      unlabelled_sample_period_seconds=(
                          unlabelled_sample_period_seconds))
            for name in names
        ]
        self._warm(tasks)
        return [
            prepare_workload(name, self.config, split,
                             self.system_config, base_parameters,
                             target_f1, unlabelled_sample_period_seconds)
            for name in names
        ]

    # ------------------------------------------------------------------ #
    # Fan-out machinery
    # ------------------------------------------------------------------ #
    def _warm(self, tasks: Sequence[BuildTask]) -> None:
        """Run ``tasks`` across worker processes, warming the disk cache.

        Best-effort by design: the parent's assembly pass recomputes
        anything a worker failed to persist, so a broken pool, a worker
        crash, or a read-only cache degrade to the serial path rather
        than failing the build.  Real build errors (a dataset that cannot
        render) surface from the assembly pass either way.
        """
        if self.build_workers <= 1 or len(tasks) <= 1:
            return
        workers = min(self.build_workers, len(tasks))
        failures = 0
        last_error: Optional[BaseException] = None
        try:
            with perf_section("workload.parallel_warm"):
                # One pool submission per task: the pool's queue balances
                # uneven task costs dynamically (tasks never share a cache
                # key, so any assignment of tasks to workers is correct).
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for future in [pool.submit(execute_build_task, task)
                                   for task in tasks]:
                        # Collect per future: one crashed worker (or one
                        # broken task) must not discard the artifacts the
                        # other workers already persisted.
                        try:
                            future.result()
                        except Exception as error:  # noqa: BLE001
                            failures += 1
                            last_error = error
        except Exception as error:  # noqa: BLE001 - pool-level failure
            failures += 1
            last_error = error
        if failures:
            _LOGGER.warning(
                "parallel workload warm-up lost %d task(s) (%s: %s); "
                "the serial assembly pass will rebuild them",
                failures, type(last_error).__name__, last_error)

