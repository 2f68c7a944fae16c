"""Library-wide configuration objects.

Most components take their own dataclass configs (encoder parameters, scene
profiles, node specs, ...).  This module holds the handful of settings that
are shared across subsystems, most importantly the default hardware
calibration used by the discrete-event cost model that stands in for the
paper's physical edge/cloud testbed.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Dict, Type

from .contracts import (PRECISION_ENV, PRECISION_EXACT, NumericContract,
                        resolve_contract, validate_precision)
from .errors import ConfigurationError, SieveError

#: Default wide-area bandwidth between edge and cloud, from Section V of the
#: paper ("We control the bandwidth from edge to cloud server to be 30 Mbps").
DEFAULT_EDGE_CLOUD_BANDWIDTH_MBPS = 30.0

#: Default local bandwidth between camera and edge (not constrained in the
#: paper; cameras stream over a local network).
DEFAULT_CAMERA_EDGE_BANDWIDTH_MBPS = 100.0

#: Resolution the paper resizes I-frames to before shipping them to the
#: cloud-side YOLO model ("resizing them to the resolution of the YOLO model
#: (i.e., 300x300)").
NN_INPUT_RESOLUTION = (300, 300)


def default_precision() -> str:
    """The default numeric precision mode.

    ``"exact"`` unless the ``REPRO_PRECISION`` environment variable selects
    another mode — which is how the CI matrix leg runs the whole tier-1
    suite under the float32 fast paths without code changes.
    """
    return validate_precision(
        os.environ.get(PRECISION_ENV, PRECISION_EXACT).strip() or PRECISION_EXACT)


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    Resolution order: the scheduling-affinity mask first
    (``len(os.sched_getaffinity(0))`` — it honours container cpusets,
    cgroup CPU pinning and ``taskset`` restrictions, where
    :func:`os.cpu_count` reports the whole machine and over-subscribes
    CI containers), then :func:`os.cpu_count`, then ``1``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:  # absent on macOS/Windows
        try:
            affinity = getaffinity(0)
        except OSError:
            affinity = None
        if affinity:
            return len(affinity)
    return max(os.cpu_count() or 1, 1)


def whole_number(value: object, name: str,
                 error: Type[SieveError] = ConfigurationError) -> int:
    """``value`` as an ``int``; fractions, strings, ``nan`` and ``inf`` are
    refused with ``error`` (a :class:`ConfigurationError` by default)
    rather than truncated."""
    try:
        integral = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        integral = None
    if integral is None or integral != value:
        raise error(
            f"{name} must be a whole number, got {value!r}")
    return integral


def real_number(value: object, name: str,
                error: Type[SieveError] = ConfigurationError) -> Real:
    """``value`` unchanged if it is a real number, else ``error`` (a
    :class:`ConfigurationError` by default).

    A ``bool`` is refused although Python counts it as an integer: ``True``
    as a threshold or a count of seconds is a caller's mistake.  ``nan`` and
    ``inf`` pass; ranges are the caller's to check.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def resolve_worker_count(workers: int, name: str) -> int:
    """Resolve a worker-count setting, treating ``0`` as "auto".

    ``0`` sizes the pool from :func:`available_cpu_count` (affinity mask
    first, then :func:`os.cpu_count`, then ``1``); positive values pass
    through unchanged.
    """
    workers = whole_number(workers, name)
    if workers < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {workers}")
    if workers == 0:
        return available_cpu_count()
    return workers


@dataclass(frozen=True)
class HardwareCalibration:
    """Per-operation costs used by the simulated cluster.

    The values are calibrated to the measurements reported in Section V of
    the paper for the edge desktop (Intel i7-5600) and mirror the relative
    costs the evaluation depends on:

    * I-frame seeking costs ``seek_ms_per_frame_1080p`` scaled by resolution
      (0.43 ms/frame at 1080p, Table III discussion).
    * Full-frame decode costs ``decode_ms_per_frame_1080p`` scaled by
      resolution (8 ms/frame at 1080p).
    * MSE / SIFT similarity add their own per-pixel costs on top of decode.
    * NN inference has a fixed per-frame cost that differs between edge and
      cloud (the cloud Xeon is faster for batch NN serving in the paper's
      setup because it hosts the full model).

    Attributes:
        seek_ms_per_frame_1080p: Metadata-only I-frame seek cost at 1080p.
        decode_ms_per_frame_1080p: Full decode cost per frame at 1080p.
        mse_ms_per_frame_1080p: MSE similarity cost per decoded frame at 1080p.
        sift_ms_per_frame_1080p: SIFT feature+match cost per frame at 1080p.
        jpeg_decode_ms_per_frame_1080p: Still-image decode of one I-frame.
        resize_ms_per_frame: Cost of resizing a decoded frame to the NN input.
        edge_nn_ms_per_frame: NN inference per frame on the edge device.
        cloud_nn_ms_per_frame: NN inference per frame on the cloud server.
        edge_speed_factor: Relative CPU speed of the edge device (1.0 = edge).
        cloud_speed_factor: Relative CPU speed of the cloud server.
    """

    seek_ms_per_frame_1080p: float = 0.43
    decode_ms_per_frame_1080p: float = 11.0
    mse_ms_per_frame_1080p: float = 37.0
    sift_ms_per_frame_1080p: float = 54.0
    jpeg_decode_ms_per_frame_1080p: float = 6.0
    resize_ms_per_frame: float = 1.5
    edge_nn_ms_per_frame: float = 150.0
    cloud_nn_ms_per_frame: float = 45.0
    edge_speed_factor: float = 1.0
    cloud_speed_factor: float = 2.2

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value <= 0:
                raise ConfigurationError(
                    f"HardwareCalibration.{name} must be positive, got {value!r}")

    def as_dict(self) -> Dict[str, float]:
        """Return the calibration as a plain dictionary."""
        return asdict(self)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for an end-to-end SiEVE deployment.

    Attributes:
        edge_cloud_bandwidth_mbps: Simulated WAN bandwidth edge -> cloud.
        camera_edge_bandwidth_mbps: Simulated LAN bandwidth camera -> edge.
        edge_cloud_latency_ms: One-way propagation latency edge -> cloud.
        camera_edge_latency_ms: One-way propagation latency camera -> edge.
        hardware: Per-operation cost calibration.
        nn_input_resolution: (width, height) frames are resized to before NN
            inference / upload.
        nn_batch_size: Frames fed through the NN per batched forward pass
            (the analysis pipeline and the dataflow detector operators chunk
            their sampled frames to this size).
        build_workers: Worker *processes* used to build experiment
            workloads (dataset render -> analysis -> tuning -> size-only
            encodes; see :class:`repro.parallel.WorkloadBuilder`).  ``1``
            (the default) keeps the serial build path; larger values
            prepare datasets concurrently, each worker writing its own
            content-keyed disk-cache entries, and the parent assembles
            the results deterministically by dataset — byte-identical
            cache artifacts and equal workload objects either way.
            ``0`` means "auto" (resolved via :func:`available_cpu_count`).
        precision: Numeric mode of the hot paths.  ``"exact"`` (the
            default) keeps every optimised kernel bit-identical to the seed
            implementation; ``"fast"`` routes NN inference and the motion
            search through float32 kernels (merged batched GEMMs,
            dot-product SAD reductions with an exact-argmin fallback on
            near-ties) whose deviation is bounded by the
            :data:`repro.contracts.FAST_CONTRACT` accuracy budget.  The
            default honours the ``REPRO_PRECISION`` environment variable.
        seed: Root seed for all stochastic components.
    """

    edge_cloud_bandwidth_mbps: float = DEFAULT_EDGE_CLOUD_BANDWIDTH_MBPS
    camera_edge_bandwidth_mbps: float = DEFAULT_CAMERA_EDGE_BANDWIDTH_MBPS
    edge_cloud_latency_ms: float = 40.0
    camera_edge_latency_ms: float = 5.0
    hardware: HardwareCalibration = field(default_factory=HardwareCalibration)
    nn_input_resolution: tuple = NN_INPUT_RESOLUTION
    nn_batch_size: int = 16
    build_workers: int = 1
    precision: str = field(default_factory=default_precision)
    seed: int = 20200601

    def __post_init__(self) -> None:
        try:
            self._check_fields()
        except (TypeError, ValueError) as error:
            # A value of the wrong type or shape ("30", (300,)) fails inside
            # a comparison or the unpacking below, not at a check.
            raise ConfigurationError(
                f"malformed SystemConfig value: {error}") from error

    def _check_fields(self) -> None:
        # Chained comparisons, so nan (which passes ``<= 0``) and inf are
        # refused here rather than becoming every transfer's duration.
        for name in ("edge_cloud_bandwidth_mbps", "camera_edge_bandwidth_mbps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if not (0 <= self.edge_cloud_latency_ms < math.inf
                and 0 <= self.camera_edge_latency_ms < math.inf):
            raise ConfigurationError(
                "latencies must be finite and non-negative")
        width, height = self.nn_input_resolution
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ConfigurationError("nn_input_resolution must be positive")
        # The dataclass is frozen, so normalised values (whole numbers as
        # ints, 0 = "auto" resolved for the worker pool) are written
        # through object.__setattr__ once here.
        object.__setattr__(self, "nn_batch_size", whole_number(
            self.nn_batch_size, "nn_batch_size"))
        if self.nn_batch_size < 1:
            raise ConfigurationError("nn_batch_size must be >= 1")
        object.__setattr__(self, "build_workers", resolve_worker_count(
            self.build_workers, "build_workers"))
        validate_precision(self.precision)

    @property
    def contract(self) -> NumericContract:
        """The numeric contract selected by :attr:`precision`."""
        return resolve_contract(self.precision)


DEFAULT_SYSTEM_CONFIG = SystemConfig()
