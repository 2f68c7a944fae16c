"""Pieces every workload shares: the pinned config, pass records, clips."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro import SystemConfig
from repro.datasets.generator import DatasetInstance, build_dataset
from repro.rng import derive_seed
from repro.video.raw_video import RawVideo

#: Resolution scale of every rendered clip (the verify notes' upper bound
#: for interactive turnaround).
RENDER_SCALE = 0.08


def pinned_config() -> SystemConfig:
    """``precision="exact"``, every other field at its default."""
    return SystemConfig(precision="exact")


@dataclass
class PassResult:
    """What one pass did: work counted, per-op latencies, failed ops.

    ``attempted`` counts operations (clips, camera jobs, chunks); an entry
    in ``failures`` is one operation that raised, was refused, shed or
    lost.  ``outputs`` is whatever the workload's checks and digest need.
    """

    units: int
    attempted: int
    op_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    outputs: Any = None


def run_ops(result: PassResult, tracer, prober,
            items: Iterable[Tuple[str, Any]],
            operation: Callable[[str, Any], Any]) -> List[Any]:
    """Run one blocking call per item, timing each and surviving failures.

    An operation that raises is a failed operation, not a failed run: the
    error is recorded and the pass goes on, so ``failed`` can be counted
    against ``attempted``.  Spans recorded inside share the item's key as
    their operation identifier.  Between long operations the machine-speed
    probe is sampled (``speed.py``).
    """
    outputs = []
    for key, item in items:
        started = time.perf_counter()
        try:
            with tracer.span("op", op=key):
                outputs.append(operation(key, item))
        except Exception as error:  # op boundary: record and keep running
            outputs.append(None)
            result.failures.append(f"{key}: {error!r}")
        result.op_ms.append((time.perf_counter() - started) * 1e3)
        prober.sample()
    return outputs


def digest(fingerprint: Any) -> str:
    """sha256 of a JSON-able fingerprint (floats round-trip exactly)."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_clip(seed: int, workload: str, index: int, dataset: str,
              seconds: float, labelled: bool = True) -> DatasetInstance:
    """Render one pre-materialised clip from the workload seed.

    The program only ever receives the rendered frames: the scene seed is
    ``derive_seed(seed, workload, index)``.  ``labelled=False`` strips the
    ground truth, which is what sends ``build_workload`` down the
    fixed-GOP path of the paper's unlabelled feeds.
    """
    instance = build_dataset(dataset, seconds, RENDER_SCALE,
                             seed=derive_seed(seed, workload, str(index)))
    video = instance.video.materialise()
    if not labelled:
        video = RawVideo(video.metadata, list(video.frames()), None)
    instance.video = video
    return instance


def report_fingerprint(report) -> Dict[str, Any]:
    """The deterministic ``as_dict`` view of a fleet or deployment report,
    NaNs made comparable."""
    return {key: (None if isinstance(value, float) and value != value
                  else value)
            for key, value in report.as_dict().items()}
