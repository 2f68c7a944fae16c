"""Shared configuration for the benchmark harnesses.

Each ``bench_*`` module regenerates one table or figure of the paper, prints
it, and records its wall-clock cost with pytest-benchmark.  The footage scale
is controlled by the ``REPRO_EXPERIMENT_DURATION`` / ``REPRO_EXPERIMENT_SCALE``
environment variables (see :class:`repro.experiments.ExperimentConfig`); the
defaults below keep a full ``pytest benchmarks/bench_*.py --benchmark-only``
run in the ten-minute range on a laptop CPU.

These harnesses check the paper's shapes; they write nothing into the
checkout.  Performance is measured by the repository benchmark
(``benchmarks/e2e/run.py``, declared in ``BENCHMARK.json``).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentConfig
from repro.logging_utils import configure_logging

#: Default benchmark footage scale (can be overridden via the environment).
BENCH_DURATION_SECONDS = float(os.environ.get("REPRO_EXPERIMENT_DURATION", 30.0))
BENCH_RENDER_SCALE = float(os.environ.get("REPRO_EXPERIMENT_SCALE", 0.10))


@pytest.fixture(scope="session", autouse=True)
def _logging():
    configure_logging()


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Footage scale shared by all benchmark harnesses."""
    return ExperimentConfig(duration_seconds=BENCH_DURATION_SECONDS,
                            render_scale=BENCH_RENDER_SCALE,
                            datasets=("jackson_square", "coral_reef", "venice"))


@pytest.fixture(scope="session")
def bench_config_small() -> ExperimentConfig:
    """Smaller scale for the heavier end-to-end harnesses (Figures 4-5)."""
    return ExperimentConfig(duration_seconds=min(BENCH_DURATION_SECONDS, 20.0),
                            render_scale=min(BENCH_RENDER_SCALE, 0.08))

