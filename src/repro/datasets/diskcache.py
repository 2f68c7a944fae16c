"""The ``REPRO_CACHE_DIR`` context manager, kept for one importer.

The workload build keeps its artifacts in memory
(:mod:`repro.experiments.common`); nothing in the library reads
``REPRO_CACHE_DIR``.  ``benchmarks/e2e/harness.py`` still wraps each
workload in :func:`temporary_cache_dir`, and this module goes when the
benchmark drops that import (ROADMAP item 18(b)).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variable :func:`temporary_cache_dir` sets.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@contextmanager
def temporary_cache_dir(directory: str) -> Iterator[str]:
    """Point ``REPRO_CACHE_DIR`` at ``directory`` for the enclosed block.

    Restores the previous value (or unset state) on exit.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(directory)
    try:
        yield str(directory)
    finally:
        if previous is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous
