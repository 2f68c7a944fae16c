"""Logging helpers shared by the whole library.

The library never configures the root logger on import; applications opt in
by calling :func:`configure_logging` (the examples and benchmark harnesses
do).  All modules obtain their loggers through :func:`get_logger` so the
naming scheme stays uniform (``repro.<subpackage>.<module>``).
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from typing import Iterator

_LIBRARY_ROOT = "repro"
_DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """Return a library logger.

    Args:
        name: Dotted module name; a ``repro.`` prefix is added when missing.

    Returns:
        A :class:`logging.Logger` under the library's namespace.
    """
    if not name.startswith(_LIBRARY_ROOT):
        name = f"{_LIBRARY_ROOT}.{name}"
    return logging.getLogger(name)


def configure_logging(level: int = logging.INFO, stream=None) -> logging.Logger:
    """Attach a stream handler to the library's root logger.

    Safe to call repeatedly: existing handlers installed by this function are
    replaced rather than duplicated.

    Args:
        level: Logging level for the library root logger.
        stream: Output stream; defaults to ``sys.stderr``.

    Returns:
        The configured library root logger.
    """
    logger = logging.getLogger(_LIBRARY_ROOT)
    logger.setLevel(level)
    stream = stream if stream is not None else sys.stderr
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_managed", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(_DEFAULT_FORMAT))
    handler._repro_managed = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.propagate = False
    return logger


@contextmanager
def log_duration(logger: logging.Logger, message: str,
                 level: int = logging.DEBUG) -> Iterator[None]:
    """Log the wall-clock duration of a block.

    Args:
        logger: Destination logger.
        message: Human-readable label for the block.
        level: Logging level used for the emitted record.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        logger.log(level, "%s took %.3f s", message, elapsed)


class ProgressReporter:
    """Tiny progress reporter for long offline stages (tuning, generation).

    The reporter logs at most ``max_messages`` evenly spaced progress lines,
    which keeps benchmark output readable even for multi-thousand-frame
    videos.
    """

    def __init__(self, logger: logging.Logger, total: int, label: str,
                 max_messages: int = 10) -> None:
        self._logger = logger
        self._total = max(int(total), 1)
        self._label = label
        self._every = max(self._total // max(max_messages, 1), 1)
        self._count = 0

    def update(self, step: int = 1) -> None:
        """Advance the reporter by ``step`` items, logging when due."""
        self._count += step
        if self._count % self._every == 0 or self._count >= self._total:
            self._logger.debug("%s: %d/%d", self._label,
                               min(self._count, self._total), self._total)

    @property
    def count(self) -> int:
        """Number of items reported so far."""
        return self._count
