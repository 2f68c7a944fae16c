"""Logging helpers shared by the whole library.

The library never configures the root logger on import; applications opt in
by calling :func:`configure_logging` (the examples and benchmark harnesses
do).  All modules obtain their loggers through :func:`get_logger` so the
naming scheme stays uniform (``repro.<subpackage>.<module>``).
"""

from __future__ import annotations

import logging
import sys

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
