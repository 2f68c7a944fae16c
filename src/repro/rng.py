"""Deterministic random-number utilities.

The reproduction relies on procedurally generated surveillance scenes and a
simulated cluster.  Every stochastic component draws from a
:class:`numpy.random.Generator` obtained through :func:`make_rng` so that a
single integer seed reproduces an entire experiment bit-for-bit.

The helpers here implement a tiny *seed-derivation* scheme: a root seed plus a
sequence of string labels (e.g. ``("jackson_square", "events")``) maps to a
unique child seed.  This keeps independent components decorrelated while
remaining reproducible and order-independent.

Seeding contract
----------------

Every stochastic component of the library MUST obey these rules, which
together guarantee that a single root seed reproduces an entire experiment —
including the discrete-event fleet simulator — bit for bit:

1. **All randomness flows through** :func:`make_rng`.  Components never call
   ``numpy.random.default_rng`` (or the global ``numpy.random`` state)
   directly, and never consult wall-clock time, object ids or iteration
   order of unordered containers.
2. **Child seeds are derived, not shared.**  A component that needs its own
   stream derives it as ``make_rng(root, "component", "purpose")`` (e.g. the
   fleet simulator's arrival jitter uses ``("fleet", "arrivals")``).
   Distinct label tuples give decorrelated streams, so adding a consumer
   never perturbs existing ones.
3. **Draw order is fixed.**  Within one component, draws happen in a
   deterministic order (e.g. one vectorised ``uniform`` of length N rather
   than N data-dependent scalar draws), so equal seeds imply equal values.
4. **The event scheduler adds no randomness.**  Simultaneous events fire in
   submission order (:class:`repro.dataflow.scheduler.EventScheduler` breaks
   time ties with a monotone sequence number); therefore two fleet runs with
   the same jobs, configuration and root seed produce identical metrics,
   which the determinism regression test pins.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

#: Default root seed used across the library when the caller does not care.
DEFAULT_SEED = 20200601  # arXiv submission date of the SiEVE paper.

SeedLike = Union[int, np.random.Generator, None]


def derive_seed(root: int, *labels: str) -> int:
    """Derive a child seed from ``root`` and a sequence of string labels.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash``), and distinct label tuples yield
    decorrelated seeds.

    Args:
        root: Root integer seed.
        *labels: Arbitrary string labels identifying the consumer.

    Returns:
        A non-negative integer seed strictly below ``2**63``.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x00")
        hasher.update(str(label).encode("utf-8"))
    digest = hasher.digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def make_rng(seed: SeedLike = None, *labels: str) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from a flexible seed spec.

    Args:
        seed: ``None`` (use :data:`DEFAULT_SEED`), an integer root seed, or an
            existing generator (returned unchanged when no labels are given,
            otherwise used to draw a child seed).
        *labels: Optional labels used to derive a child seed via
            :func:`derive_seed`.

    Returns:
        A NumPy random generator.
    """
    if isinstance(seed, np.random.Generator):
        if not labels:
            return seed
        child_root = int(seed.integers(0, 2**62))
        return np.random.default_rng(derive_seed(child_root, *labels))
    root = DEFAULT_SEED if seed is None else int(seed)
    if labels:
        return np.random.default_rng(derive_seed(root, *labels))
    return np.random.default_rng(root)
