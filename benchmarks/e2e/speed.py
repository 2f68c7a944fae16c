"""Machine-speed probe: what makes two runs on this box comparable.

The container this benchmark was built in shares its cores with other
tenants.  Identical work measured 40-80 % slower for phases lasting from a
few seconds to more than a minute, with ``cpu_s`` rising in step with
``wall_s`` (so the classic cpu/wall contention test sees nothing) and no
statistic of a 10-second run -- median, quartile or minimum -- repeated to
better than 25-50 % across runs.  A run cannot outlast such a phase, so it
measures the phase instead: a short fixed computation (:func:`probe`) runs
before and after every pass, and between a pass's operations when they are
long, and every timing is divided by the slowdown those probes predict
(:func:`slowdown`).  Reported seconds are therefore **seconds at reference
speed**; the raw seconds and the slowdown factor of every pass are kept
beside them in ``--out``.  On the same box this took the spread of ten
runs' values from 13-42 % to 2-11 %.

The probe calls nothing under ``src/``, so a change to the program cannot
move it; a change that claims a gain may not edit this file.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Wall seconds of :func:`probe` on a quiet core of the reference container
#: (2.1 GHz Xeon vCPU, CPython 3.11, numpy 2.4, one BLAS thread).
REFERENCE_PROBE_S = 0.0160

#: How much of the probe's slowdown the workloads share.  The probe is
#: allocation-heavy and reacts more sharply to a noisy neighbour than the
#: workloads do: regressing raw pass seconds on the probes around them gave
#: slopes of 0.42 (query_iframe) to 0.77 (adaptive_soak) of the probe's own
#: slowdown, with the probe's timing noise in that figure.  One value for
#: all six keeps the rule simple: on one ten-seed set scored every way,
#: 0.5-0.7 were within a point of each other (3-6 % spread per workload),
#: 1.0 over-corrected (2-9 %) and 0.0, i.e. raw seconds, gave 2-8 %.
SENSITIVITY = 0.6

_MATRIX = np.random.default_rng(20200601).random((48, 48))


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, next_node) -> None:
        self.value = value
        self.next = next_node


def probe() -> float:
    """Run the fixed mix once and return its wall seconds.

    The mix mirrors what the workloads spend their time on: interpreter
    dispatch, small-object allocation, dict and heap traffic (the event
    simulators) and many small numpy calls (the codec and the NN).
    """
    started = time.perf_counter()
    heap, table, total, node = [], {}, 0, None
    for index in range(40000):
        node = _Node(index, node if index & 7 else None)
        table[index & 2047] = node
        if index & 3 == 0:
            heapq.heappush(heap, (index * 7919) % 10007)
        elif heap and index & 3 == 1:
            total += heapq.heappop(heap)
    for _ in range(300):
        total += float((_MATRIX @ _MATRIX)[0, 0])
        total += float(np.abs(_MATRIX - 0.5).sum())
    return time.perf_counter() - started


def slowdown(probe_seconds) -> float:
    """How much slower than at reference speed work ran while the given
    probes were taken (1.0 = as fast as the reference machine)."""
    probe_ratio = sum(probe_seconds) / len(probe_seconds) / REFERENCE_PROBE_S
    return 1.0 + SENSITIVITY * (probe_ratio - 1.0)


class Prober:
    """Takes probes around and inside a pass and keeps their bill.

    ``samples`` are the probe times since the last :meth:`drain`; ``spent``
    is the total wall time probing has cost, so the caller can take it out
    of what it timed.
    """

    #: Inside a pass, probe again only this long after the previous probe.
    EVERY_S = 0.25

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._last_at = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last_at >= self.EVERY_S:
            seconds = probe()
            self.samples.append(seconds)
            self.spent += seconds
            self._last_at = time.perf_counter()

    def drain(self) -> float:
        """Slowdown over the samples so far; the closing sample stays as
        the opening sample of whatever is timed next."""
        slower = slowdown(self.samples)
        self.samples = self.samples[-1:]
        return slower
