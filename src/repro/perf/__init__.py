"""Performance instrumentation: wall-clock stopwatches and section timers.

:class:`Stopwatch` / :class:`PerfRecorder` are low-overhead wall-clock
section timers.  The engines and experiment harnesses hang their
stage-level timings off the module-global recorder so a run can be broken
down after the fact without sprinkling ``time.perf_counter`` calls
everywhere.  Performance itself is measured by the repository benchmark
(``benchmarks/e2e/``, declared in ``BENCHMARK.json``).
"""

from .stopwatch import (PerfRecorder, SectionStats, Stopwatch, get_recorder,
                        section)

__all__ = [
    "PerfRecorder", "SectionStats", "Stopwatch", "get_recorder", "section",
]
