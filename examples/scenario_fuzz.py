#!/usr/bin/env python3
"""Scenario fuzz: random composed scenarios under cross-layer invariants.

Samples ``--budget`` compositions from the scenario DSL (base profile +
weather / day-night / crowd / camera-fault presets), runs each through
generate -> encode -> tuner -> fleet, and checks the invariant set of
:mod:`repro.video.fuzzing`: decoder round-trip exactness, no I-frame
storms, tuner grid convergence and chain == recurrence fleet parity.

The whole run is a pure function of ``--seed``: CI runs it twice and diffs
the ``--summary-out`` files verbatim (the ``scenario-fuzz-smoke`` job).
Failing compositions are serialized to ``repro_NNN.json`` files under
``--out-dir``; replay one with ``--replay repro_NNN.json`` while fixing
the bug it found.

Run with:  python examples/scenario_fuzz.py [--budget 25] [--seed 11]
                                            [--out-dir DIR]
                                            [--summary-out FILE]
                                            [--replay REPRO.json]
"""

from __future__ import annotations

import argparse
import sys

from repro.logging_utils import configure_logging
from repro.video.fuzzing import (ScenarioComposition, check_composition,
                                 run_fuzz)


def replay(path: str) -> int:
    """Re-run the invariant set over one serialized repro file."""
    with open(path, "r", encoding="utf-8") as handle:
        composition = ScenarioComposition.from_json(handle.read())
    print(f"replaying {composition.describe()} "
          f"({composition.duration_seconds:g}s @ "
          f"scale {composition.render_scale:g})")
    result = check_composition(composition)
    if result.ok:
        print("every invariant holds — the bug this repro captured is fixed")
        return 0
    for violation in result.violations:
        print(f"VIOLATION {violation.invariant}: {violation.detail}")
    return 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=25,
                        help="compositions to sample (default: 25)")
    parser.add_argument("--seed", type=int, default=11,
                        help="root seed; the run is a pure function of it "
                             "(default: 11)")
    parser.add_argument("--out-dir", type=str, default=None,
                        help="directory for repro_NNN.json failure files")
    parser.add_argument("--summary-out", type=str, default=None,
                        help="write the deterministic summary to this file "
                             "(CI diffs two same-seed runs)")
    parser.add_argument("--replay", type=str, default=None,
                        help="replay one repro JSON file instead of fuzzing")
    arguments = parser.parse_args()
    configure_logging()

    if arguments.replay:
        sys.exit(replay(arguments.replay))

    run = run_fuzz(arguments.budget, arguments.seed,
                   out_dir=arguments.out_dir)
    document = run.lines()
    print("\n".join(document))
    if arguments.summary_out:
        with open(arguments.summary_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(document) + "\n")
        print(f"summary written to {arguments.summary_out}")
    if run.failures:
        for path in run.repro_paths:
            print(f"repro file: {path}")
        sys.exit(1)


if __name__ == "__main__":
    main()
