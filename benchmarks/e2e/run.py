#!/usr/bin/env python3
"""The repository benchmark: six workloads, one command.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--trace [0|1]]
                                 [--seconds S] [--quick] [--out FILE]
                                 [--repeat-sets K]

Each workload runs in its own fresh child interpreter (``harness.py``), one
at a time.  Every run pins ``SystemConfig(precision="exact")`` with all
other fields at their defaults and refuses to start while any ``REPRO_*``
environment variable is set, so the numbers measure the default program and
not the caller's shell.  The command prints every metric by name with its
unit, checks the outputs, and exits non-zero when a check failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics come from the untraced run (``--trace 0``).  ``--trace
1`` repeats one pass with spans recorded and replays each layer's public
calls on the same inputs, which fills the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ledger import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

#: A set-up shorter than this is a short, noisy measurement: it is made
#: three times in fresh interpreters and the median is reported.
REPEAT_SETUP_BELOW_S = 3.0
SETUP_REPEATS = 3

#: BLAS pools would add a second busy thread on a 2-core box; one thread
#: keeps cpu_s comparable with wall_s, which the contention guard needs.
#: A fixed hash seed keeps dict collision patterns, and with them a percent
#: or two of interpreter time, the same in every child.
CHILD_ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    """The benchmark could not run at all (as opposed to a failed check)."""


def refuse_repro_environment(environ) -> None:
    names = sorted(name for name in environ if name.startswith("REPRO_"))
    if names:
        raise BenchmarkError(
            f"refusing to run with {', '.join(names)} set: the benchmark "
            f"measures the default program, not the caller's environment")


def spawn(workload: str, arguments, setup_only: bool = False) -> dict:
    """Run one child to completion and return the document it printed."""
    command = [sys.executable, os.path.join(HERE, "harness.py"),
               "--workload", workload, "--seed", str(arguments.seed),
               "--seconds", str(arguments.seconds),
               "--trace", str(arguments.trace),
               "--spawned-at", repr(time.time())]
    if arguments.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                           env={**os.environ, **CHILD_ENVIRONMENT})
    if child.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited with code "
                             f"{child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def run_workload(workload: str, arguments) -> dict:
    document = spawn(workload, arguments)
    setups = [document["end_to_end"]["setup_s"]]
    if document["raw_setup_s"] < REPEAT_SETUP_BELOW_S and not arguments.quick:
        setups += [spawn(workload, arguments, setup_only=True)["setup_s"]
                   for _ in range(SETUP_REPEATS - 1)]
    document["setup_samples_s"] = setups
    document["end_to_end"]["setup_s"] = statistics.median(setups)
    return document


def describe(document: dict, trace: int) -> None:
    """Print one workload's metrics by name, with units and sample counts."""
    samples = document["samples"]
    contended = sum(record["contended"] for record in document["passes"])
    print(f"\n== {document['workload']}  seed={document['seed']}  "
          f"sizes={document['sizes']}")
    print(f"   passes made: {len(document['passes'])} "
          f"({contended} flagged contended), measured over "
          f"{samples['passes']} passes / {samples['ops']} ops; "
          f"nproc={document['nproc']}, load_1min="
          f"{document['passes'][-1]['load_1min']:.2f}")
    measured = [record for record in document["passes"]
                if record["kind"] in ("timed", "rerun")
                and not record["contended"]] or document["passes"]
    print(f"   machine ran x{statistics.median(r['slowdown'] for r in measured):.2f}"
          f" slower than the reference (speed.py); raw median pass "
          f"{statistics.median(r['raw_wall_s'] for r in measured):.4f} s, raw "
          f"set-up {document['raw_setup_s']:.4f} s; times below are at "
          f"reference speed")
    for metric in END_TO_END:
        print(f"   {metric.name:<26}{document['end_to_end'][metric.name]:>16.4f}"
              f" {metric.unit}")
    ops = sorted(ms for record in measured for ms in record["op_ms"])
    if len(ops) >= 100:
        print(f"   {'op_p90_ms (informational)':<26}"
              f"{ops[int(0.9 * (len(ops) - 1))]:>16.4f} ms  n={len(ops)}")
    print(f"   failed ops: {document['failed']} of {document['attempted']}; "
          f"digest {document['digest'][:16]} (golden: {document['golden']})")
    for failure in document["failures"]:
        print(f"   FAILED {failure}")
    if trace:
        for layer in PER_LAYER:
            value = document["per_layer"][layer.name]
            if value:
                print(f"   {layer.name:<30}{value:>16.6g} {layer.unit:<6} "
                      f"-> {layer.moves}")
    print("   derived (informational): " + ", ".join(
        f"{key}={value:.4g}" for key, value in document["derived"].items()))


def summary(documents: list, trace: int) -> dict:
    """The contract's last line, over every workload that ran."""
    section = "per_layer" if trace else "end_to_end"
    units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    single = len(documents) == 1
    metrics = {}
    for document in documents:
        for name, value in document[section].items():
            key = name if single else f"{name}@{document['workload']}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(document["failed"] for document in documents)
    return {"correct": failed == 0,
            "attempted": sum(document["attempted"] for document in documents),
            "failed": failed, "metrics": metrics}


def exit_code(sets: list) -> int:
    """1 when any operation failed or any output check did, else 0."""
    return int(any(document["failed"] for documents in sets
                   for document in documents))


def cross_workload_derived(documents: list) -> None:
    """The paper's headline ratio needs both query workloads of one set."""
    walls = {document["workload"]: document["end_to_end"]["wall_s"]
             for document in documents}
    if {"query_iframe", "query_fulldecode"} <= walls.keys():
        ratio = walls["query_fulldecode"] / walls["query_iframe"]
        print(f"\nderived (informational): full decode / I-frame path wall "
              f"= {ratio:.2f}x on the same corpus")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring window per workload (default "
                             f"{RUN_SECONDS}; 0 with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, three passes (the test suite)")
    parser.add_argument("--out", help="write the full JSON document here")
    parser.add_argument("--repeat-sets", type=int, default=1,
                        help="run the whole selection K times (compare.py "
                             "FILE compares set 0 with set 1)")
    arguments = parser.parse_args(argv)
    if arguments.seconds is None:
        arguments.seconds = 0.0 if arguments.quick else float(RUN_SECONDS)
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)

    try:
        refuse_repro_environment(os.environ)
        if not os.path.isdir(os.path.join(HERE, os.pardir, os.pardir,
                                          "src", "repro")):
            raise BenchmarkError("src/repro is missing: run from a checkout "
                                 "of the repository")
        sets = []
        for index in range(arguments.repeat_sets):
            if arguments.repeat_sets > 1:
                print(f"\n#### set {index}")
            documents = [run_workload(name, arguments) for name in names]
            for document in documents:
                describe(document, arguments.trace)
            cross_workload_derived(documents)
            sets.append(documents)
    except BenchmarkError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 2

    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": arguments.seed, "quick": arguments.quick,
                       "trace": arguments.trace, "sets": sets}, handle)
    result = summary(sets[-1], arguments.trace)
    print()
    print(json.dumps(result))
    return exit_code(sets)


if __name__ == "__main__":
    sys.exit(main())
