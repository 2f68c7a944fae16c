#!/usr/bin/env python3
"""The reach lane: every function under ``src/repro`` is called by a shipping run.

    python tools/reach/run.py

The shipping set is what CI runs as a user would: the nine examples with
CI's arguments, the end-to-end benchmark (``--quick`` on seed 0 traced and
seed 1, and every workload at full size), the six ``bench_*.py`` harnesses
and perf-gate's drained-service snippet.  Each runs with
:mod:`collector` loaded through a generated ``sitecustomize``, so every
interpreter, pool workers included, records the functions it calls.

A function that no run calls is *unreached*.  The lane passes when the
unreached set equals the allow-list:
- by rule: dunders, bodies that only raise, and abstract methods;
- by entry in ``allow.txt``: one ``path::qualname  reason`` a line.

It prints every unreached function with its line count, and fails on an
unreached function that is on neither list and on an ``allow.txt`` entry
that a run now reaches or that names no function.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src" / "repro"
ALLOW_LIST = HERE / "allow.txt"

SERVICE_STATE = """
import contextlib, dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from sim_workloads import ServiceSoak

class Setup:
    def span(self, name):
        return contextlib.nullcontext()

service, _ = ServiceSoak(0, False, Setup())._open(None)
service.drain()
status = dataclasses.replace(service.status(), wall_run_seconds=0.0)
print(status.to_json(indent=1))
print(json.dumps(service.fleet_report().as_dict(), indent=1))
"""

E2E_WORKLOADS = ("offline_build", "query_iframe", "query_fulldecode",
                 "fleet_replay", "service_soak", "adaptive_soak")


def shipping_set(scratch: Path) -> List[List[str]]:
    """The argv of every shipping run, in order."""
    python = sys.executable
    runs: List[List[str]] = [
        [python, "examples/quickstart.py"],
        [python, "examples/edge_cloud_deployment.py"],
        [python, "examples/offline_tuning.py"],
        [python, "examples/event_detection_comparison.py"],
        [python, "examples/streaming_service.py", "--speedup", "400"],
        [python, "examples/chaos_soak.py", "--seed", "7", "--speedup", "400",
         "--trace-out", str(scratch / "chaos-trace.txt")],
        [python, "examples/drift_soak.py", "--seed", "11", "--speedup", "400",
         "--history-out", str(scratch / "drift-history.txt")],
        [python, "examples/scenario_fuzz.py", "--budget", "25", "--seed", "11",
         "--out-dir", str(scratch / "fuzz-repros"),
         "--summary-out", str(scratch / "fuzz-summary.txt")],
        [python, "examples/fleet_scaling.py", "--build-workers", "2",
         "--scale-cameras", "50000",
         "--json-out", str(scratch / "fleet-sweep.json")],
        [python, "-m", "pytest", "-q", "--benchmark-disable", "-p",
         "no:cacheprovider"]
        + sorted(str(path.relative_to(ROOT))
                 for path in (ROOT / "benchmarks").glob("bench_*.py")),
        [python, "benchmarks/e2e/run.py", "--quick", "--seed", "0",
         "--trace", "1"],
        [python, "benchmarks/e2e/run.py", "--quick", "--seed", "1"],
    ]
    runs += [[python, "benchmarks/e2e/run.py", "--workload", workload,
              "--seed", "0", "--seconds", "1"]
             for workload in E2E_WORKLOADS]
    runs.append([python, "-c", SERVICE_STATE, "benchmarks/e2e"])
    return runs


def collect(data: Path) -> List[str]:
    """Run the shipping set with the collector on; per-process files to
    ``data``.  Returns the runs that exited non-zero."""
    with tempfile.TemporaryDirectory(prefix="reach-") as temporary:
        scratch = Path(temporary)
        site = scratch / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            (HERE / "collector.py").read_text()
            + f"\ninstall({str(data)!r})\n")
        base = {name: value for name, value in os.environ.items()
                if not name.startswith("REPRO_")}
        base["PYTHONPATH"] = os.pathsep.join([str(site), str(ROOT / "src")])
        failed = []
        for argv in shipping_set(scratch):
            label = ("<perf-gate service-state snippet>" if argv[1] == "-c"
                     else " ".join(argv[1:]))
            started = time.perf_counter()
            code = subprocess.run(argv, cwd=ROOT, env=base,
                                  stdout=subprocess.DEVNULL).returncode
            print(f"reach: {time.perf_counter() - started:7.1f} s  "
                  f"{label[:100]}", flush=True)
            if code:
                failed.append(f"run exited with code {code}: {label}")
    return failed


def reached(data: Path) -> Set[Tuple[str, int]]:
    seen: Set[Tuple[str, int]] = set()
    for path in data.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, first_line = line.rsplit("\t", 1)
            seen.add((filename, int(first_line)))
    return seen


class Function(NamedTuple):
    name: str  # "path/relative/to/src/repro.py::Qualified.name"
    filename: str
    first_line: int
    lines: int  # from the ``def`` line to the end of the body
    by_rule: str  # "" when the function needs an allow-list entry


def _by_rule(node: ast.AST, in_protocol: bool) -> str:
    if node.name.startswith("__") and node.name.endswith("__"):
        return "dunder"
    decorators = {ast.unparse(decorator) for decorator in node.decorator_list}
    if decorators & {"abstractmethod", "abc.abstractmethod"} or in_protocol:
        return "abstract"
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            getattr(body[0], "value", None), ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        return "raise-only"
    return ""


def functions() -> Iterator[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        filename = os.path.realpath(path)

        def walk(node: ast.AST, prefix: str, in_protocol: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    protocol = any(ast.unparse(base).endswith("Protocol")
                                   for base in child.bases)
                    yield from walk(child, f"{prefix}{child.name}.", protocol)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    yield Function(
                        f"{relative}::{prefix}{child.name}", filename, first,
                        child.end_lineno - child.lineno + 1,
                        _by_rule(child, in_protocol))
                    yield from walk(child, f"{prefix}{child.name}.<locals>.",
                                    False)
                else:
                    yield from walk(child, prefix, in_protocol)

        yield from walk(tree, "", False)


def read_allow_list() -> Dict[str, str]:
    allowed: Dict[str, str] = {}
    for number, line in enumerate(ALLOW_LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("  ")
        if not reason.strip():
            raise SystemExit(f"{ALLOW_LIST}:{number}: {name} has no reason")
        allowed[name.strip()] = reason.strip()
    return allowed


def verdict(seen: Set[Tuple[str, int]],
            allowed: Dict[str, str]) -> List[str]:
    """The lane's failures: unreached-and-unlisted, and stale entries."""
    every = list(functions())
    unreached = [function for function in every
                 if (function.filename, function.first_line) not in seen]
    needing = {function.name for function in unreached if not function.by_rule}
    print(f"reach: {len(every) - len(unreached)} of {len(every)} functions "
          f"called; {len(unreached)} unreached "
          f"({sum(f.lines for f in unreached)} lines), "
          f"{len(needing)} of them not dunders, raise-only or abstract "
          f"({sum(f.lines for f in unreached if not f.by_rule)} lines)")
    for function in unreached:
        print(f"  {function.lines:4d}  {function.by_rule or '-':10s} "
              f"{function.name}")
    names = {function.name for function in every}
    failures = [f"unreached and not allow-listed: {name}"
                for name in sorted(needing - allowed.keys())]
    failures += [f"allow-listed but {'reached' if name in names else 'gone'}:"
                 f" {name}" for name in sorted(allowed.keys() - needing)]
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-data-") as data:
        failures = collect(Path(data))
        failures += verdict(reached(Path(data)), read_allow_list())
    for failure in failures:
        print(f"reach: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
