#!/usr/bin/env python3
"""Compare two benchmark documents, one verdict per (metric, workload).

    python benchmarks/e2e/compare.py A.json B.json   # A = parent, B = change
    python benchmarks/e2e/compare.py A.json          # set 0 vs set 1 of A

The documents are what ``run.py --out`` writes.  Bounds and directions come
from ``BENCHMARK.json``.  Per pairing the verdict is

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better than A's by more than the bound;
* ``unchanged``  -- neither, and both sides repeat within the bound;
* ``unresolved`` -- a side's own spread (distance between the quartiles of
  its per-pass values, as a share of its median) is wider than the bound,
  so the medians cannot be told apart -- unless every pass of B reads
  better (or worse) than every pass of A, which settles it.

Exits 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")


def per_pass_values(document: dict, metric: str) -> list:
    """The samples behind one reported end-to-end value."""
    passes = [record for record in document["passes"]
              if record["kind"] in ("timed", "rerun")
              and not record["contended"]]
    if metric == "setup_s":
        return document.get("setup_samples_s", [])
    if metric in ("wall_s", "cpu_s"):
        return [record[metric] for record in passes]
    if metric == "throughput_per_s":
        return [record["units"] / record["wall_s"] for record in passes]
    if metric == "op_p50_ms":
        return [statistics.median(record["op_ms"]) for record in passes]
    return []


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, parent: dict, change: dict) -> tuple:
    """``(verdict, worse_by, spread)`` for one metric on one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    before, after = parent["end_to_end"][name], change["end_to_end"][name]
    worse_by = sign * (after - before) / before
    a, b = per_pass_values(parent, name), per_pass_values(change, name)
    widest = max(spread(a), spread(b))
    if widest > bound:
        if a and b and min(sign * v for v in b) > max(sign * v for v in a):
            return "regressed", worse_by, widest
        if a and b and max(sign * v for v in b) < min(sign * v for v in a):
            return "improved", worse_by, widest
        return "unresolved", worse_by, widest
    if worse_by > bound:
        return "regressed", worse_by, widest
    if worse_by < -bound:
        return "improved", worse_by, widest
    return "unchanged", worse_by, widest


def load_sets(paths: list) -> tuple:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle)["sets"])
    if len(documents) == 1:
        if len(documents[0]) < 2:
            raise SystemExit(f"{paths[0]} holds one set; give a second file "
                             f"or make it with --repeat-sets 2")
        return documents[0][0], documents[0][1]
    return documents[0][0], documents[1][0]


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) not in (1, 2):
        raise SystemExit(__doc__)
    with open(CONTRACT, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    parent, change = load_sets(paths)
    changes = {document["workload"]: document for document in change}
    counts = {}
    print(f"{'workload':<18}{'metric':<18}{'parent':>12}{'change':>12}"
          f"{'worse by':>10}{'spread':>8}{'bound':>7}  verdict")
    for before in parent:
        after = changes.get(before["workload"])
        if after is None:
            continue
        for metric in metrics:
            outcome, worse_by, widest = verdict(metric, before, after)
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{before['workload']:<18}{metric['name']:<18}"
                  f"{before['end_to_end'][metric['name']]:>12.4f}"
                  f"{after['end_to_end'][metric['name']]:>12.4f}"
                  f"{worse_by:>+10.3f}{widest:>8.3f}{metric['bound']:>7.2f}"
                  f"  {outcome}")
    print(", ".join(f"{count} {outcome}"
                    for outcome, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
