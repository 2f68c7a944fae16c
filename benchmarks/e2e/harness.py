"""The measuring child: one workload, one fresh interpreter.

``run.py`` starts this file once per workload.  It sets the workload up
from the seed, makes one untimed warm-up pass, then times passes for the
requested window, checks every pass's outputs, and prints one JSON
document on standard output.  With ``--trace 1`` it additionally repeats
one pass with spans recorded and replays the layers stage by stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, os.pardir, "src"), HERE]

from repro.datasets.diskcache import temporary_cache_dir  # noqa: E402
from repro.perf import get_recorder  # noqa: E402

from codec_workloads import (OfflineBuild, QueryFullDecode,  # noqa: E402
                             QueryIFrame)
from common import digest  # noqa: E402
from ledger import PER_LAYER  # noqa: E402
from sim_workloads import (AdaptiveSoak, FleetReplay,  # noqa: E402
                           ServiceSoak)
from spans import NullTracer, Tracer  # noqa: E402
from speed import Prober, probe  # noqa: E402

#: A pass whose process got less than this share of a CPU was contended.
CONTENDED_BELOW = 0.9
MIN_PASSES = 3
MAX_EXTRA_PASSES = 2


WORKLOADS = {cls.name: cls for cls in (OfflineBuild, QueryIFrame,
                                       QueryFullDecode, FleetReplay,
                                       ServiceSoak, AdaptiveSoak)}


class Run:
    """Runs passes of one workload and keeps the ledger of what happened."""

    def __init__(self, workload, prober) -> None:
        self.workload = workload
        self.prober = prober
        self.passes = []
        self.attempted = 0
        self.failures = []
        self.reference_digest = None
        self.last_result = None

    def one_pass(self, tracer, kind: str) -> dict:
        """One pass: timed region bracketed by speed probes, then the
        output checks.  ``wall_s``/``cpu_s``/``op_ms`` are recorded at
        reference speed (see ``speed.py``), the raw seconds beside them."""
        prober = self.prober
        gc.collect()
        prober.sample(force=not prober.samples)
        load = os.getloadavg()[0]
        probing = prober.spent
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = self.workload.run_pass(tracer, prober)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        probing = prober.spent - probing
        wall, cpu = wall - probing, cpu - probing
        prober.sample(force=True)
        slower = prober.drain()
        problems = list(result.failures) + self.workload.check(result)
        pass_digest = digest(self.workload.fingerprint(result))
        if self.reference_digest is None:
            self.reference_digest = pass_digest
        elif pass_digest != self.reference_digest:
            problems.append(f"output digest {pass_digest[:12]} differs from "
                            f"the first pass's {self.reference_digest[:12]}")
        record = {
            "index": len(self.passes), "kind": kind,
            "wall_s": wall / slower, "cpu_s": cpu / slower,
            # A workload that times no operations of its own makes one
            # blocking call per pass: the pass is the operation.
            "op_ms": [ms / slower for ms in result.op_ms or [wall * 1e3]],
            "raw_wall_s": wall, "slowdown": slower,
            "cpu_share": cpu / wall, "load_1min": load,
            "contended": cpu / wall < CONTENDED_BELOW,
            "units": result.units, "attempted": result.attempted,
            "failed": len(problems),
        }
        self.passes.append(record)
        self.attempted += result.attempted
        self.failures.extend(f"pass {record['index']}: {problem}"
                             for problem in problems)
        self.last_result = result
        return record

    def measure(self, tracer, seconds: float) -> list:
        """Timed passes for ``seconds`` (at least MIN_PASSES); a contended
        pass is flagged and made again, at most MAX_EXTRA_PASSES times."""
        deadline = time.perf_counter() + seconds
        timed = []
        while len(timed) < MIN_PASSES or time.perf_counter() < deadline:
            timed.append(self.one_pass(tracer, "timed"))
        for _ in range(MAX_EXTRA_PASSES):
            if not any(record["contended"] for record in timed):
                break
            timed.append(self.one_pass(tracer, "rerun"))
        clean = [record for record in timed if not record["contended"]]
        return clean or timed


def end_to_end(measured: list, setup_s: float) -> dict:
    """Every end-to-end metric from the uncontended timed passes."""
    median_pass = sorted(measured, key=lambda r: r["wall_s"])[
        (len(measured) - 1) // 2]
    # Every pass makes the same operations in the same order.  Each
    # operation's latency is its median over the passes; op_p50 is the
    # median operation.  (Pooling all samples instead lets the median hop
    # between the small-clip and the large-clip mode of the corpus.)
    per_operation = [statistics.median(latencies) for latencies
                     in zip(*(record["op_ms"] for record in measured))]
    return {
        "setup_s": setup_s,
        "wall_s": median_pass["wall_s"],
        "cpu_s": median_pass["cpu_s"],
        "throughput_per_s": median_pass["units"] / median_pass["wall_s"],
        "op_p50_ms": statistics.median(per_operation),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def total_self_seconds(*tracers) -> dict:
    totals = {}
    for tracer in tracers:
        for name, value in tracer.self_seconds().items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def layer_metrics(workload, run: Run, setup, untraced_wall: float) -> dict:
    """One traced pass, the staged replay, and the ledger they fill."""
    traced = Tracer()
    traced_pass = run.one_pass(traced, "traced")
    traced_result = run.last_result
    traced_seconds = traced.self_seconds()
    staged = Tracer()
    counters = workload.staged(staged, traced_seconds, traced_result)
    run.prober.sample(force=True)
    slower = (traced_pass["slowdown"] + run.prober.drain()) / 2
    replayed = total_self_seconds(traced, staged)
    seconds = total_self_seconds(setup, traced, staged)
    covered = sum(replayed.get(name, 0.0) for name in workload.coverage_spans)
    whole = (traced_seconds[workload.coverage_of] if workload.coverage_of
             else traced_pass["raw_wall_s"])
    counters["trace.coverage_share"] = covered / whole
    counters["trace.overhead_share"] = traced_pass["wall_s"] / untraced_wall - 1
    # Time-valued lines are brought to reference speed like the end-to-end
    # metrics, with the slowdown probed around this traced pass and replay.
    to_reference = {"s": 1 / slower, "ms": 1 / slower, "1/s": slower}
    values = {layer.name: float(counters.get(layer.name,
                                             seconds.get(layer.name, 0.0)))
              * to_reference.get(layer.unit, 1.0)
              for layer in PER_LAYER}
    return {"per_layer": values, "trace_slowdown": slower,
            "spans": {"setup": setup.spans, "traced": traced.spans,
                      "staged": staged.spans}}


def golden_verdict(name: str, seed: int, quick: bool, digest_: str) -> str:
    """``match`` / ``mismatch`` for seed 0, ``not pinned`` otherwise."""
    if seed != 0:
        return "not pinned"
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = golden["quick" if quick else "full"].get(name)
    if expected is None:
        return "not pinned"
    return "match" if expected == digest_ else "mismatch"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    arguments = parser.parse_args()

    probe()  # first call pays one-off BLAS start-up
    prober = Prober()
    prober.sample(force=True)

    scratch = os.path.join(HERE, ".scratch")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache, \
            temporary_cache_dir(cache):
        setup = Tracer()
        workload = WORKLOADS[arguments.workload](
            arguments.seed, arguments.quick, setup)
        run = Run(workload, prober)
        untraced = NullTracer()
        # The warm-up pass's probes span from the end of the imports to
        # here, i.e. the whole set-up.
        warm_up = run.one_pass(untraced, "warm-up")
        raw_setup_s = time.time() - arguments.spawned_at
        setup_s = raw_setup_s / warm_up["slowdown"]
        if arguments.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0

        measured = run.measure(untraced, arguments.seconds)
        document = {
            "workload": workload.name, "seed": arguments.seed,
            "quick": arguments.quick, "sizes": workload.sizes,
            "nproc": os.cpu_count(), "raw_setup_s": raw_setup_s,
            "end_to_end": end_to_end(measured, setup_s),
            "samples": {"passes": len(measured),
                        "ops": sum(len(r["op_ms"]) for r in measured)},
            "derived": workload.derived(run.last_result),
        }
        if arguments.trace:
            document.update(layer_metrics(
                workload, run, setup, document["end_to_end"]["wall_s"]))
            document["perf_recorder"] = get_recorder().summary()

        verdict = golden_verdict(workload.name, arguments.seed,
                                 arguments.quick, run.reference_digest)
        if verdict == "mismatch":
            run.failures.append(
                f"seed-0 digest {run.reference_digest} is not the one "
                f"pinned in golden.json")
        document.update({
            "digest": run.reference_digest, "golden": verdict,
            "attempted": run.attempted,
            "failed": min(len(run.failures), run.attempted),
            "failures": run.failures[:50],
            "passes": run.passes,
        })
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
