"""The benchmark's own checks: ``python -m pytest benchmarks/e2e -q``.

Everything runs at ``--quick`` sizes.  One traced run of the whole suite
feeds most assertions; failure accounting is exercised in-process on a
deliberately broken input.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
from codec_workloads import QueryIFrame  # noqa: E402
from harness import Run  # noqa: E402
from sim_workloads import ServiceSoak  # noqa: E402
from spans import NullTracer  # noqa: E402
from speed import Prober  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def clean_environment(**extra):
    """The caller's environment without the REPRO_* variables the
    benchmark refuses (benchmarks/conftest.py sets REPRO_CACHE_DIR)."""
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
    environment.update(extra)
    return environment


def run_benchmark(*arguments, **environment):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=clean_environment(**environment), timeout=120)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced_suite(tmp_path_factory):
    """One quick traced run of all six workloads: (process, --out document)."""
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    process = run_benchmark("--quick", "--trace", "1", "--out", str(out))
    assert process.returncode == 0, process.stderr + process.stdout[-2000:]
    with open(out, encoding="utf-8") as handle:
        return process, json.load(handle)


def test_contract_file_is_the_ledger_and_within_limits(contract):
    assert contract == ledger.benchmark_document()
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in contract["end_to_end"])
            } in contract["end_to_end"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert len(contract["per_layer"]) <= 128


def test_every_workload_runs_and_names_match_the_contract(traced_suite,
                                                          contract):
    process, document = traced_suite
    workloads = document["sets"][0]
    assert [w["workload"] for w in workloads] == [
        w["name"] for w in contract["workloads"]]
    for workload in workloads:
        assert list(workload["end_to_end"]) == [
            m["name"] for m in contract["end_to_end"]]
        assert list(workload["per_layer"]) == [
            m["name"] for m in contract["per_layer"]]
        assert all(value > 0 for value in workload["end_to_end"].values())
        assert workload["failed"] == 0 and workload["golden"] == "match"
    last = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(NAME.fullmatch(key.split("@")[0]) for key in last["metrics"])


def test_trace_covers_the_codec_workloads(traced_suite):
    _, document = traced_suite
    for workload in document["sets"][0]:
        layers = workload["per_layer"]
        if workload["workload"] in ("offline_build", "query_iframe",
                                    "query_fulldecode"):
            assert 0.5 < layers["trace.coverage_share"] < 1.5
        assert workload["spans"]["traced"]
    by_name = {w["workload"]: w["per_layer"] for w in document["sets"][0]}
    assert by_name["service_soak"]["adapt.drain_s"] == 0.0
    assert by_name["adaptive_soak"]["adapt.retunes"] > 0
    assert by_name["query_iframe"]["codec.decoded_frame_share"] < 0.1


def test_single_workload_prints_the_contract_line(contract):
    process = run_benchmark("--workload", "fleet_replay", "--seed", "3",
                            "--seconds", "0.2", "--trace", "0", "--quick")
    assert process.returncode == 0, process.stderr
    last = json.loads(process.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert all(set(metric) == {"value", "unit"}
               for metric in last["metrics"].values())
    assert last["attempted"] >= 1 and last["failed"] == 0


def test_repro_environment_aborts_the_run():
    process = run_benchmark("--quick", "--workload", "fleet_replay",
                            REPRO_PRECISION="fast")
    assert process.returncode == 2
    assert "REPRO_PRECISION" in process.stderr
    assert not process.stdout.strip()


def failing_document(record: dict, failures: list) -> dict:
    return {"workload": "x", "end_to_end": {}, "attempted": record["attempted"],
            "failed": len(failures)}


def test_corrupted_bitstream_is_a_failed_op_and_flips_the_exit_code():
    workload = QueryIFrame(0, True, NullTracer())
    clip = workload.clips[0]
    clip.data = b"XXXX" + clip.data[4:]
    bench = Run(workload, Prober())
    record = bench.one_pass(NullTracer(), "timed")
    assert record["failed"] == 1 and record["attempted"] == len(workload.clips)
    assert "BitstreamError" in bench.failures[0]
    document = failing_document(record, bench.failures)
    assert run.exit_code([[document]]) == 1
    assert run.summary([document], 0)["correct"] is False


def test_refused_push_is_a_failed_op():
    workload = ServiceSoak(0, True, NullTracer())
    # Feeders that push 2000x faster than the pipeline drains, for longer
    # than the tenants' max_pending_chunks bound absorbs: pushes bounce.
    workload.PERIOD_SECONDS = 0.001
    workload.feeds = [(camera, tenant, offset, list(chunks) * 4)
                      for camera, tenant, offset, chunks in workload.feeds]
    bench = Run(workload, Prober())
    record = bench.one_pass(NullTracer(), "timed")
    assert record["failed"] >= 1
    assert any("backpressure" in failure for failure in bench.failures)
    assert run.exit_code([[failing_document(record, bench.failures)]]) == 1


def test_compare_verdicts(traced_suite, tmp_path):
    _, document = traced_suite
    same = tmp_path / "same.json"
    same.write_text(json.dumps({"sets": [document["sets"][0]] * 2}))
    assert compare.main([str(same)]) == 0
    slower = copy.deepcopy(document)
    for workload in slower["sets"][0]:
        workload["end_to_end"]["wall_s"] *= 3
        for record in workload["passes"]:
            record["wall_s"] *= 3
    changed = tmp_path / "slower.json"
    changed.write_text(json.dumps(slower))
    assert compare.main([str(same), str(changed)]) == 1
    metric = {"name": "wall_s", "better": "lower", "bound": 0.15}
    before, after = document["sets"][0][3], slower["sets"][0][3]
    assert compare.verdict(metric, before, after)[0] == "regressed"
    assert compare.verdict(metric, after, before)[0] == "improved"
