"""The verdicts behind CI's ``perf-gate``: ``benchmarks/e2e/compare.py``.

The gate runs the end-to-end benchmark on the parent commit and on the
change and fails when ``compare.py`` exits 1.  These tests feed it small
hand-built ``run.py --out`` documents, so every verdict rule and exit code
is pinned without running the benchmark itself.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMPARE = os.path.join(ROOT, "benchmarks", "e2e", "compare.py")

_spec = importlib.util.spec_from_file_location("e2e_compare", COMPARE)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

with open(compare.CONTRACT, encoding="utf-8") as _handle:
    METRICS = {metric["name"]: metric
               for metric in json.load(_handle)["end_to_end"]}


def workload(name="fleet_replay", walls=(1.0, 1.0, 1.0, 1.0), units=100,
             setup=(0.5, 0.5, 0.5), rss=50.0, extra_passes=()):
    """One workload's record as ``run.py`` writes it, from per-pass walls."""
    passes = [{"kind": "timed", "contended": False, "wall_s": wall,
               "cpu_s": wall, "units": units, "op_ms": [wall * 1000.0] * 3}
              for wall in walls]
    wall = statistics.median(walls)
    return {"workload": name,
            "end_to_end": {"setup_s": statistics.median(setup),
                           "wall_s": wall, "cpu_s": wall,
                           "throughput_per_s": units / wall,
                           "op_p50_ms": wall * 1000.0, "peak_rss_mb": rss},
            "passes": passes + list(extra_passes),
            "setup_samples_s": list(setup)}


def write(path, *sets):
    path.write_text(json.dumps({"sets": [list(records) for records in sets]}))
    return str(path)


class TestPerPassValues:
    def test_setup_uses_the_setup_samples(self):
        record = workload(setup=(0.4, 0.6, 0.5))
        assert compare.per_pass_values(record, "setup_s") == [0.4, 0.6, 0.5]

    def test_contended_and_untimed_passes_are_left_out(self):
        record = workload(walls=(1.0, 2.0), extra_passes=[
            {"kind": "timed", "contended": True, "wall_s": 9.0, "cpu_s": 9.0,
             "units": 1, "op_ms": [9000.0]},
            {"kind": "warmup", "contended": False, "wall_s": 8.0,
             "cpu_s": 8.0, "units": 1, "op_ms": [8000.0]},
            {"kind": "rerun", "contended": False, "wall_s": 3.0, "cpu_s": 3.0,
             "units": 100, "op_ms": [3000.0]}])
        assert compare.per_pass_values(record, "wall_s") == [1.0, 2.0, 3.0]

    def test_throughput_is_units_over_wall(self):
        record = workload(walls=(2.0, 4.0), units=100)
        assert compare.per_pass_values(record, "throughput_per_s") == [50.0, 25.0]

    def test_op_p50_is_the_median_of_each_pass(self):
        record = workload()
        record["passes"][0]["op_ms"] = [1.0, 7.0, 3.0]
        assert compare.per_pass_values(record, "op_p50_ms")[0] == 3.0

    def test_peak_rss_has_no_per_pass_samples(self):
        assert compare.per_pass_values(workload(), "peak_rss_mb") == []


class TestSpread:
    @pytest.mark.parametrize("values", [[], [3.0]])
    def test_fewer_than_two_values_have_no_spread(self, values):
        assert compare.spread(values) == 0.0

    def test_spread_is_the_interquartile_range_over_the_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, _, high = statistics.quantiles(values, n=4)
        assert compare.spread(values) == pytest.approx((high - low) / 3.0)
        assert compare.spread([2.0] * 5) == 0.0


class TestVerdict:
    def test_equal_records_are_unchanged(self):
        for metric in METRICS.values():
            outcome, worse_by, widest = compare.verdict(metric, workload(),
                                                        workload())
            assert (outcome, worse_by, widest) == ("unchanged", 0.0, 0.0)

    def test_slower_beyond_the_bound_regresses(self):
        outcome, worse_by, _ = compare.verdict(
            METRICS["wall_s"], workload(), workload(walls=(1.5,) * 4))
        assert outcome == "regressed"
        assert worse_by == pytest.approx(0.5)

    def test_faster_beyond_the_bound_improves(self):
        outcome, worse_by, _ = compare.verdict(
            METRICS["wall_s"], workload(), workload(walls=(0.5,) * 4))
        assert outcome == "improved"
        assert worse_by == pytest.approx(-0.5)

    def test_within_the_bound_is_unchanged(self):
        inside = 1.0 + METRICS["wall_s"]["bound"] / 2
        assert compare.verdict(METRICS["wall_s"], workload(),
                               workload(walls=(inside,) * 4))[0] == "unchanged"

    def test_higher_is_better_metrics_flip_the_sign(self):
        slower = workload(walls=(2.0,) * 4)
        metric = METRICS["throughput_per_s"]
        assert compare.verdict(metric, workload(), slower)[0] == "regressed"
        assert compare.verdict(metric, slower, workload())[0] == "improved"

    def test_peak_rss_gates_on_its_median_alone(self):
        metric = METRICS["peak_rss_mb"]
        grown = 50.0 * (1.0 + 2 * metric["bound"])
        assert compare.verdict(metric, workload(),
                               workload(rss=grown))[0] == "regressed"

    def test_a_wide_spread_with_overlapping_passes_is_unresolved(self):
        noisy = workload(walls=(1.0, 1.5, 1.0, 1.5))
        overlapping = workload(walls=(1.1, 1.6, 1.1, 1.6))
        outcome, _, widest = compare.verdict(METRICS["wall_s"], noisy,
                                             overlapping)
        assert outcome == "unresolved"
        assert widest > METRICS["wall_s"]["bound"]

    def test_a_wide_spread_is_settled_when_every_pass_is_worse(self):
        noisy = workload(walls=(1.0, 1.5, 1.0, 1.5))
        worse = workload(walls=(2.0, 3.0, 2.0, 3.0))
        assert compare.verdict(METRICS["wall_s"], noisy, worse)[0] == "regressed"

    def test_a_wide_spread_is_settled_when_every_pass_is_better(self):
        noisy = workload(walls=(1.0, 1.5, 1.0, 1.5))
        better = workload(walls=(0.5, 0.7, 0.5, 0.7))
        assert compare.verdict(METRICS["wall_s"], noisy, better)[0] == "improved"


class TestMain:
    def test_identical_runs_exit_zero_with_every_pairing_unchanged(
            self, tmp_path, capsys):
        records = [workload("offline_build"), workload("fleet_replay")]
        parent = write(tmp_path / "parent.json", records)
        change = write(tmp_path / "change.json", records)
        assert compare.main([parent, change]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == f"{2 * len(METRICS)} unchanged"

    def test_one_regressed_pairing_exits_one(self, tmp_path, capsys):
        parent = write(tmp_path / "parent.json",
                       [workload("offline_build"), workload("fleet_replay")])
        change = write(tmp_path / "change.json",
                       [workload("offline_build"),
                        workload("fleet_replay", walls=(3.0,) * 4)])
        assert compare.main([parent, change]) == 1
        rows = capsys.readouterr().out.splitlines()[1:-1]
        flagged = {tuple(row.split()[:2]) for row in rows
                   if row.endswith("regressed")}
        assert flagged == {("fleet_replay", "wall_s"), ("fleet_replay", "cpu_s"),
                           ("fleet_replay", "throughput_per_s"),
                           ("fleet_replay", "op_p50_ms")}

    def test_an_improvement_alone_exits_zero(self, tmp_path, capsys):
        parent = write(tmp_path / "parent.json", [workload()])
        change = write(tmp_path / "change.json", [workload(walls=(0.2,) * 4)])
        assert compare.main([parent, change]) == 0
        assert "4 improved" in capsys.readouterr().out

    def test_one_file_compares_its_first_two_sets(self, tmp_path, capsys):
        both = write(tmp_path / "both.json", [workload()],
                     [workload(walls=(3.0,) * 4)], [workload()])
        assert compare.main([both]) == 1
        capsys.readouterr()

    def test_one_file_with_one_set_is_refused(self, tmp_path):
        single = write(tmp_path / "single.json", [workload()])
        with pytest.raises(SystemExit, match="holds one set"):
            compare.main([single])

    @pytest.mark.parametrize("count", [0, 3])
    def test_wrong_argument_count_prints_the_usage(self, tmp_path, count):
        path = write(tmp_path / "run.json", [workload()], [workload()])
        with pytest.raises(SystemExit, match="Compare two benchmark documents"):
            compare.main([path] * count)

    def test_workloads_missing_from_the_change_are_skipped(self, tmp_path,
                                                           capsys):
        parent = write(tmp_path / "parent.json",
                       [workload("offline_build"), workload("fleet_replay")])
        change = write(tmp_path / "change.json", [workload("fleet_replay")])
        assert compare.main([parent, change]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert len(rows) == len(METRICS)
        assert all(row.startswith("fleet_replay") for row in rows)

    def test_the_script_exit_code_is_the_verdict(self, tmp_path):
        """CI runs the file itself under ``pipefail``; its status is the gate."""
        parent = write(tmp_path / "parent.json", [workload()])
        same = write(tmp_path / "same.json", [workload()])
        slower = write(tmp_path / "slower.json", [workload(walls=(3.0,) * 4)])
        for change, status in ((same, 0), (slower, 1)):
            process = subprocess.run([sys.executable, COMPARE, parent, change],
                                     stdout=subprocess.PIPE, text=True,
                                     timeout=60)
            assert process.returncode == status
