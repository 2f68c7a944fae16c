"""Multi-process cache stress: racing builders + a concurrent LRU sweeper.

Acceptance contract (ISSUE 4): two interpreter sessions racing
``prepare_workload`` on the same content key while an LRU sweep runs
concurrently must leave the cache uncorrupted (a third session rebuilds
entirely from disk), render each clip at most once per session (one
"loser" may duplicate the winner's work, nothing re-renders in a loop),
and end within the configured ``REPRO_CACHE_MAX_BYTES`` budget.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import diskcache

#: Size of each incompressible filler entry pre-seeding the cache (bytes).
FILLER_BYTES = 1_000_000

#: Number of filler entries; together they exceed the budget, so the
#: concurrent sweeper always has real evictions to perform.
NUM_FILLERS = 12

#: Cache budget: comfortably above the working set of the quick workload
#: build (~2-3 MB), far below fillers + working set (~12 MB+).
BUDGET_BYTES = 8_000_000


def _src_dir():
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")


#: One racing "session": builds the quick workload through every cache
#: layer and reports its perf sections + a result fingerprint as JSON.
_RACER_SCRIPT = """
import json
import sys

sys.path.insert(0, {src!r})
from repro.experiments import ExperimentConfig, prepare_workload
from repro.perf import get_recorder

config = ExperimentConfig(duration_seconds=6.0, render_scale=0.05,
                          datasets=("jackson_square",))
workload = prepare_workload("jackson_square", config)
summary = get_recorder().summary()
print(json.dumps({{
    "sections": {{name: stats["calls"] for name, stats in summary.items()}},
    "fingerprint": [workload.name, workload.num_frames,
                    workload.semantic_bytes, workload.default_bytes,
                    list(workload.semantic_samples),
                    list(workload.mse_samples),
                    list(workload.uniform_samples)],
}}))
"""

#: A concurrent sweeper session: repeatedly enforces the budget while the
#: racers build, mimicking an unrelated warm process storing artifacts.
_SWEEPER_SCRIPT = """
import sys
import time

sys.path.insert(0, {src!r})
from repro.datasets import diskcache

print("ready", flush=True)
evictions = 0
for _ in range(120):
    evictions += len(diskcache.sweep(max_bytes={budget}).evicted)
    time.sleep(0.05)
print(evictions)
"""


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    # The budget is NOT set in this process: the fillers must be seeded
    # unbudgeted (over budget) so the concurrent sweeper has real work.
    # The racing/sweeping subprocesses get it through their own env.
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(diskcache.CACHE_MAX_BYTES_ENV, raising=False)
    return tmp_path


def seed_fillers():
    """Pre-seed the cache with cold filler entries exceeding the budget."""
    rng = np.random.default_rng(99)
    for index in range(NUM_FILLERS):
        payload = rng.integers(0, 255, FILLER_BYTES, dtype=np.int64).astype(
            np.uint8)
        diskcache.store("filler", f"filler-{index:02d}", {"blob": payload})


class TestConcurrentBuildAndSweep:
    def test_race_same_key_with_concurrent_lru_sweep(self, cache_dir):
        seed_fillers()
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   REPRO_CACHE_MAX_BYTES=str(BUDGET_BYTES))
        racer_script = _RACER_SCRIPT.format(src=_src_dir())
        sweeper_script = _SWEEPER_SCRIPT.format(src=_src_dir(),
                                                budget=BUDGET_BYTES)

        sweeper = subprocess.Popen([sys.executable, "-c", sweeper_script],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
        # The racers' first store enforces the budget too.  Start them once
        # the sweeper is past its imports, or whoever imports faster evicts
        # the fillers and a quick build leaves the sweeper nothing to do.
        assert sweeper.stdout.readline().strip() == b"ready", \
            sweeper.stderr.read().decode()
        racers = [subprocess.Popen([sys.executable, "-c", racer_script],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for _ in range(2)]
        outputs = []
        for racer in racers:
            stdout, stderr = racer.communicate(timeout=600)
            assert racer.returncode == 0, stderr.decode()
            outputs.append(json.loads(stdout))
        sweeper_out, sweeper_err = sweeper.communicate(timeout=600)
        assert sweeper.returncode == 0, sweeper_err.decode()

        # No corruption: both racers produced the identical workload.
        assert outputs[0]["fingerprint"] == outputs[1]["fingerprint"]
        # No double-render beyond one loser: each session rendered at most
        # once (a loser duplicates the winner's work, nobody loops).
        for output in outputs:
            assert output["sections"].get("dataset.render", 0) <= 1
            assert output["sections"].get("workload.build", 0) <= 1
        total_renders = sum(output["sections"].get("dataset.render", 0)
                            for output in outputs)
        assert total_renders <= 2
        # The concurrent sweeper actually ran against the racing writers.
        assert int(sweeper_out.decode().strip()) > 0

        # Budget respected after the race (one final sweep settles stores
        # that landed after the sweeper's last pass).
        diskcache.sweep(max_bytes=BUDGET_BYTES)
        assert diskcache.cache_total_bytes() <= BUDGET_BYTES

        # The hot artifacts survived the sweeps (they are the newest): a
        # third session is fully warm — no renders, no tuning, and the
        # same fingerprint, proving the raced entries are readable.
        result = subprocess.run([sys.executable, "-c", racer_script],
                                env=env, capture_output=True, text=True,
                                timeout=600)
        assert result.returncode == 0, result.stderr
        warm = json.loads(result.stdout)
        assert warm["fingerprint"] == outputs[0]["fingerprint"]
        assert "dataset.render" not in warm["sections"]
        assert "workload.build" not in warm["sections"]
        assert "workload.disk_hit" in warm["sections"]

    def test_budget_holds_under_repeated_stores(self, cache_dir, monkeypatch):
        """Single-process view of the same invariant: every store sweeps,
        so the cache never ends a store above budget."""
        monkeypatch.setenv(diskcache.CACHE_MAX_BYTES_ENV, str(BUDGET_BYTES))
        rng = np.random.default_rng(7)
        for index in range(10):
            payload = rng.integers(0, 255, FILLER_BYTES, dtype=np.int64
                                   ).astype(np.uint8)
            diskcache.store("filler", f"wave-{index}", {"blob": payload})
            assert diskcache.cache_total_bytes() <= BUDGET_BYTES
