"""Multi-process cache stress: two sessions racing one workload build.

Acceptance contract: two interpreter sessions racing ``prepare_workload``
on the same content key must leave the cache uncorrupted (a third session
rebuilds entirely from disk) and render each clip at most once per session
(one "loser" may duplicate the winner's work, nothing re-renders in a
loop).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.datasets import diskcache


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


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


class TestConcurrentBuild:
    def test_two_sessions_race_one_key(self, cache_dir):
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
        racer_script = _RACER_SCRIPT.format(src=_src_dir())
        racers = [subprocess.Popen([sys.executable, "-c", racer_script],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for _ in range(2)]
        outputs = []
        for racer in racers:
            stdout, stderr = racer.communicate(timeout=600)
            assert racer.returncode == 0, stderr.decode()
            outputs.append(json.loads(stdout))

        # No corruption: both racers produced the identical workload.
        assert outputs[0]["fingerprint"] == outputs[1]["fingerprint"]
        # No double-render beyond one loser: each session rendered at most
        # once (a loser duplicates the winner's work, nobody loops).
        for output in outputs:
            assert output["sections"].get("dataset.render", 0) <= 1
            assert output["sections"].get("workload.build", 0) <= 1

        # A third session is fully warm — no renders, no tuning, and the
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
