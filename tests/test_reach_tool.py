"""The reach lane's parts: the collector, the allow-list and the verdict.

CI's ``reach`` job runs ``tools/reach/run.py`` over the whole shipping set,
which takes minutes.  These tests pin what the verdict rests on without
running that set: the collector records forked pool workers, every
allow-list entry names a function that needs one, and the verdict fails
both ways (an unlisted unreached function, a listed reached one).
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REACH = ROOT / "tools" / "reach"

_spec = importlib.util.spec_from_file_location("reach_run", REACH / "run.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


@pytest.fixture(scope="module")
def functions():
    return {function.name: function for function in reach.functions()}


def test_collector_writes_one_file_per_process_pool_workers_included(tmp_path):
    work = tmp_path / "work.py"
    work.write_text(textwrap.dedent("""\
        \"\"\"The module's own code object starts at line 1.\"\"\"


        def in_worker():
            return 1


        def in_parent():
            return 2
        """))
    out = tmp_path / "out"
    out.mkdir()
    script = textwrap.dedent(f"""\
        import sys
        sys.path[:0] = [{str(REACH)!r}, {str(tmp_path)!r}]
        import collector
        collector.install({str(out)!r})
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        import work
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            assert pool.submit(work.in_worker).result() == 1
        work.in_parent()
        """)
    subprocess.run([sys.executable, "-c", script], check=True)
    files = sorted(out.glob("*.txt"))
    assert len(files) == 2
    path = str(work.resolve())
    lines = [set(file.read_text().splitlines()) for file in files]
    worker = [seen for seen in lines if f"{path}\t4" in seen]
    parent = [seen for seen in lines if f"{path}\t8" in seen]
    assert len(worker) == 1 and len(parent) == 1 and worker != parent


def test_allow_list_entries_name_functions_that_need_one(functions):
    allowed = reach.read_allow_list()
    assert allowed
    for name, reason in allowed.items():
        assert name in functions, f"{name} names no function under src/repro"
        assert not functions[name].by_rule, (
            f"{name} is allowed by rule ({functions[name].by_rule}); "
            f"drop its entry")
        assert reason


def test_rules_cover_dunders_raise_only_bodies_and_abstract_methods(functions):
    assert functions["faults/stats.py::RecoveryTrace.__init__"].by_rule == "dunder"
    assert (functions["vision/similarity.py::ChangeDetector.score_next"].by_rule
            == "raise-only")
    assert functions["config.py::whole_number"].by_rule == ""


def test_verdict_fails_both_ways(functions):
    allowed = reach.read_allow_list()
    everything = {(function.filename, function.first_line)
                  for function in functions.values()}

    def seen_without(*names):
        return everything - {(functions[name].filename,
                              functions[name].first_line) for name in names}

    assert reach.verdict(seen_without(*allowed), allowed) == []
    listed = next(iter(allowed))
    assert reach.verdict(seen_without(*allowed), {
        **allowed, "config.py::whole_number": "made up"}) == [
        "allow-listed but reached: config.py::whole_number"]
    assert reach.verdict(seen_without(*allowed, "config.py::whole_number"),
                         allowed) == [
        "unreached and not allow-listed: config.py::whole_number"]
    assert reach.verdict(seen_without(*allowed) | {
        (functions[listed].filename, functions[listed].first_line)},
        allowed) == [f"allow-listed but reached: {listed}"]
