"""Smoke test of the benchmark harness at its smallest size (a few seconds).

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root, with ``src`` on PYTHONPATH.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "betti-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    for workload in ("betti-sparse", "cli"):
        first = wl.build_inputs(workload, 1)
        assert wl.digest(first) == wl.digest(wl.build_inputs(workload, 1))
        other = wl.build_inputs(workload, 2)
        assert wl.digest(first) != wl.digest(other)
        if workload == "betti-sparse":
            assert [x["expected"] for x in first] == \
                [x["expected"] for x in other]


def test_kunneth_reference():
    assert wl.kunneth((1, 1), (1, 1)) == (1, 2, 1)
    assert wl.kunneth(wl.FIXTURE_BETTI["su3"], wl.FIXTURE_BETTI["R1"]) == \
        (1, 1, 0, 1, 1, 1, 1, 0, 1, 1)


def test_traced_betti_operation_is_checked_and_covered():
    from liekernel import cohomology, linalg

    original_rank = linalg.rank
    smallest = [x for x in wl.build_inputs("betti-sparse", 1)
                if x["name"] == "su3+R1"]
    with tracing.Tracer() as tracer:
        assert cohomology.rank is not original_rank
        (op,) = wl.betti_round(smallest, tracer)
    assert cohomology.rank is original_rank
    assert not op.failed and op.coverage >= 0.9
    snap = tracer.snapshot()
    assert snap["missing"] == []
    assert snap["spans"]["linalg.rank"][0] == 9  # one rank per degree < n
    assert snap["counters"]["cohomology.d_rows.nnz"] > 0


def test_cli_invocation_plain_and_traced(tmp_path):
    env = wl.child_env()
    argv = ["betti", "(0,0,12)", "--json"]
    expect = {"exit": 0, "result": {"b": [1, 2, 2, 1]}}
    _, code, out, err = wl.run_cli(argv, env)
    assert wl.judge_cli(expect, code, out, err) == (False, False)
    stats = tmp_path / "stats.json"
    _, code, out, err = wl.run_cli(argv, env, stats)
    assert wl.judge_cli(expect, code, out, err) == (False, False)
    assert json.loads(stats.read_text())["spans"]["parser.parse"][0] == 1


def test_judge_separates_wrong_answers_from_broken_contracts():
    ok = {"exit": 0, "result": {"b": [1, 2, 2, 1]}}
    good = json.dumps({"schema": "liekernel-report/1", "result": {"b": [1]}})
    assert wl.judge_cli(ok, 0, good, "") == (True, True)
    assert wl.judge_cli(ok, 1, "", "Traceback (most recent call last)") == \
        (True, False)
    refused = {"exit": "refused"}
    assert wl.judge_cli(refused, 2, "", "usage: liekernel") == (False, False)
    error = json.dumps({"schema": "liekernel-report/1",
                        "error": {"type": "BindingError", "message": "x"}})
    assert wl.judge_cli(refused, 1, error, "") == (False, False)
