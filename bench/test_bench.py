"""Self-test of the benchmark: a wrong verdict must raise failed_ops_frac.

    python3 -m pytest bench/test_bench.py

Passes run in-process and at the m = 2 rung, so the test takes seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracing import NULL_TRACER, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SMALL_CONSTRUCT = dataclasses.replace(WORKLOADS["construct-q4-m4"], m=2)


def run_pass(workload, workdir, faults=()):
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.new_state(7, workdir, NULL_TRACER, faults)
    checks = Checks()
    for stage in workload.stages:
        stage.run(state)
        stage.check(state, checks)
    return checks


def failed_ops_frac(checks):
    return checks.failed / checks.attempted


def test_tampered_reread_array_raises_failed_ops(tmp_path):
    clean = run_pass(SMALL_CONSTRUCT, tmp_path)
    tampered = run_pass(SMALL_CONSTRUCT, tmp_path, ["tamper"])
    assert clean.correct and clean.failed == 0
    assert not tampered.correct
    assert failed_ops_frac(tampered) > failed_ops_frac(clean)
    assert tampered.failures == ["reread array equals the certified one"]


def test_wrong_expected_exit_code_raises_failed_ops(tmp_path):
    clean = run_pass(WORKLOADS["cli-q4-m2"], tmp_path / "clean")
    wrong = run_pass(WORKLOADS["cli-q4-m2"], tmp_path / "wrong", ["wrong_exit"])
    assert clean.correct
    assert not wrong.correct
    assert wrong.failed == clean.failed + 1
    assert failed_ops_frac(wrong) > failed_ops_frac(clean)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.spans[0][1:3] = [0.0, 3.0]
    tracer.spans[1][1:3] = [1.0, 2.0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "cli-q4-m2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
