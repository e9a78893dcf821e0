"""Smoke test and self-check of the benchmark itself.

    python3 -m pytest -q pipebench/test_selfcheck.py     (or: python3 pipebench/test_selfcheck.py)

Runs every workload at the tiny size (a few seconds each) and checks that
the gates pass, that the printed metrics are exactly those of
BENCHMARK.json, that two traced runs of one seed give identical counts, that
a slow or failing op is counted instead of stopping the run, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from tracer import TIMED_SUFFIXES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("survey30", "construct160", "roundtrip", "verify37")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, trace, seed=7, cwd=ROOT, size="tiny"):
    cmd = [sys.executable, os.path.join("pipebench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_pass_gates_and_print_every_end_to_end_metric():
    spec = bench()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        out = result(run(workload, 0))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (workload, out)
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(v["value"] > 0 for v in out["metrics"].values()), (workload, out)


def test_traced_runs_repeat_counts_exactly():
    want = {m["name"]: m["unit"] for m in bench()["per_layer"]}
    for workload in WORKLOADS:
        first, second = (result(run(workload, 1)) for _ in range(2))
        assert first["correct"] and second["correct"], workload
        assert {k: v["unit"] for k, v in first["metrics"].items()} == want
        counts = [
            {k: v["value"] for k, v in out["metrics"].items() if not k.endswith(TIMED_SUFFIXES)}
            for out in (first, second)
        ]
        assert counts[0] == counts[1], workload
        assert sum(v for k, v in counts[0].items() if k.endswith(".calls")) > 0, workload


def test_slow_and_failing_ops_are_counted():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import signal

    import run as bench_run
    from trigonal.errors import BadSupport

    def spin():
        while True:
            pass

    def bad_support():
        raise BadSupport("no good representative")

    def broken():
        raise ValueError("not a library error")

    previous = signal.signal(signal.SIGALRM, bench_run._on_alarm)
    try:
        t0 = time.perf_counter()
        assert bench_run.run_op(spin, 0.2, {"bad_support"})[0] == "deadline"
        assert time.perf_counter() - t0 < 5
        assert bench_run.run_op(bad_support, 5, {"bad_support"})[0] == "bad_support"
        assert bench_run.run_op(broken, 5, {"bad_support"})[0] == "other"
        assert bench_run.run_op(lambda: 42, 5, set())[:2] == ("ok", 42)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "pipebench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("survey30", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            t0 = time.perf_counter()
            fn()
            print(f"{name}: ok ({time.perf_counter() - t0:.1f} s)")
