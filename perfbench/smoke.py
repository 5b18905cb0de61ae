#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny graphs.

    python3 perfbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json it
checks that an untraced run prints exactly the end-to-end metrics and a
traced run exactly the per-layer metrics, each with its declared unit and
a finite value; that a run with an injected bad label reports
`correct: false` and exits 1; and that the benchmark exits nonzero,
without a result line, in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, trace, declared):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    res = result(proc)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    for key in ("nproc", "threads", "rev", "rustc", "graph", "snapshot_bytes",
                "workload_seed", "attempted", "error_rate"):
        assert key in record, f"record lacks {key}"


def check_bad_label(workload):
    proc = run(workload, 0, "--inject-bad-label")
    assert proc.returncode == 1, f"{workload}: injected bad label exited {proc.returncode}"
    res = result(proc)
    assert res["correct"] is False and res["failed"] >= 1, res


def check_bare_directory():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without the repository"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the repository"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for w in SPEC["workloads"]:
        check_metrics(w["name"], 0, SPEC["end_to_end"])
        check_metrics(w["name"], 1, SPEC["per_layer"])
        check_bad_label(w["name"])
        print(f"ok {w['name']}", flush=True)
    check_bare_directory()
    print("ok bare directory fails")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit(f"FAIL: {e}")
