#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size, in well under a minute.

    python3 bench/selftest.py

1. Every workload, untraced and traced, passes every output check on this
   code (``failed`` is 0), and its result line has exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, with every metric
   ``BENCHMARK.json`` names for that mode.
2. A corrupted golden value is counted as a failure, not ignored: one
   simulator traffic record, one float result and one criterion-1 entry.
3. Without the package next to it, the benchmark exits non-zero and prints
   no result.

Exits 0 when all checks hold and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_cmd(workload, trace, seed=5, seconds=0.3):
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", "tiny"]


def check_clean_runs(spec, names) -> list[str]:
    problems = []
    for workload in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(bench_cmd(workload, trace), cwd=run.ROOT,
                                  capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{label}: metrics {got} != BENCHMARK.json {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
    return problems


def corrupted(golden, workload) -> dict:
    g = copy.deepcopy(golden)
    tiny = g["traffic"]["tiny"]
    if workload == "stencil-sweep":
        tiny["am04/always"]["traffic"][0][0] += 64
    elif workload == "store-copy":
        tiny["halo_copy/3"]["value"] *= 1 + 1e-15
    else:
        g["criterion1"]["am04"][6] += 8
    return g


def check_corruption_counts(names) -> list[str]:
    problems = []
    golden = run.load_golden()
    for workload in names:
        args = argparse.Namespace(workload=workload, seed=5, seconds=0.1, trace=0,
                                  size="tiny")
        record = run.run(args, corrupted(golden, workload))
        result = record["result"]
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{workload}: corrupted golden not counted "
                            f"(failed={result['failed']})")
    return problems


def check_refuses_without_package() -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench_cmd("stencil-sweep", 0), cwd=tmp,
                              capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without the package: exit {proc.returncode}, "
                f"stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_package()
    import workloads
    problems = (check_clean_runs(spec, workloads.WORKLOADS)
                + check_corruption_counts(workloads.WORKLOADS)
                + check_refuses_without_package())
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
