#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs ``bench/run.py --size tiny``
untraced and traced and checks that the last output line names exactly
the declared end-to-end (or per-layer) metrics, each with its declared
unit and a finite value, with no failed operation. It reruns the
untraced case under another PYTHONHASHSEED and requires identical exact
counts, and checks that a directory holding only BENCHMARK.json and the
benchmark's files makes the runner exit non-zero without a result.
Scratch files go to bench/out/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_output(proc, declared: dict[str, str]) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-800:]}"], {}
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"failed operations: {result['failed']} of {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    for key in ("nproc", "python", "numpy", "commit", "blas_threads"):
        if key not in info.get("env", {}):
            problems.append(f"environment lacks {key}")
    return problems, info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = {}
        for trace, hash_seed in ((0, "1"), (1, "1"), (0, "2")):
            problems, info = check_output(run(ROOT, workload, trace, hash_seed), declared[trace])
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
            if trace == 0:
                counts[hash_seed] = info.get("counts")
        if counts["1"] != counts["2"]:
            failures.append(f"{workload}: counts differ across PYTHONHASHSEED: {counts}")
        print(f"{workload}: checked", flush=True)

    # a directory with only BENCHMARK.json and the benchmark must be refused
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, spec["workloads"][0]["name"], 0, "1")
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
