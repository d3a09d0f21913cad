"""Smoke run of the benchmark: a short run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run ends with the result line, that it carries exactly the
metrics BENCHMARK.json names for that mode with their units, and that no
request failed (error_rate 0).  Also checks that the benchmark refuses to run,
without printing a result, in a copy that holds only BENCHMARK.json and
perfbench/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(expected))}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric is not finite")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if not any(line.split()[:2] == ["error_rate", "0"] for line in lines):
                problems.append(f"{where}: no error_rate 0 line")
            print(f"{where}: {result['attempted']} attempted, {result['failed']} failed")

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without src/ still ran or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
