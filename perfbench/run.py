"""Benchmark of the surprisemax CLI: three seeded closed-loop workloads.

    python3 perfbench/run.py [--workload solve-large|verify-sweep|simulate-mc|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh worker
process, one at a time.  With --trace 0 it reports the end-to-end metrics; the
set-up time is the median of several fresh interpreters.  With --trace 1 it
reports the per-layer metrics of a traced replay instead and saves the spans
under .perfbench_out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exits 1 without a result when
the checkout has no src/surprisemax, or when a worker fails.

See perfbench/README.md for the workloads, the metrics and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_PROBES = 6

# name -> unit; error_rate is reported by name but is not in the result's
# metrics, because it is 0 when the program is correct (see README.md).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update((var, "1") for var in _THREAD_VARS)
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Probe set-up time, then run the closed loop, in fresh processes."""
    base = ["--workload", name, "--seed", str(seed)]
    # Half the set-up probes run before the loop and half after, so one slow
    # spell on a shared machine cannot cover them all.
    probes = [] if traced else [_worker(["--probe", *base], timeout=30) for _ in range(SETUP_PROBES // 2)]
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        loop = _worker(
            [*base, "--seconds", str(seconds), "--trace", str(int(traced)),
             "--workdir", workdir, "--outdir", os.path.join(ROOT, ".perfbench_out")],
            timeout=120,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not traced:
        probes += [_worker(["--probe", *base], timeout=30) for _ in range(SETUP_PROBES - len(probes))]

    errors = [p["error"] for p in probes if p["error"]] + loop["failures"]
    attempted = len(probes) + loop["attempted"]
    failed = sum(1 for p in probes if p["error"]) + loop["failed"]
    wall = {}
    if traced:
        metrics = loop["layers"]
    else:
        values = {key: loop[key] for key in END_TO_END if key in loop}
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        wall = dict(loop["wall"], setup_s=statistics.median(p["setup_wall_s"] for p in probes),
                    kernel_ms=loop["kernel_ms"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall": wall,
        "requests": loop["requests"],
        "numpy": loop["numpy"],
        "errors": errors[:5],
    }


def _report(name: str, result: dict) -> None:
    print(f"{name}: {result['requests']} timed requests, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'error_rate':48s} {result['failed'] / result['attempted']:14.6g} ratio")
    if result["wall"]:
        print("  unscaled wall-clock figures (not compared between runs):")
        for key, value in result["wall"].items():
            unit = END_TO_END.get(key, "ms")
            print(f"    {key:46s} {value:14.6g} {unit}")
    for error in result["errors"]:
        print(f"  error: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "surprisemax", "cli.py")):
        print(f"perfbench: no src/surprisemax/cli.py under {ROOT}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for name, result in results.items():
        _report(name, result)
    env = {
        "python": platform.python_version(),
        "numpy": results[names[0]]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": 1,
    }
    print("environment: " + json.dumps(env))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
