"""Layer benchmark of surprisemax: each layer timed in process at fixed sizes.

    PYTHONPATH=src python bench/layers.py > layers.json

Times every layer at two or more fixed sizes, as the min of ``_REPEAT``
runs of ``time.perf_counter`` (``_PROCESS_REPEAT`` for the CLI run as a
subprocess), and fits its exponent in the size (days ``m``, points or
samples) by least squares on ``log(time)`` against ``log(size)``.  Also
records the tracemalloc peaks of ``rollout`` and of the Monte Carlo, and
the machine the figures were taken on.  Writes one JSON object to stdout
and takes no arguments.  It imports the package found on ``PYTHONPATH``, so
pointing that at another checkout's ``src`` times that checkout, and runs
the CLI end to end from the same ``src``.  It shares no code with
``perfbench/``.  A whole run takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import surprisemax
from surprisemax import (
    GridSpec,
    SimulationConfig,
    ascent_optimize,
    estimate_expected_surprise,
    eval_sm2,
    gradient_sm2,
    grid_search,
    rollout,
)
from surprisemax import _floattext, cli, objective

SRC = os.path.dirname(os.path.dirname(os.path.abspath(surprisemax.__file__)))
# runs timed per size, the min kept; fewer for a fresh interpreter per call
_REPEAT = 7
_PROCESS_REPEAT = 3
# a run of at least this long is timed as one run, however many calls it takes
_MIN_RUN_S = 0.01


def _best_seconds(call, repeat: int) -> float:
    """Seconds per ``call()``, the min over ``repeat`` runs of enough calls to fill ``_MIN_RUN_S``."""
    call()  # fill caches and lazy tables first
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= _MIN_RUN_S or number >= 1 << 20:
            break
        number *= 2
    best = elapsed / number
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _exponent(sizes, seconds) -> float:
    """Slope of ``log(seconds)`` against ``log(sizes)``, least squares."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def _layer(unit: str, cases, repeat: int = _REPEAT) -> dict:
    """Time ``call`` at each ``(size, call)`` of ``cases``; ``unit`` names the size."""
    sizes, seconds = [], []
    for size, call in cases:
        sizes.append(size)
        seconds.append(_best_seconds(call, repeat))
    return {
        "size": unit,
        "sizes": sizes,
        "seconds": seconds,
        "ns_per_unit": [1e9 * s / n for n, s in zip(sizes, seconds)],
        "exponent": _exponent(sizes, seconds),
    }


def _schedule(m: int, seed: int = 0) -> np.ndarray:
    p = np.random.default_rng(seed).exponential(size=m)
    return p / p.sum()


def _verify(lo: int, hi: int):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--days", f"{lo}..{hi}"])
        assert code == 0, (lo, hi, code)

    return call


def _solve_process(m: int):
    env = dict(os.environ, PYTHONPATH=SRC)

    def call():
        subprocess.run(
            [sys.executable, "-m", "surprisemax", "solve", "--days", str(m)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )

    return call


def _peak_bytes(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _machine() -> dict:
    cpuinfo = {}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpuinfo.get("model name") or platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "avx512": "avx512f" in cpuinfo.get("flags", "").split(),
        "platform": platform.platform(),
    }


def measure() -> dict:
    block = {m: np.array([_schedule(m, seed) for seed in range(9)]) for m in (10, 100, 1000)}
    vectors = {m: _schedule(m) for m in (1_000, 10_000, 100_000)}
    texts = {n: np.random.default_rng(1).random(n) for n in (4096, 65536)}
    mc = rollout(300).p

    def scored(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            objective._scored(p)

    layers = {
        "rollout": _layer("m", [(m, lambda m=m: rollout(m)) for m in (1_000, 10_000, 60_000)]),
        "eval_sm2": _layer("m", [(m, lambda p=p: eval_sm2(p)) for m, p in vectors.items()]),
        "gradient_sm2": _layer("m", [(m, lambda p=p: gradient_sm2(p)) for m, p in vectors.items()]),
        "_scored_9_rows": _layer("m", [(m, lambda p=p: scored(p)) for m, p in block.items()]),
        "ascent_optimize": _layer(
            "m", [(m, lambda m=m: ascent_optimize(m)) for m in (90, 2000)]
        ),
        # sized by the points scanned: 10,001 at m = 2 and 501,501 at m = 3
        "grid_search": _layer(
            "points",
            [(10_001, lambda: grid_search(2, GridSpec(10_000))), (501_501, lambda: grid_search(3, GridSpec(1_000)))],
        ),
        "estimate_expected_surprise": _layer(
            "samples",
            [(n, lambda n=n: estimate_expected_surprise(mc, SimulationConfig(n, 1))) for n in (100_000, 1_000_000)],
        ),
        "_floattext.entries": _layer("rows", [(n, lambda v=v: _floattext.entries(v)) for n, v in texts.items()]),
        # one span of four horizons from m, in this process
        "verify_loop": _layer("m", [(m, _verify(m, m + 3)) for m in (100, 1000)]),
        # python -m surprisemax solve --days m, a fresh process each time
        "cli_solve_process": _layer("m", [(m, _solve_process(m)) for m in (1_000, 100_000)], _PROCESS_REPEAT),
    }
    memory = {
        "rollout_peak_bytes": {str(m): _peak_bytes(lambda m=m: rollout(m)) for m in (10_000, 60_000)},
        "estimate_expected_surprise_peak_bytes": {
            str(n): _peak_bytes(lambda n=n: estimate_expected_surprise(mc, SimulationConfig(n, 1)))
            for n in (100_000, 1_000_000)
        },
    }
    return {
        "machine": _machine(),
        "repeat": _REPEAT,
        "process_repeat": _PROCESS_REPEAT,
        "layers": layers,
        "memory": memory,
    }


def main() -> int:
    if sys.argv[1:]:
        sys.exit(__doc__)
    start = time.perf_counter()
    result = measure()
    result["total_s"] = time.perf_counter() - start
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
