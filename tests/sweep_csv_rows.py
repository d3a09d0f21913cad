"""Check cold CSV output of ``solve`` and ``eval`` against a per-row reference.

    PYTHONPATH=src python tests/sweep_csv_rows.py [--days M] [--seed S]

Runs ``solve --days M --format csv`` and ``eval --format csv`` of an
``M``-entry schedule as fresh processes, and compares their stdout with
text built one row at a time: a scalar ``math.exp`` replay of the recursion
and rollout for ``solve``, and ``tail_masses`` of the schedule for
``eval``, each field by ``format_float``.  The default ``M = 100001`` gives
day numbers of six digits, which the tier-1 suite does not reach, and runs
across the 2^16 kept days.  Exits 1 naming the first line that differs.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import subprocess
import sys
import tempfile

import numpy as np

from surprisemax import objective_values, tail_masses
from surprisemax.cli import format_float


def solve_reference(m: int) -> str:
    g = [0.0] * (m + 1)
    for j in range(m, 0, -1):
        g[j - 1] = g[j] + math.exp(-g[j])
    lines = ["j,gamma,hazard,p,remaining_before"]
    remaining = 1.0
    for j in range(1, m + 1):
        hazard = math.exp(-g[j])
        allocation = remaining * hazard
        fields = (g[j], hazard, allocation, remaining)
        lines.append(",".join([str(j), *map(format_float, fields)]))
        remaining -= allocation
    return "\n".join(lines) + "\n"


def eval_reference(values: list[float]) -> str:
    v = np.array(values)
    obj = objective_values(v)
    lines = [
        "field,value",
        f"m,{v.size}",
        f"sm1,{format_float(obj.sm1)}",
        f"sm2,{format_float(obj.sm2)}",
        f"expected_surprise,{format_float(obj.expected_surprise)}",
    ]
    for name, column in (("p", values), ("tail", tail_masses(v).tolist())):
        lines += [f"{name}_{j},{format_float(x)}" for j, x in enumerate(column, 1)]
    return "\n".join(lines) + "\n"


def cold(*argv: str) -> str:
    return subprocess.run(
        [sys.executable, "-m", "surprisemax", *argv], check=True, capture_output=True, text=True
    ).stdout


def first_difference(name: str, have: str, want: str) -> bool:
    if have == want:
        print(f"{name}: {len(have)} characters equal")
        return False
    lines = zip(have.split("\n"), want.split("\n"))
    number, (h, w) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
    print(f"{name}: line {number} is {h!r}, expected {w!r}", file=sys.stderr)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=100_001)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    m = args.days
    failed = first_difference(
        f"solve --days {m} --format csv", cold("solve", "--days", str(m), "--format", "csv"),
        solve_reference(m),
    )
    rng = random.Random(args.seed)
    draws = [0.0 if j % 7 == 0 else rng.random() for j in range(m)]
    total = sum(draws)
    values = [x / total for x in draws]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[" + ", ".join(map(repr, values)) + "]")
        out = cold("eval", "--input", path, "--format", "csv")
    failed |= first_difference(f"eval --format csv of {m} entries", out, eval_reference(values))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
