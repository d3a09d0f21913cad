"""Check the CLI's array float rendering against ``repr`` on random bit patterns.

    PYTHONPATH=src python tests/sweep_float_text.py [--count N] [--seed S]

Draws ``N`` seeded random 64-bit patterns, keeps those that are finite as
float64, and renders them in runs of ``cli._CHUNK`` entries, as the CLI
does, with ``cli.format_floats``.  Each run's texts must equal
``format_float`` of each entry.  Exits 1 at the first run that differs,
naming the first value rendered wrong.  Too slow for the tier-1 suite at
its default of 10,000,000 patterns (about 30 s on a 2-vCPU Xeon guest),
so CI runs it as a step.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from surprisemax.cli import _CHUNK, format_float, format_floats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    checked = 0
    for start in range(0, args.count, _CHUNK):
        n = min(_CHUNK, args.count - start)
        run = np.frombuffer(rng.bytes(8 * n), dtype=np.uint64).view(np.float64)
        run = run[np.isfinite(run)]
        texts = list(map(format_float, run.tolist()))
        have = format_floats(run)
        if have != texts:
            x, want, got = next((x, w, h) for x, w, h in zip(run.tolist(), texts, have) if w != h)
            print(f"mismatch at {x!r}: repr gives {want!r}, format_floats gives {got!r}", file=sys.stderr)
            return 1
        checked += run.size
    print(f"{checked} finite values of {args.count} patterns (seed {args.seed}) render as repr does")
    return 0


if __name__ == "__main__":
    sys.exit(main())
