"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of blocks.  Each block holds one draw from
every stratum of the workload's log-uniform size range, in shuffled order, and
a run is always a whole number of blocks.  So every run sees nearly the same
mix of sizes whatever the seed, while every size, seed and order still comes
from the seed.  The program under test sees only the argv lists and the eval
input files written here.

This module uses the standard library only; it never imports the package under
test.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("solve-large", "verify-sweep", "simulate-mc")
FORMATS = ("csv", "json")

# solve-large: 12 solve strata and 4 eval requests per block (75% / 25%).
# The eval vectors come from 16 strata; block b takes strata b%4, b%4+4, ...
SOLVE_DAYS = (1_000, 50_000)
SOLVE_STRATA = 12
EVAL_VECTORS = 16
EVAL_PER_BLOCK = 4

# verify-sweep: 9 strata of the span start plus one grid request (m in {2, 3})
# per block, so about 10% of requests run the grid scan.
VERIFY_START = (4, 2_000)
VERIFY_STRATA = 9
VERIFY_WIDTHS = (0, 1, 3)
GRID_CASES = tuple((a, w) for a in (2, 3) for w in VERIFY_WIDTHS)

# simulate-mc: 8 strata of days, paired in rotation with 8 strata of samples.
SIMULATE_DAYS = (50, 3_000)
SIMULATE_SAMPLES = (100_000, 1_000_000)
SIMULATE_STRATA = 8


def _rng(workload: str, seed: int, tag) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are stable across runs.
    return random.Random(f"{workload}:{seed}:{tag}")


def _stratum(rng: random.Random, lo: int, hi: int, k: int, i: int) -> int:
    """One log-uniform draw on [lo, hi] from stratum ``i`` of ``k`` equal strata."""
    u = (i + rng.random()) / k
    return min(hi, max(lo, round(lo * math.exp(u * math.log(hi / lo)))))


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One draw from each of ``k`` strata, smallest stratum first."""
    return [_stratum(rng, lo, hi, k, i) for i in range(k)]


def _span(a: int, w: int) -> list[str]:
    return ["verify", "--days", f"{a}..{a + w}"]


def _simulate(m: int, n: int, sim_seed: int, fmt: str) -> list[str]:
    return ["simulate", "--days", str(m), "--samples", str(n), "--seed", str(sim_seed), "--format", fmt]


def eval_vectors(seed: int) -> list[list[float]]:
    """Random simplex vectors for the eval requests, one per size stratum."""
    rng = _rng("solve-large", seed, "eval")
    vectors = []
    for m in _strata(rng, *SOLVE_DAYS, EVAL_VECTORS):
        draws = [rng.expovariate(1.0) for _ in range(m)]
        total = math.fsum(draws)
        vectors.append([x / total for x in draws])
    return vectors


def write_eval_files(workload: str, seed: int, workdir: str):
    """Write each eval vector as a JSON array and as one number per line.

    Returns the (JSON, lines) path pairs, smallest vector first, and the
    vector behind every path, for the checker.
    """
    pairs, vectors = [], {}
    if workload != "solve-large":
        return pairs, vectors
    for i, v in enumerate(eval_vectors(seed)):
        pair = (os.path.join(workdir, f"eval-{i}.json"), os.path.join(workdir, f"eval-{i}.txt"))
        bodies = ("[" + ", ".join(map(repr, v)) + "]", "\n".join(map(repr, v)) + "\n")
        for path, body in zip(pair, bodies):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(body)
            vectors[path] = v
        pairs.append(pair)
    return pairs, vectors


def first_request(workload: str, seed: int) -> list[str]:
    """The request a fresh process runs first: one from the smallest stratum.

    Keeping it small makes set-up time mostly the cost of starting up.
    """
    rng = _rng(workload, seed, "first")
    if workload == "solve-large":
        m = _stratum(rng, *SOLVE_DAYS, SOLVE_STRATA, 0)
        return ["solve", "--days", str(m), "--format", rng.choice(FORMATS)]
    if workload == "verify-sweep":
        return _span(_stratum(rng, *VERIFY_START, VERIFY_STRATA, 0), 0)
    if workload == "simulate-mc":
        m = _stratum(rng, *SIMULATE_DAYS, SIMULATE_STRATA, 0)
        n = _stratum(rng, *SIMULATE_SAMPLES, SIMULATE_STRATA, 0)
        return _simulate(m, n, rng.getrandbits(64), rng.choice(FORMATS))
    raise ValueError(f"unknown workload {workload!r}")


def block(workload: str, seed: int, b: int, eval_paths: list[tuple[str, str]] = ()) -> list[list[str]]:
    """Block ``b`` of the workload's request sequence, as argv lists.

    ``eval_paths`` holds one (JSON, lines) file pair per eval vector, smallest
    vector first; only solve-large uses it.
    """
    rng = _rng(workload, seed, b)
    if workload == "solve-large":
        # Formats alternate along the size order and swap every block, so each
        # solve stratum is rendered in both formats equally.  Each eval vector
        # comes up every fourth block and takes the four (input, output) format
        # pairs in turn.
        requests = [
            ["solve", "--days", str(m), "--format", FORMATS[(r + b) % 2]]
            for r, m in enumerate(_strata(rng, *SOLVE_DAYS, SOLVE_STRATA))
        ]
        visit = b // EVAL_PER_BLOCK
        requests += [
            ["eval", "--input", pair[(r + visit // 2) % 2], "--format", FORMATS[(r + visit) % 2]]
            for r, pair in enumerate(eval_paths[b % EVAL_PER_BLOCK :: EVAL_PER_BLOCK])
        ]
    elif workload == "verify-sweep":
        # Widths rotate along the size order and every block, so each stratum
        # sees every width equally; the grid request cycles through every
        # (start, width) case in a seeded order, one case per block.
        requests = [
            _span(a, VERIFY_WIDTHS[(r + b) % len(VERIFY_WIDTHS)])
            for r, a in enumerate(_strata(rng, *VERIFY_START, VERIFY_STRATA))
        ]
        cases = _rng(workload, seed, "grid").sample(GRID_CASES, len(GRID_CASES))
        requests.append(_span(*cases[b % len(cases)]))
    elif workload == "simulate-mc":
        # Days stratum i is paired with samples stratum (i + b) mod k, so every
        # k blocks hold each (days, samples) stratum pair once, whatever the
        # seed.
        days = _strata(rng, *SIMULATE_DAYS, SIMULATE_STRATA)
        samples = _strata(rng, *SIMULATE_SAMPLES, SIMULATE_STRATA)
        requests = [
            _simulate(m, samples[(i + b) % SIMULATE_STRATA], rng.getrandbits(64), FORMATS[(i + b) % 2])
            for i, m in enumerate(days)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests
