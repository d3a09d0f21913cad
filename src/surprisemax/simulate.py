"""Monte Carlo estimate of the expected surprise of a schedule.

Sampling is inverse-CDF against the cumulative masses, driven by the
SplitMix64 generator in :mod:`.rng`, so a (schedule, sample count, seed)
triple pins the estimate down to the bit.  The estimator is the plain
sample mean of the realized surprise of each drawn day.

The draws are never held as one float64 array.  ``np.mean`` and ``np.std``
add an array by NumPy's pairwise summation, whose split tree
``objective._tree_sum`` walks.  The sampler stops it at runs of at most
``_BLOCK`` (2^16) draws, its leaves, left to right on one generator.  Each
leaf is drawn, looked up and summed by ``np.add.reduce``, and its days are
kept as one index per draw of the smallest unsigned type that holds
``m - 1`` (1 byte up to 256 days, 2 up to 65,536).  A second walk sums the
squared deviations over the same leaves.  So the mean and the standard
error have the bits of ``np.mean`` and ``np.std(ddof=1)`` over every draw's
surprise, whatever the leaf size, and memory is the days plus fixed leaf
buffers of about 1.6 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import _check_integer, _tails, _tree_sum, as_probability_vector
from .rng import SplitMix64, _check_seed

__all__ = [
    "SAMPLE_CAP",
    "SimulationConfig",
    "SimulationResult",
    "sample_day",
    "estimate_expected_surprise",
]

# Refuse sample counts above this: the day indices alone take 1-2 GB there.
SAMPLE_CAP = 10**9


@dataclass(frozen=True)
class SimulationConfig:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if _check_integer(self.samples, "sample count must be an integer, got {!r}") < 1:
            raise ValueError(f"sample count must be at least 1, got {self.samples}")
        if self.samples > SAMPLE_CAP:
            raise ValueError(f"sample count {self.samples} is above the cap of {SAMPLE_CAP}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SimulationResult:
    """Sample mean, its standard error, and the inputs that produced them."""

    mean: float
    std_error: float
    samples: int
    seed: int


# Most cumulative masses one guide bucket may hold before its keys are
# finished by binary search instead of by stepping.
_GUIDE_STEPS = 8
# Draws per leaf of the pairwise-sum tree: the sampler holds the keys, days
# and values of one leaf at a time.  Runs NumPy adds whole are never split,
# so any leaf size gives the same bits.
_BLOCK = 1 << 16


def _day_lookup(cum: np.ndarray, p: np.ndarray, keys: float = math.inf):
    """A function from keys u in [0, 1) to their 0-based days.

    The day of u is the first index whose cumulative mass exceeds it, i.e.
    ``np.searchsorted(cum, u, side="right")``.  A zero-probability day owns an
    empty interval, so it can never come out.  If accumulated rounding leaves
    u at or above the final cumulative mass, it falls back to the last day
    that carries probability; with a final mass of 1 or more no key reaches
    it, and the pass is skipped.  The tables are built once, here, with no
    more buckets than days or than the ``keys`` keys they will serve.
    """
    m = cum.size
    last = int(np.flatnonzero(p > 0.0)[-1])
    short = cum[-1] < 1.0
    # A guide table: [0, 1) is cut into `buckets` (a power of two) equal
    # buckets, and guide[b] counts the masses <= b/buckets.  floor(u*buckets)
    # is exact for a power of two, so a key in bucket b starts at guide[b]
    # and is short of its index by at most the masses inside the bucket; each
    # step moves it past one of them.  Keys in buckets wider than
    # _GUIDE_STEPS that are still short after the steps finish by binary
    # search.
    buckets = 1 << (min(m, keys) - 1).bit_length()
    guide = np.searchsorted(cum, np.arange(buckets + 1) / buckets, side="right")
    padded = np.append(cum, np.inf)
    widest = int(np.diff(guide).max())
    steps = min(widest, _GUIDE_STEPS)

    def days(u: np.ndarray) -> np.ndarray:
        idx = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, buckets, out=idx, casting="unsafe")
        np.take(guide, idx, out=idx, mode="clip")
        for _ in range(steps):
            idx += np.take(padded, idx, mode="clip") <= u
        if widest > _GUIDE_STEPS:
            rest = np.flatnonzero(np.take(padded, idx, mode="clip") <= u)
            idx[rest] = np.searchsorted(cum, u[rest], side="right")
        if short:
            idx[idx >= m] = last
        return idx

    return days


def sample_day(p, rng: SplitMix64) -> int:
    """Draw one event day (1-based) from the schedule by inverse CDF."""
    v = as_probability_vector(p)
    cum = np.cumsum(v)
    u = np.array([rng.next_double()])
    return int(_day_lookup(cum, v, 1)(u)[0]) + 1


def estimate_expected_surprise(p, config: SimulationConfig) -> SimulationResult:
    """Sample mean of the realized surprise over ``config.samples`` draws.

    Equivalent, draw for draw, to repeating ``sample_day`` with a fresh
    generator seeded at ``config.seed`` and averaging
    ``realized_surprise(p, day)`` in draw order.  ``std_error`` is the
    sample standard deviation divided by ``sqrt(samples)``; with a single
    draw, or a point-mass schedule, it is exactly zero.  Both have the bits
    of ``np.mean`` and ``np.std(ddof=1)`` over the array of every draw's
    surprise, though no such array is built.
    """
    v = as_probability_vector(p)
    n = config.samples
    # realized_surprise of every day from one tails pass; zero-mass days are
    # never drawn, and read log(1) = 0.  The ratios are IEEE divisions either
    # way; math.log, not np.log, keeps each entry bit-equal to it.
    ratios = np.divide(_tails(v), v, out=np.ones_like(v), where=v > 0.0)
    per_day = np.fromiter(map(math.log, ratios.tolist()), float, v.size)
    days_of = _day_lookup(np.cumsum(v), v, n)
    rng = SplitMix64(config.seed)
    days = np.empty(n, dtype=np.min_scalar_type(v.size - 1))

    # np.add.reduce is 0.0 plus the pairwise sum; a nonnegative sum is never
    # -0.0, so the 0.0 each leaf adds changes nothing
    def drawn(lo: int, hi: int) -> float:
        # the leaves come left to right, so the draws come in order
        idx = days_of(rng.doubles(hi - lo))
        days[lo:hi] = idx
        return float(np.add.reduce(np.take(per_day, idx)))

    mean = _tree_sum(n, drawn, _BLOCK) / n
    if n > 1:
        # np.var's squared deviations, one per day instead of one per draw
        dev2 = per_day - mean
        dev2 *= dev2
        # days widened to intp first: NumPy gathers by uint8/uint16 indices
        # at about half the speed
        squares = _tree_sum(
            n, lambda lo, hi: float(np.add.reduce(np.take(dev2, days[lo:hi].astype(np.intp)))),
            _BLOCK,
        )
        std_error = math.sqrt(squares / (n - 1)) / math.sqrt(n)
    else:
        std_error = 0.0
    return SimulationResult(
        mean=mean,
        std_error=std_error,
        samples=int(n),
        seed=int(config.seed),
    )
