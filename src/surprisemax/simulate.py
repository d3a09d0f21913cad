"""Monte Carlo estimate of the expected surprise of a schedule.

Sampling is inverse-CDF against the cumulative masses, driven by the
SplitMix64 generator in :mod:`.rng`, so a (schedule, sample count, seed)
triple pins the estimate down to the bit.  The estimator is the plain
sample mean of the realized surprise of each drawn day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import _check_integer, _tails, as_probability_vector
from .rng import SplitMix64, _check_seed

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "sample_day",
    "estimate_expected_surprise",
]

@dataclass(frozen=True)
class SimulationConfig:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if _check_integer(self.samples, "sample count must be an integer, got {!r}") < 1:
            raise ValueError(f"sample count must be at least 1, got {self.samples}")
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
# Keys stepped per block, so each step's temporaries stay in cache.
_BLOCK = 1 << 16


def _day_indices(cum: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    # 0-based day of each key u in [0, 1): the first index whose cumulative
    # mass exceeds u, i.e. np.searchsorted(cum, u, side="right").  A
    # zero-probability day owns an empty interval, so it can never come out.
    # If accumulated rounding leaves u at or above the final cumulative mass,
    # fall back to the last day that carries probability.
    m = cum.size
    buckets = 1 << (m - 1).bit_length()
    if u.size < buckets:
        # Fewer keys than buckets: building the table costs more than it saves.
        idx = np.searchsorted(cum, u, side="right")
    else:
        idx = _guide_search(cum, u, buckets)
    idx[idx >= m] = int(np.flatnonzero(p > 0.0)[-1])
    return idx


def _guide_search(cum: np.ndarray, u: np.ndarray, buckets: int) -> np.ndarray:
    # np.searchsorted(cum, u, side="right") by a guide table: [0, 1) is cut
    # into `buckets` (a power of two) equal buckets, and guide[b] counts the
    # masses <= b/buckets.  floor(u*buckets) is exact for a power of two, so
    # a key in bucket b starts at guide[b] and is short of its index by at
    # most the masses inside the bucket; each step moves it past one of them.
    # Keys in buckets wider than _GUIDE_STEPS that are still short after the
    # steps finish by binary search.
    guide = np.searchsorted(cum, np.arange(buckets + 1) / buckets, side="right")
    padded = np.append(cum, np.inf)
    idx = np.empty(u.shape, dtype=np.intp)
    np.multiply(u, buckets, out=idx, casting="unsafe")
    np.take(guide, idx, out=idx, mode="clip")
    widest = int(np.diff(guide).max())
    steps = min(widest, _GUIDE_STEPS)
    for start in range(0, idx.size, _BLOCK):
        block, keys = idx[start : start + _BLOCK], u[start : start + _BLOCK]
        for _ in range(steps):
            block += np.take(padded, block, mode="clip") <= keys
    if widest > _GUIDE_STEPS:
        rest = np.flatnonzero(np.take(padded, idx, mode="clip") <= u)
        idx[rest] = np.searchsorted(cum, u[rest], side="right")
    return idx


def sample_day(p, rng: SplitMix64) -> int:
    """Draw one event day (1-based) from the schedule by inverse CDF."""
    v = as_probability_vector(p)
    cum = np.cumsum(v)
    u = np.array([rng.next_double()])
    return int(_day_indices(cum, u, v)[0]) + 1


def estimate_expected_surprise(p, config: SimulationConfig) -> SimulationResult:
    """Sample mean of the realized surprise over ``config.samples`` draws.

    Equivalent, draw for draw, to repeating ``sample_day`` with a fresh
    generator seeded at ``config.seed`` and averaging
    ``realized_surprise(p, day)`` in draw order.  ``std_error`` is the
    sample standard deviation divided by ``sqrt(samples)``; with a single
    draw, or a point-mass schedule, it is exactly zero.
    """
    v = as_probability_vector(p)
    cum = np.cumsum(v)
    idx = _day_indices(cum, SplitMix64(config.seed).doubles(config.samples), v)
    # realized_surprise of every day from one tails pass; zero-mass days are
    # never drawn.  math.log, not np.log, keeps each entry bit-equal to it.
    per_day = np.array(
        [
            math.log(t / q) if q > 0.0 else 0.0
            for q, t in zip(v.tolist(), _tails(v).tolist())
        ]
    )
    values = per_day[idx]
    del idx  # free the indices before np.std allocates its deviations
    mean = float(np.mean(values))
    if config.samples > 1:
        std_error = float(np.std(values, ddof=1) / math.sqrt(config.samples))
    else:
        std_error = 0.0
    return SimulationResult(
        mean=mean,
        std_error=std_error,
        samples=int(config.samples),
        seed=int(config.seed),
    )
