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

from .objective import _check_integer, as_probability_vector, tail_masses
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


def _day_indices(cum: np.ndarray, u, p: np.ndarray):
    # First index whose cumulative mass exceeds u.  A zero-probability day
    # owns an empty interval, so it can never come out.  If accumulated
    # rounding leaves u at or above the final cumulative mass, fall back to
    # the last day that carries probability.
    idx = np.searchsorted(cum, u, side="right")
    fallback = int(np.flatnonzero(p > 0.0)[-1])
    return np.where(idx >= p.size, fallback, idx)


def sample_day(p, rng: SplitMix64) -> int:
    """Draw one event day (1-based) from the schedule by inverse CDF."""
    v = as_probability_vector(p)
    cum = np.cumsum(v)
    u = rng.next_double()
    return int(_day_indices(cum, u, v)) + 1


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
    rng = SplitMix64(config.seed)
    u = rng.doubles(config.samples)
    idx = _day_indices(cum, u, v)
    # realized_surprise of every day from one tails pass; zero-mass days are
    # never drawn.  math.log, not np.log, keeps each entry bit-equal to it.
    per_day = np.array(
        [
            math.log(t / q) if q > 0.0 else 0.0
            for q, t in zip(v.tolist(), tail_masses(v).tolist())
        ]
    )
    values = per_day[idx]
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
