"""Surprise objectives on the probability simplex.

A schedule over ``m`` days is a probability vector ``p``.  An observer who
reaches day ``j`` knows only that the event did not happen earlier, so the
mass still in play is the tail ``T_j = p_j + ... + p_m``.  The surprise
realized when the event lands on day ``j`` is ``log(T_j / p_j)``.

Two equivalent scores for a schedule:

* the reduced score ``sm2(p) = sum_j p_j * (log p_j - log T_j)``, which is
  minus the expected realized surprise;
* the full score ``sm1(p) = sm2(p) + log m - 1``, which measures the
  schedule against a uniform reference forecast and subtracts the unit of
  mass spent.

``sm2`` is never positive and both scores peak at the same schedules, so the
reduced form is the one everything here computes with.  Natural logarithms
throughout, ``0 * log 0 == 0`` by convention, and input vectors are used
exactly as given, never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIMPLEX_SUM_TOL",
    "ObjectiveValue",
    "as_probability_vector",
    "tail_masses",
    "eval_sm2",
    "eval_sm1",
    "eval_sm2_batch",
    "objective_values",
    "gradient_sm2",
    "realized_surprise",
]

# Largest |sum(p) - 1| accepted on input.
SIMPLEX_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ObjectiveValue:
    """Both scores of one schedule plus the expected realized surprise."""

    sm2: float
    sm1: float
    expected_surprise: float


def as_probability_vector(values) -> np.ndarray:
    """Validate and return a schedule as a float64 array.

    Entries must be finite and nonnegative, there must be at least one, and
    the total mass must be within ``SIMPLEX_SUM_TOL`` of 1.  The vector is
    returned as-is; no renormalization.
    """
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a one-dimensional vector, got {p.ndim} dimensions")
    if p.size < 1:
        raise ValueError("a schedule needs at least one day")
    if not np.all(np.isfinite(p)):
        raise ValueError("entries must be finite")
    if not np.all(p >= 0.0):
        raise ValueError("entries must be nonnegative")
    total = float(np.sum(p))
    if abs(total - 1.0) > SIMPLEX_SUM_TOL:
        raise ValueError(f"sum {total!r} exceeds tolerance {SIMPLEX_SUM_TOL:g}")
    return p


def _check_integer(value, message: str) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ``message.format(value)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(message.format(value))
    return int(value)


def _tails(p: np.ndarray) -> np.ndarray:
    # Right-to-left accumulation along the last axis: T_m = p_m exactly,
    # T_1 = total mass.  Written backwards into a C-contiguous array, so a
    # vector and each row of a 2-D batch take the same ``np.log`` path.
    t = np.empty(p.shape)
    p[..., ::-1].cumsum(axis=-1, out=t[..., ::-1])
    return t


def tail_masses(p) -> np.ndarray:
    """Tail masses ``T_j = p_j + ... + p_m``, accumulated right to left."""
    return _tails(as_probability_vector(p))


def _sm2(p: np.ndarray):
    """Reduced score along the last axis: a scalar for a vector, one per row."""
    # No simplex check here: the finite-difference oracle evaluates the same
    # formula just off the simplex.  Entries must still be nonnegative.
    t = _tails(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(t))
    return np.where(p > 0.0, terms, 0.0).sum(axis=-1)


def eval_sm2(p) -> float:
    """Reduced score ``sum_j p_j * (log p_j - log T_j)``.  Always <= 0."""
    return float(_sm2(as_probability_vector(p)))


def eval_sm1(p) -> float:
    """Full score, computed from the reduced one as ``sm2 + log m - 1``."""
    return objective_values(p).sm1


def eval_sm2_batch(points: np.ndarray) -> np.ndarray:
    """Reduced score of every row of a 2-D array.

    Rows are trusted to be nonnegative (lattice points from the grid oracle
    are exact simplex points by construction); there is no per-row sum check.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected a two-dimensional array, got {pts.ndim} dimensions")
    return _sm2(pts)


def objective_values(p) -> ObjectiveValue:
    """Bundle ``sm2``, ``sm1``, and the expected surprise ``-sm2``."""
    v = as_probability_vector(p)
    sm2 = float(_sm2(v))
    return ObjectiveValue(
        sm2=sm2,
        sm1=sm2 + math.log(v.size) - 1.0,
        expected_surprise=-sm2,
    )


def gradient_sm2(p) -> np.ndarray:
    """Componentwise derivative of the reduced score.

    ``g_j = log p_j + 1 - log T_j - sum_{k<=j} p_k / T_k``.  Defined only on
    the simplex interior; any zero entry raises.
    """
    v = as_probability_vector(p)
    if not np.all(v > 0.0):
        raise ValueError("gradient needs every entry strictly positive")
    t = _tails(v)
    return np.log(v) + 1.0 - np.log(t) - np.cumsum(v / t)


def realized_surprise(p, day: int) -> float:
    """Surprise ``log(T_day / p_day)`` felt when the event lands on ``day``.

    Nonnegative because ``T_day >= p_day``.  Days are 1-based; a day that
    carries no probability has no defined surprise and raises.
    """
    v = as_probability_vector(p)
    m = v.size
    day = _check_integer(day, "day must be an integer, got {!r}")
    if not 1 <= day <= m:
        raise ValueError(f"day {day} out of range 1..{m}")
    pj = float(v[day - 1])
    if pj <= 0.0:
        raise ValueError(f"day {day} has zero probability")
    tj = float(_tails(v)[day - 1])
    return math.log(tj / pj)
