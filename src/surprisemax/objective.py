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
    total = np.add.reduce(p, axis=-1)
    if not _sums_to_one(total):
        raise ValueError(f"sum {float(total)!r} exceeds tolerance {SIMPLEX_SUM_TOL:g}")
    return p


def _sums_to_one(total):
    """Whether a schedule's total, or each of an array of totals, is within ``SIMPLEX_SUM_TOL`` of 1."""
    return np.abs(total - 1.0) <= SIMPLEX_SUM_TOL


def _interior(p: np.ndarray) -> bool:
    """Whether every row of ``p`` is a point ``gradient_sm2`` takes.

    Finite, strictly positive, and each row's total, taken as
    ``as_probability_vector`` takes it, within ``SIMPLEX_SUM_TOL`` of 1.  A
    block of rows is asked in one pass; ``gradient_sm2`` of a row that fails
    says why.
    """
    return bool(np.isfinite(p).all() and (p > 0.0).all() and _sums_to_one(np.add.reduce(p, axis=-1)).all())


def _check_integer(value, message: str) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises ``message.format(value)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(message.format(value))
    return int(value)


def _tails(p: np.ndarray, columns: bool = False) -> np.ndarray:
    # Right-to-left accumulation: T_m = p_m exactly, T_1 = total mass.  Along
    # the last axis it is written backwards into a C-contiguous array, so a
    # vector and each row of a 2-D batch take the same ``np.log`` path.  A
    # column block adds whole days from the last one up: the same sums in the
    # same order, in one call per day instead of one short call per schedule.
    t = np.empty(p.shape)
    if columns:
        t[-1] = p[-1]
        for j in range(len(p) - 2, -1, -1):
            np.add(t[j + 1], p[j], out=t[j])
    else:
        np.add.accumulate(p[..., ::-1], axis=-1, out=t[..., ::-1])
    return t


def tail_masses(p) -> np.ndarray:
    """Tail masses ``T_j = p_j + ... + p_m``, accumulated right to left."""
    return _tails(as_probability_vector(p))


# Longest run NumPy's pairwise summation adds without splitting it.
_PAIRWISE_RUN = 128


def _tree_sum(n: int, leaf, block: int, start: int = 0):
    """NumPy's pairwise sum of ``n`` entries, walked down to runs of at most ``block``.

    A run of more than ``_PAIRWISE_RUN`` entries is added as two halves, the
    first a multiple of 8 entries long; shorter runs are never split.
    ``leaf(lo, hi)``, called on the runs left to right, sums entries
    ``lo..hi-1`` as NumPy adds a run it does not split.  This module owns
    that order for both of its callers: ``_scored``'s column blocks, whose
    leaf is ``_pairwise``, and the Monte Carlo sampler, whose leaves are
    ``np.add.reduce`` of up to 2^16 draws.
    """
    if n <= max(block, _PAIRWISE_RUN):
        return leaf(start, start + n)
    half = n // 2 - n // 2 % 8
    return _tree_sum(half, leaf, block, start) + _tree_sum(n - half, leaf, block, start + half)


def _pairwise(x: np.ndarray) -> np.ndarray:
    # NumPy's sum of an unsplit run, over the rows of ``x``: under 8 rows in
    # order; up to 128 in 8 interleaved partial sums, combined as
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order.
    n = len(x)
    if n < 8:
        total = x[0].copy()
        rest = x[1:]
    else:
        r = x[:8].copy()
        for i in range(8, n - n % 8, 8):
            r += x[i : i + 8]
        total = (r[0] + r[1]) + (r[2] + r[3])
        total += (r[4] + r[5]) + (r[6] + r[7])
        rest = x[n - n % 8 :]
    for row in rest:
        total += row
    return total


def _scored(p: np.ndarray, columns: bool = False):
    """Reduced score of each schedule, and the tails and logs that scored it.

    Returns ``(sm2, rough, t, log_p, log_t)``.  By default the schedules lie
    along the last axis: ``sm2`` is a scalar for a vector and one value per
    row for a 2-D batch.  With ``columns``, ``p`` is an ``(m, n)`` block of
    ``n`` schedules, one per column, and ``sm2`` has one value per column,
    added in the order NumPy's row sum adds a row's entries (from 0.0, then
    pairwise), so each has the bits of the same schedule scored as a row.
    A zero entry gives a NaN term, counted as 0; ``rough`` flags the NaN
    terms (``None`` when there are none).  Expects NumPy's divide and
    invalid warnings to be off.
    """
    # No simplex check here: the finite-difference oracle evaluates the same
    # formula just off the simplex.  Entries must still be nonnegative.
    t = _tails(p, columns)
    log_p = np.log(p)
    log_t = np.log(t)
    terms = log_p - log_t
    terms *= p
    if columns:
        # looked for entry by entry: the lattice blocks of the grid scan all
        # hold zeros
        rough = _zeroed_nan(terms)
        sm2 = 0.0 + _tree_sum(len(terms), lambda lo, hi: _pairwise(terms[lo:hi]), _PAIRWISE_RUN)
    else:
        # every term is at most 0 or NaN, never +inf, so a row's sum is NaN
        # exactly when one of its terms is: the rows are added again without
        # their NaN terms only then
        sm2 = np.add.reduce(terms, axis=-1)
        rough = None
        if np.isnan(sm2).any():
            rough = _zeroed_nan(terms)
            sm2 = np.add.reduce(terms, axis=-1)
    return sm2, rough, t, log_p, log_t


def _zeroed_nan(terms: np.ndarray):
    """Set the NaN ``terms`` to 0 in place; their mask, or ``None`` when there are none."""
    rough = np.isnan(terms)
    if not rough.any():
        return None
    np.copyto(terms, 0.0, where=rough)
    return rough


def _sm2(p: np.ndarray):
    """Reduced score along the last axis: a scalar for a vector, one per row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _scored(p)[0]


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
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or not _interior(v):
        as_probability_vector(v)
        # a schedule that passes there and fails ``_interior`` has a zero entry
        raise ValueError("gradient needs every entry strictly positive")
    t = _tails(v)
    return _gradient(v, t, np.log(v), np.log(t))


def _gradient(p: np.ndarray, t: np.ndarray, log_p: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """``log p + 1 - log T - cumsum(p / T)`` along the last axis, from the tails and logs."""
    g = log_p + 1.0
    g -= log_t
    g -= np.add.accumulate(p / t, axis=-1)
    return g


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
