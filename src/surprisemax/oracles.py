"""Independent checks of the closed-form schedule.

Three routes that share no logic with the backward induction in
:mod:`.solver`:

* exhaustive search over the lattice of ``m``-part compositions of ``N``,
  scanning every point of a resolution-``N`` simplex grid;
* multiplicative-weights ascent on expected surprise, restarted from random
  interior points;
* central finite differences as a gradient check.

Each optimizer returns an :class:`OracleReport` comparing what it found
against the rolled-out closed form.  Disagreement is data, not an error:
reports carry an ``agrees`` flag instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .objective import (
    _check_integer,
    _sm2,
    _tails,
    as_probability_vector,
    eval_sm2_batch,
    gradient_sm2,
)
from .rng import _MASK64, SplitMix64, _check_seed
from .solver import _check_days, rollout

__all__ = [
    "GRID_POINT_CAP",
    "SearchSense",
    "GridSpec",
    "AscentConfig",
    "OracleReport",
    "grid_search",
    "ascent_optimize",
    "finite_diff_gradient",
]

# Refuse grids with more lattice points than this.
GRID_POINT_CAP = 100_000_000

# Rows evaluated per vectorized batch during the grid scan.
_BATCH_ROWS = 1 << 18


class SearchSense(Enum):
    """Which extreme of the reduced score the grid scan hunts for."""

    MINIMIZE_SM2 = "minimize-sm2"
    MAXIMIZE_SM2 = "maximize-sm2"


@dataclass(frozen=True)
class GridSpec:
    """Resolution and sense of an exhaustive simplex scan."""

    resolution: int
    sense: SearchSense = SearchSense.MINIMIZE_SM2

    def __post_init__(self) -> None:
        if _check_integer(self.resolution, "resolution must be an integer, got {!r}") < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")
        if not isinstance(self.sense, SearchSense):
            raise ValueError(f"sense must be a SearchSense, got {self.sense!r}")


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for the multiplicative-weights ascent."""

    max_iterations: int = 100_000
    step_size: float = 0.5
    restarts: int = 8
    convergence_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if _check_integer(self.max_iterations, "max_iterations must be an integer, got {!r}") < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if _check_integer(self.restarts, "restarts must be an integer, got {!r}") < 0:
            raise ValueError(f"restarts must be nonnegative, got {self.restarts}")
        if not self.convergence_tol > 0.0:
            raise ValueError(f"convergence_tol must be positive, got {self.convergence_tol}")
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """What an oracle found, next to the closed form it was checking.

    ``best_value`` is the reduced score at ``best_point``.  ``agrees`` holds
    exactly when ``linf_gap <= tolerance``; ``converged`` records whether the
    search finished on its own terms (a grid scan always does).
    """

    best_point: np.ndarray
    best_value: float
    closed_form_point: np.ndarray
    linf_gap: float
    tolerance: float
    agrees: bool
    converged: bool = True


def _report(
    m: int, point: np.ndarray, value: float, tolerance: float, converged: bool = True
) -> OracleReport:
    """Set what an oracle found against the closed-form schedule of horizon ``m``."""
    closed = rollout(m).p
    linf_gap = float(np.max(np.abs(point - closed)))
    return OracleReport(
        best_point=point,
        best_value=value,
        closed_form_point=closed,
        linf_gap=linf_gap,
        tolerance=tolerance,
        agrees=linf_gap <= tolerance,
        converged=converged,
    )


def _compositions(total: int, parts: int) -> Iterator[np.ndarray]:
    """Lattice points ``(k_1 .. k_parts)`` summing to ``total``, in blocks.

    Blocks hold at most ``_BATCH_ROWS`` rows and arrive in lexicographic row
    order: all rows of one block precede all rows of the next, and rows
    inside a block ascend in ``k_{parts-1}``.
    """
    if parts == 1:
        yield np.array([[float(total)]])
        return

    def prefixes(budget: int, length: int):
        if length == 0:
            yield (), budget
            return
        for first in range(budget + 1):
            for rest, left in prefixes(budget - first, length - 1):
                yield (first,) + rest, left

    for prefix, left in prefixes(total, parts - 2):
        for start in range(0, left + 1, _BATCH_ROWS):
            tail = np.arange(start, min(start + _BATCH_ROWS, left + 1), dtype=np.float64)
            block = np.empty((tail.size, parts))
            block[:, : parts - 2] = prefix
            block[:, parts - 2] = tail
            block[:, parts - 1] = left - tail
            yield block


def grid_search(m, spec: GridSpec, tolerance: float | None = None) -> OracleReport:
    """Scan every lattice point ``k/N`` of the simplex for the best score.

    Deterministic: points are visited in lexicographic order and ties keep
    the earliest point, so the result does not depend on batching.  The
    default agreement tolerance is two lattice steps, ``2 / N``.
    """
    m = _check_days(m)
    n = spec.resolution
    count = math.comb(n + m - 1, m - 1)
    if count > GRID_POINT_CAP:
        raise ValueError(f"grid has {count} points, above the cap of {GRID_POINT_CAP}")

    minimize = spec.sense is SearchSense.MINIMIZE_SM2
    best_value: float | None = None
    best_point: np.ndarray | None = None
    for block in _compositions(n, m):
        rows = block / n
        values = eval_sm2_batch(rows)
        i = int(np.argmin(values) if minimize else np.argmax(values))
        v = float(values[i])
        if best_value is None or (v < best_value if minimize else v > best_value):
            best_value = v
            best_point = rows[i].copy()

    assert best_point is not None and best_value is not None
    tol = 2.0 / n if tolerance is None else float(tolerance)
    return _report(m, best_point, best_value, tol)


def _simplex_draw(rng: SplitMix64, m: int) -> np.ndarray:
    # Normalized unit-exponential draws give a flat distribution on the
    # simplex.  -log1p(-u) keeps u == 0 harmless; an all-zero draw cannot
    # happen short of 2**-53 flukes per coordinate, but fall back anyway.
    draws = np.array([-math.log1p(-u) for u in rng.doubles(m).tolist()])
    total = draws.sum()
    if total <= 0.0:
        return np.full(m, 1.0 / m)
    return draws / total


def _scored(q: np.ndarray):
    """``-sm2(q)``, and the tails and logs that scored it if every entry is > 0.

    Over a strictly positive ``q`` this is ``_sm2`` without its masking pass,
    so the value has the same bits; any other ``q`` goes through ``_sm2``.
    """
    if q.min() > 0.0:
        t = _tails(q)
        log_q = np.log(q)
        log_t = np.log(t)
        return -float((q * (log_q - log_t)).sum()), (t, log_q, log_t)
    return -float(_sm2(q)), None


def _ascend(p0: np.ndarray, config: AscentConfig) -> tuple[np.ndarray, float, bool]:
    """Run one multiplicative-weights ascent of expected surprise.

    Update: ``p <- normalize(p * exp(-eta * g))`` with ``g`` the gradient of
    the reduced score, so the move is uphill for ``-sm2``.  The step halves
    while it would lower the objective; a step that changes no coordinate by
    ``convergence_tol`` or more ends the run.  The gradient of each iterate
    is built from the tails and logs that scored it, in the operation order
    of ``gradient_sm2``, so it has the same bits.  ``gradient_sm2`` checks
    the start, and any iterate that ``_scored`` kept no logs for: one with a
    zero or NaN entry, which it then names.  Every other iterate is strictly
    positive and normalized by construction.
    """
    gradient_sm2(p0)
    p = p0
    value, logs = _scored(p)
    for _ in range(config.max_iterations):
        if logs is None:
            gradient_sm2(p)
        t, log_p, log_t = logs
        g = log_p + 1.0 - log_t - np.cumsum(p / t)
        eta = config.step_size
        while True:
            weights = p * np.exp(-eta * g)
            q = weights / weights.sum()
            candidate, q_logs = _scored(q)
            if candidate >= value or eta < 1e-18:
                break
            eta *= 0.5
        if candidate < value:
            return p, value, False
        delta = float(np.max(np.abs(q - p)))
        p, value, logs = q, candidate, q_logs
        if delta < config.convergence_tol:
            return p, value, True
    return p, value, False


def ascent_optimize(m, config: AscentConfig | None = None, tolerance: float = 1e-6) -> OracleReport:
    """Maximize expected surprise by multiplicative weights, with restarts.

    Runs once from the uniform schedule and once from each of
    ``config.restarts`` random interior starts; restart ``i`` draws its start
    from a generator seeded with ``(seed + i) mod 2**64``.  The best endpoint
    by achieved objective wins, earliest run winning ties.  Non-convergence
    shows up as ``converged=False`` (and normally a failing gap), never as an
    exception.
    """
    m = _check_days(m)
    if config is None:
        config = AscentConfig()

    starts = [np.full(m, 1.0 / m)]
    for i in range(1, config.restarts + 1):
        rng = SplitMix64((config.seed + i) & _MASK64)
        starts.append(_simplex_draw(rng, m))

    best_point: np.ndarray | None = None
    best_value = -math.inf
    best_converged = False
    for start in starts:
        point, value, converged = _ascend(start, config)
        if value > best_value:
            best_point, best_value, best_converged = point, value, converged

    assert best_point is not None
    return _report(m, best_point, -best_value, float(tolerance), best_converged)


def finite_diff_gradient(p, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the reduced score.

    ``(f(p + h e_j) - f(p - h e_j)) / (2 h)`` with the perturbed vectors
    evaluated as they are, off the simplex.  Every ``p_j + h`` and
    ``p_j - h`` must stay inside (0, 1).
    """
    v = as_probability_vector(p)
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"step {h!r} must be positive")
    if np.any(v - h <= 0.0) or np.any(v + h >= 1.0):
        raise ValueError(f"step {h!r} pushes some entry outside (0, 1)")
    grad = np.empty(v.size)
    for j in range(v.size):
        upper = v.copy()
        lower = v.copy()
        upper[j] += h
        lower[j] -= h
        grad[j] = (_sm2(upper) - _sm2(lower)) / (2.0 * h)
    return grad
