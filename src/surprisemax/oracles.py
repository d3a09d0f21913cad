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

# Entries of one block of ascent starts (64 KiB per array of the block).
# Blocks this size ran faster than one start at a time at every m measured
# from 4 to 8000; one block of all nine starts was slower from m = 2000 on.
_BLOCK_ENTRIES = 8192


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
    closed: np.ndarray, point: np.ndarray, value: float, tolerance: float, converged: bool = True
) -> OracleReport:
    """Set what an oracle found against the closed-form schedule ``closed``."""
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


def _check_grid_points(m: int, resolution: int) -> None:
    """Refuse a resolution-``resolution`` grid over ``m`` days above the point cap."""
    count = math.comb(resolution + m - 1, m - 1)
    if count > GRID_POINT_CAP:
        raise ValueError(f"grid has {count} points, above the cap of {GRID_POINT_CAP}")


def grid_search(
    m, spec: GridSpec, tolerance: float | None = None, *, _closed_form_point=None
) -> OracleReport:
    """Scan every lattice point ``k/N`` of the simplex for the best score.

    Deterministic: points are visited in lexicographic order and ties keep
    the earliest point, so the result does not depend on batching.  The
    default agreement tolerance is two lattice steps, ``2 / N``.
    ``_closed_form_point`` is horizon ``m``'s rolled-out schedule, passed by
    a caller that already holds it; it is not public.
    """
    m = _check_days(m)
    n = spec.resolution
    _check_grid_points(m, n)

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
    closed = rollout(m).p if _closed_form_point is None else _closed_form_point
    return _report(closed, best_point, best_value, tol)


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
    """``-sm2`` of each row of ``q``, and the tails and logs that scored it.

    A row with a zero or NaN entry scores NaN this way; it is scored again
    by ``_sm2``, which gives such rows their masked value, and flagged in
    the second result (``None`` when no row is).  Every other row has the
    bits of ``_sm2``, which masks nothing there.  Expects NumPy's divide and
    invalid warnings to be off.
    """
    t = _tails(q)
    log_q = np.log(q)
    log_t = np.log(t)
    terms = log_q - log_t
    terms *= q
    values = -terms.sum(axis=1)
    rough = np.isnan(values)
    if not rough.any():
        return values, None, t, log_q, log_t
    values[rough] = -_sm2(q[rough])
    return values, rough, t, log_q, log_t


def _ascend(starts: np.ndarray, config: AscentConfig):
    """Run a multiplicative-weights ascent of expected surprise from each row.

    Update: ``p <- normalize(p * exp(-eta * g))`` with ``g`` the gradient of
    the reduced score, so the move is uphill for ``-sm2``.  The step halves
    while it would lower the objective; a step that changes no coordinate by
    ``convergence_tol`` or more ends the run.  Returns each row's endpoint,
    its ``-sm2`` and whether it converged.

    The live runs move as one ``(runs, m)`` array, one candidate per run per
    pass, each at its own iterate, step size and step count.  A run leaves
    the array when it converges, stalls (``eta < 1e-18`` and still lower) or
    takes ``max_iterations`` steps.  Every operation acts along rows, so each
    run has the bits it would have alone.  A new iterate's gradient is built
    from the tails and logs that scored it, in ``gradient_sm2``'s operation
    order.  ``gradient_sm2`` checks each start, and any iterate about to
    step from a zero or NaN entry, which it then names.
    """
    p = starts.copy()
    g = np.array([gradient_sm2(row) for row in starts])
    runs = np.arange(len(starts))
    eta = np.full(runs.size, config.step_size)
    steps = np.zeros_like(runs)
    points, values, converged = np.empty_like(p), np.empty(runs.size), np.zeros(runs.size, bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _scored(p)[0]
        while runs.size:
            q = p * np.exp(-eta[:, None] * g)
            q /= q.sum(axis=1, keepdims=True)
            candidate, rough, t, log_q, log_t = _scored(q)
            tiny = eta < 1e-18
            lower = candidate < score
            moved = np.where(tiny, ~lower, candidate >= score)
            steps += moved
            settled = moved & (np.abs(q - p).max(axis=1) < config.convergence_tol)
            done = settled | (tiny & lower) | (steps >= config.max_iterations)
            np.copyto(p, q, where=moved[:, None])
            np.copyto(score, candidate, where=moved)
            eta = np.where(moved, config.step_size, eta * 0.5)
            walk = (moved & ~done).nonzero()[0]
            if rough is not None:
                for i in walk[rough[walk]]:
                    gradient_sm2(q[i])
            # log_q + 1.0 - log_t - cumsum(q / t), in place to bound the
            # (runs, m) arrays alive at once; this pass's arrays then go
            log_q += 1.0
            log_q -= log_t
            np.divide(q, t, out=t)
            g[walk] = log_q[walk] - t[walk].cumsum(axis=1)
            del q, t, log_q, log_t
            if done.any():
                ended = runs[done]
                points[ended] = p[done]
                values[ended] = score[done]
                converged[ended] = settled[done]
                live = ~done
                p, g, score, eta, steps, runs = (
                    p[live], g[live], score[live], eta[live], steps[live], runs[live]
                )
    return points, values, converged


def _best_run(values: np.ndarray) -> int | None:
    """Index of the highest value, the earliest among ties; NaN never wins."""
    best, best_value = None, -math.inf
    for i, value in enumerate(values.tolist()):
        if value > best_value:
            best, best_value = i, value
    return best


def ascent_optimize(
    m, config: AscentConfig | None = None, tolerance: float = 1e-6, *, _closed_form_point=None
) -> OracleReport:
    """Maximize expected surprise by multiplicative weights, with restarts.

    Runs once from the uniform schedule and once from each of
    ``config.restarts`` random interior starts; restart ``i`` draws its start
    from a generator seeded with ``(seed + i) mod 2**64``.  The best endpoint
    by achieved objective wins, earliest run winning ties.  Non-convergence
    shows up as ``converged=False`` (and normally a failing gap), never as an
    exception.  The starts run as row blocks of at most ``_BLOCK_ENTRIES``
    entries; each start ends on the same bits in any block.
    ``_closed_form_point`` is as in :func:`grid_search`.
    """
    m = _check_days(m)
    if config is None:
        config = AscentConfig()

    starts = np.empty((config.restarts + 1, m))
    starts[0] = 1.0 / m
    for i in range(1, config.restarts + 1):
        starts[i] = _simplex_draw(SplitMix64((config.seed + i) & _MASK64), m)

    blocks = -(-len(starts) // max(1, _BLOCK_ENTRIES // m))
    ends = [_ascend(block, config) for block in np.array_split(starts, blocks)]
    points, values, converged = (np.concatenate(parts) for parts in zip(*ends))
    best = _best_run(values)
    assert best is not None
    closed = rollout(m).p if _closed_form_point is None else _closed_form_point
    point = points[best].copy()
    return _report(closed, point, -values[best], float(tolerance), bool(converged[best]))


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
