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
    _gradient,
    _interior,
    _scored,
    _sm2,
    as_probability_vector,
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

# Entries of one block of lattice points or of ascent starts: 64 KiB per
# array of the block, which keeps it in the core's near caches and each of
# its temporaries below glibc's mmap threshold.  Ascent blocks this size ran
# faster than one start at a time at every m measured from 4 to 8000; one
# block of all nine starts was slower from m = 2000 on.
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


def _check_tolerance(value, name: str = "tolerance") -> float:
    """``value`` as a ``float``; anything but a positive, finite number raises."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
    """Lattice points ``(k_1 .. k_parts)`` summing to ``total``, in column blocks.

    Each block is a ``(parts, n)`` float64 array holding ``n`` points, one
    per column, with at most ``_BLOCK_ENTRIES`` entries (or one point).  The
    points arrive in lexicographic order: all points of one block precede
    all points of the next.  A block spans as many prefixes
    ``(k_1 .. k_{parts-2})`` as fit, the last one possibly cut short and
    continued in the next block; under one prefix ``k_{parts-1}`` ascends.
    """
    if parts == 1:
        yield np.array([[float(total)]])
        return

    def block(heads: np.ndarray, counts: list) -> np.ndarray:
        # a head is (prefix..., offset, left): k_{parts-1} = column - offset
        columns = np.repeat(heads[: len(counts)].T, counts, axis=1)
        np.subtract(np.arange(columns.shape[1], dtype=np.float64), columns[-2], out=columns[-2])
        columns[-1] -= columns[-2]
        return columns

    width = max(1, _BLOCK_ENTRIES // parts)
    heads = np.empty((width, parts))
    counts: list = []
    used = 0
    # the prefixes, as an odometer in lexicographic order, kept in place in
    # the first parts - 2 entries of ``head``: ``left`` is what the prefix
    # leaves of ``total``, ``last`` the place of its last nonzero, and
    # ``run`` what ``left`` was when the last place was 0
    head = np.zeros(parts)
    places = parts - 2
    left, last = total, -1
    run = left
    while True:
        head[-1] = left
        start = 0
        while start <= left:
            count = min(left + 1 - start, width - used)
            head[-2] = used - start
            heads[len(counts)] = head
            counts.append(count)
            start += count
            used += count
            if used == width:
                yield block(heads, counts)
                counts, used = [], 0
        if left and places:
            # one more on the last place
            left -= 1
            head[places - 1] = run - left
            last = places - 1
        elif last > 0:
            # carry: the last nonzero place goes to 0, the one before it up by 1
            left = int(head[last]) - 1
            head[last] = 0.0
            last -= 1
            head[last] += 1.0
            # every place after ``last`` is 0 now, the last place among them
            run = left
        else:
            break
    if counts:
        yield block(heads, counts)


def _check_grid_points(m: int, resolution: int) -> None:
    """Refuse a resolution-``resolution`` grid over ``m`` days above the point cap."""
    count = math.comb(resolution + m - 1, m - 1)
    if count > GRID_POINT_CAP:
        raise ValueError(f"grid has {count} points, above the cap of {GRID_POINT_CAP}")


def grid_search(m, spec: GridSpec, tolerance: float | None = None) -> OracleReport:
    """Scan every lattice point ``k/N`` of the simplex for the best score.

    Deterministic: points are visited in lexicographic order and ties keep
    the earliest point, so the result does not depend on blocking; each
    point scores the bits ``eval_sm2_batch`` gives it as a row.  The
    default agreement tolerance is two lattice steps, ``2 / N``.
    """
    m = _check_days(m)
    n = spec.resolution
    tol = 2.0 / n if tolerance is None else _check_tolerance(tolerance)
    _check_grid_points(m, n)

    minimize = spec.sense is SearchSense.MINIMIZE_SM2
    best_value: float | None = None
    best_point: np.ndarray | None = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in _compositions(n, m):
            block /= n
            values = _scored(block, columns=True)[0]
            i = int(np.argmin(values) if minimize else np.argmax(values))
            v = float(values[i])
            if best_value is None or (v < best_value if minimize else v > best_value):
                best_value = v
                best_point = block[:, i].copy()

    assert best_point is not None and best_value is not None
    return _report(rollout(m).p, best_point, best_value, tol)


def _simplex_draw(rng: SplitMix64, m: int) -> np.ndarray:
    # Normalized unit-exponential draws give a flat distribution on the
    # simplex.  -log1p(-u) keeps u == 0 harmless; an all-zero draw cannot
    # happen short of 2**-53 flukes per coordinate, but fall back anyway.
    # math.log1p per draw: np.log1p differs in the last ulp on 147,387 of
    # 2,000,000 draws (seed 0, NumPy 2.4.6), which would move every start.
    draws = -np.fromiter(map(math.log1p, (-rng.doubles(m)).tolist()), np.float64, m)
    total = draws.sum()
    if total <= 0.0:
        return np.full(m, 1.0 / m)
    return draws / total


def _gathered(chosen: list, count: int):
    """Index of the rows ``chosen`` out of ``count``.

    A slice when that is all of them, so the arrays are read in place rather
    than gathered into copies.
    """
    return slice(None) if len(chosen) == count else np.array(chosen)


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
    run has the bits it would have alone.  Each run's step size, step count
    and score are Python floats, and its move is decided in a short loop;
    the settle test, the copy and the next gradient then act on the runs that
    moved only, so a refused step costs just its candidate's score.  A new
    iterate's gradient is ``gradient_sm2``'s formula, ``_gradient``, on the
    tails and logs that scored it.  The starts are checked once, as a block,
    against what ``gradient_sm2`` asks of a point; if one fails,
    ``gradient_sm2`` of each start in turn names the first that does.
    ``gradient_sm2`` also names any iterate about to step from a zero or NaN
    entry.
    """
    if not _interior(starts):
        for row in starts:
            gradient_sm2(row)
    count = len(starts)
    runs = list(range(count))
    eta = [config.step_size] * count
    steps = [0] * count
    points, values, converged = np.empty_like(starts), np.empty(count), np.zeros(count, bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = starts.copy()
        sm2, _, t, log_p, log_t = _scored(p)
        g = _gradient(p, t, log_p, log_t)
        score = (-sm2).tolist()
        while runs:
            # p * exp(-eta g), built in place; IEEE products commute
            q = np.multiply(-np.array(eta)[:, None], g)
            np.exp(q, out=q)
            q *= p
            q /= np.add.reduce(q, axis=1, keepdims=True)
            sm2, rough, t, log_q, log_t = _scored(q)
            # a step is taken when it does not lower the score; no score is
            # NaN, since ``_scored`` counts NaN terms as 0
            candidate = (-sm2).tolist()
            moved = [i for i, c in enumerate(candidate) if c >= score[i]]
            settled = {}
            if moved:
                rows = _gathered(moved, len(runs))
                taken = q[rows]
                gaps = np.maximum.reduce(np.abs(taken - p[rows]), axis=1)
                settled = dict(zip(moved, (gaps < config.convergence_tol).tolist()))
                if len(moved) == len(runs):
                    p = q
                else:
                    p[rows] = taken
            walk, ends = [], {}
            for i in range(len(runs)):
                if i in settled:
                    steps[i] += 1
                    score[i] = candidate[i]
                    eta[i] = config.step_size
                    if settled[i] or steps[i] >= config.max_iterations:
                        ends[i] = settled[i]
                    else:
                        walk.append(i)
                elif eta[i] < 1e-18:
                    ends[i] = False
                else:
                    eta[i] *= 0.5
            if walk:
                if rough is not None:
                    for i in walk:
                        if rough[i].any():
                            gradient_sm2(q[i])
                rows = _gathered(walk, len(runs))
                walked = _gradient(q[rows], t[rows], log_q[rows], log_t[rows])
                if len(walk) == len(runs):
                    g = walked
                else:
                    g[rows] = walked
            if ends:
                for i, ok in ends.items():
                    points[runs[i]] = p[i]
                    values[runs[i]] = score[i]
                    converged[runs[i]] = ok
                live = [i for i in range(len(runs)) if i not in ends]
                p, g = p[live], g[live]
                runs, eta, steps, score = [[xs[i] for i in live] for xs in (runs, eta, steps, score)]
    return points, values, converged


def _best_run(values: np.ndarray) -> int | None:
    """Index of the highest value, the earliest among ties; NaN never wins."""
    best, best_value = None, -math.inf
    for i, value in enumerate(values.tolist()):
        if value > best_value:
            best, best_value = i, value
    return best


def ascent_optimize(m, config: AscentConfig | None = None, tolerance: float = 1e-6) -> OracleReport:
    """Maximize expected surprise by multiplicative weights, with restarts.

    Runs once from the uniform schedule and once from each of
    ``config.restarts`` random interior starts; restart ``i`` draws its start
    from a generator seeded with ``(seed + i) mod 2**64``.  The best endpoint
    by achieved objective wins, earliest run winning ties.  Non-convergence
    shows up as ``converged=False`` (and normally a failing gap), never as an
    exception.  The starts run as row blocks of at most ``_BLOCK_ENTRIES``
    entries; each start ends on the same bits in any block.
    """
    m = _check_days(m)
    tolerance = _check_tolerance(tolerance)
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
    point = points[best].copy()
    return _report(rollout(m).p, point, -values[best], tolerance, bool(converged[best]))


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
