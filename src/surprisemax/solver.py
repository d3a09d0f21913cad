"""Closed-form surprise-maximizing schedules by backward induction.

Spreading one unit of probability over days ``1..m`` to maximize expected
realized surprise decomposes day by day.  With mass ``r`` still unassigned
at day ``j``, putting ``x`` on day ``j`` contributes ``x log x - x log r``
to the reduced score and leaves the subproblem on days ``j+1..m`` with mass
``r - x``.  Writing ``V_j(r)`` for the best (lowest) reduced score still
attainable from day ``j``, the recursion is

    V_j(r) = opt over 0 <= x <= r of  x log x - x log r + V_{j+1}(r - x),
    V_m(r) = 0,

where the selected ``x`` is the unique interior stationary point, the one
that maximizes the negated form, expected surprise to go.  Everything has a
closed form driven by one scalar sequence:

    gamma_m = 0,    gamma_{j-1} = gamma_j + exp(-gamma_j).

The chosen allocation is ``x* = r * exp(-gamma_j)``, so ``exp(-gamma_j)``
is the hazard of day ``j``, the fraction of the remaining mass it takes.
The last day has hazard 1 and absorbs whatever is left.  The value function
telescopes to ``V_j(r) = -r * (gamma_{j-1} - 1)``, so a full schedule
achieves reduced score ``1 - gamma_0`` and expected surprise ``gamma_0 - 1``.

The recursion is evaluated in exactly the order written above, one fused
step per day, which makes every gamma value bit-reproducible.  Each step's
single ``math.exp`` call is both the hazard of day ``j`` and the increment
that gives ``gamma_{j-1}``; hazards are never recomputed.  ``gamma_j`` and
its hazard depend on the days left ``k = m - j`` alone, so one sequence
``G_k``, ``H_k = exp(-G_k)`` serves every horizon: it is kept once per
process, in descending ``k``, and horizon ``m`` reads its columns as
read-only suffix views.  It grows by continuing the same loop from its
largest ``G``, which gives the bits a fresh run gives, and keeps at most
``_RETAINED_DAYS`` days; longer horizons continue it without keeping the
extra days.  ``np.exp`` is not used: it differs from ``math.exp`` in the
last ulp on 45,163 of the 1,000,001 gamma values at ``m = 10**6``.  Gamma
and the schedule columns are float64 arrays.  A direct consequence worth
knowing: ``gamma_{m-1} == 1.0`` exactly, so the next to last day always has
hazard ``exp(-1)``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .objective import ObjectiveValue, _check_integer, _check_real, objective_values

__all__ = [
    "GammaSequence",
    "PolicyTable",
    "SolveResult",
    "gamma_sequence",
    "policy_single",
    "value_v",
    "bellman_rhs",
    "stationarity_residual",
    "telescope_residual",
    "rollout",
]


def _check_days(m) -> int:
    m = _check_integer(m, "number of days must be an integer, got {!r}")
    if m < 1:
        raise ValueError(f"number of days must be at least 1, got {m}")
    return m


def _frozen(values) -> np.ndarray:
    return _frozen_in_place(np.array(values, dtype=np.float64))


def _frozen_in_place(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _holding(cls, **columns):
    # An instance of a frozen array dataclass that holds read-only arrays
    # built here as they are: the public constructors freeze a copy instead.
    obj = object.__new__(cls)
    for name, arr in columns.items():
        object.__setattr__(obj, name, _frozen_in_place(arr))
    return obj


@dataclass(frozen=True, eq=False)
class GammaSequence:
    """Hazard exponents ``gamma_0 .. gamma_m`` for a fixed horizon.

    ``values[j]`` is ``gamma_j``; the array is read-only, strictly
    decreasing, with ``values[m] == 0`` and ``values[m-1] == 1`` exactly.
    The constructor freezes a copy of its input.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def m(self) -> int:
        return self.values.size - 1

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"GammaSequence(m={self.m}, gamma0={self[0]!r})"


# Days of the shared sequence kept for the life of the process: 16 B per
# day (one gamma, one hazard), 1 MB at the cap.
_RETAINED_DAYS = 2**16

# The shared sequence, in descending days left: for K stored days,
# ``gamma[i] = G_{K-i}`` (i = 0..K) and ``hazard[i] = H_{K-1-i}``
# (i = 0..K-1).  One tuple, read and rebound whole, so no reader sees one
# array grown and not the other; arrays once stored are never written.
_shared = (_frozen([0.0]), _frozen([]))


def _continued(sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``sequence`` continued to ``n`` days left, in new read-only arrays.

    The loop picks up at the largest stored ``G`` and runs the steps in
    their order (``h = exp(-g)``, then ``g = g + h``), so every new entry
    has the bits a run from ``G_0 = 0`` gives.
    """
    gamma, hazard = sequence
    steps = n - (gamma.size - 1)
    new_gamma = array("d", [0.0]) * steps
    new_hazard = array("d", [0.0]) * steps
    g = float(gamma[0])
    for i in reversed(range(steps)):
        new_hazard[i] = h = math.exp(-g)
        new_gamma[i] = g = g + h
    return (
        _frozen_in_place(np.concatenate((np.frombuffer(new_gamma), gamma))),
        _frozen_in_place(np.concatenate((np.frombuffer(new_hazard), hazard))),
    )


def _backward(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``gamma_0 .. gamma_m`` and the hazards ``exp(-gamma_j)`` of days ``1..m``.

    Both are read-only, C-contiguous suffix views of the shared sequence,
    which grows to ``m`` days, up to the cap.  A growth copies 16 B per
    stored day, far less than the rollout of the horizon that asks for it.
    """
    global _shared
    sequence = _shared
    stored = sequence[0].size - 1
    if stored < m and stored < _RETAINED_DAYS:
        _shared = sequence = _continued(sequence, min(m, _RETAINED_DAYS))
    if sequence[0].size - 1 < m:
        sequence = _continued(sequence, m)
    gamma, hazard = sequence
    return gamma[gamma.size - 1 - m :], hazard[hazard.size - m :]


def gamma_sequence(m) -> GammaSequence:
    """The sequence ``gamma_m = 0``, ``gamma_{j-1} = gamma_j + exp(-gamma_j)``."""
    return _holding(GammaSequence, values=_backward(_check_days(m))[0])


def _check_day_index(j, m: int, upper: int) -> int:
    j = _check_integer(j, "day index must be an integer, got {!r}")
    if not 1 <= j <= upper:
        raise ValueError(f"day index {j} out of range 1..{upper} for horizon {m}")
    return j


def _check_remaining(r) -> float:
    r = _check_real(r, "remaining mass")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"remaining mass {r!r} out of range [0, 1]")
    return r


def _check_step(j, r, gamma: GammaSequence) -> tuple[int, float]:
    """Day ``j`` in ``1..m-1`` and mass ``r`` in (0, 1] for one recursion step."""
    if gamma.m < 2:
        raise ValueError("one-step recursion needs a horizon of at least 2 days")
    j = _check_day_index(j, gamma.m, gamma.m - 1)
    r = _check_real(r, "remaining mass")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"remaining mass {r!r} out of range (0, 1]")
    return j, r


def policy_single(j, r, gamma: GammaSequence) -> float:
    """Mass the optimal schedule puts on day ``j`` given remaining mass ``r``.

    Equals ``r * exp(-gamma_j)``, hence exactly linear in ``r``.
    """
    j = _check_day_index(j, gamma.m, gamma.m)
    r = _check_remaining(r)
    return r * math.exp(-gamma[j])


def value_v(j, r, gamma: GammaSequence) -> float:
    """Best reduced score attainable from day ``j`` with remaining mass ``r``.

    The telescoped closed form ``-r * (gamma_{j-1} - 1)``; its negation is
    the expected surprise still obtainable.  Zero for ``j == m``.
    """
    j = _check_day_index(j, gamma.m, gamma.m)
    r = _check_remaining(r)
    return -r * (gamma[j - 1] - 1.0)


def bellman_rhs(j, r, x, gamma: GammaSequence) -> float:
    """One-step recursion value of allocating ``x`` at day ``j``.

    ``x log x - x log r + V_{j+1}(r - x)`` with the ``0 log 0 == 0``
    convention at ``x == 0``.  Needs ``1 <= j <= m-1``, ``r > 0``, and
    ``0 <= x <= r``.
    """
    j, r = _check_step(j, r, gamma)
    x = _check_real(x, "allocation")
    if not 0.0 <= x <= r:
        raise ValueError(f"allocation {x!r} out of range [0, {r!r}]")
    stage = 0.0 if x == 0.0 else x * (math.log(x) - math.log(r))
    return stage + value_v(j + 1, r - x, gamma)


def stationarity_residual(j, r, gamma: GammaSequence) -> float:
    """Derivative of the one-step recursion at its chosen allocation.

    The derivative in ``x`` of the stage term is ``log(x / r) + 1`` and the
    continuation contributes ``gamma_j - 1``, so the residual at the chosen
    ``x* = r * exp(-gamma_j)`` is ``log(x*/r) + gamma_j``.  Zero up to
    rounding; anything else would mean ``x*`` is not a critical point.
    """
    j, r = _check_step(j, r, gamma)
    gamma_j = gamma[j]
    return float(_stationarity(gamma_j, math.exp(-gamma_j), r))


def _stationarity(gamma_j, hazard_j, r) -> np.ndarray:
    # The residual log(x*/r) + gamma_j at x* = r * hazard_j, hazard_j =
    # exp(-gamma_j), without argument checks, for scalars or for arrays that
    # broadcast together.  The ratio is exact IEEE arithmetic either way,
    # and each log is one math.log call, as in a scalar loop.
    ratio = np.multiply(r, hazard_j) / r
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), np.float64, ratio.size)
    return logs.reshape(ratio.shape) + gamma_j


def telescope_residual(gamma: GammaSequence, k) -> float:
    """Gap in the identity ``sum_{i=k}^{m-1} exp(-gamma_i) == gamma_{k-1} - 1``.

    The sum on the left is the total hazard-weighted mass the policy spends
    strictly before the last day; summing the recursion steps makes it equal
    the right side exactly in real arithmetic.  Every sum is read off one
    right-to-left cumulative sum of the hazards.
    """
    k = _check_day_index(k, gamma.m, gamma.m)
    return float(_telescope_residuals(gamma, k)[0])


def _telescope_residuals(gamma: GammaSequence, k: int = 1) -> np.ndarray:
    # Residuals for starts k..m.  The sums accumulate right to left from
    # i = m-1, written backwards into all but the last slot, so each has the
    # same bits whatever k is; the sum for start m is empty.
    m = gamma.m
    sums = np.zeros(m - k + 1)
    np.cumsum(np.exp(-gamma.values[k:m])[::-1], out=sums[-2::-1])
    return sums - (gamma.values[k - 1 : m] - 1.0)


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Full schedule in day order, one read-only float64 array per column.

    ``gamma[i]``, ``hazard[i]``, ``remaining_before[i]`` and
    ``allocations[i]`` describe day ``i + 1``.
    """

    gamma: np.ndarray = field(repr=False)
    hazard: np.ndarray = field(repr=False)
    remaining_before: np.ndarray = field(repr=False)
    allocations: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("gamma", "hazard", "remaining_before", "allocations"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.allocations.size

    def __repr__(self) -> str:
        return f"PolicyTable(m={self.m})"


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Schedule, hazard exponents, and achieved scores for one horizon."""

    policy: PolicyTable
    gamma: GammaSequence
    objective: ObjectiveValue
    value_at_root: float

    @property
    def m(self) -> int:
        return self.policy.m

    @property
    def p(self) -> np.ndarray:
        return self.policy.allocations


def rollout(m) -> SolveResult:
    """Solve horizon ``m`` and roll the policy forward from mass 1.

    Day ``j`` takes ``remaining * exp(-gamma_j)``; the last day has hazard 1
    and takes everything left, so the allocations form a strictly positive
    probability vector.  ``value_at_root`` is the closed form ``1 - gamma_0``
    and matches the reduced score of the rolled-out schedule.
    """
    m = _check_days(m)
    gamma, hazard = _backward(m)
    # Sequential on purpose: each day's remaining mass is rounded from the last.
    remaining_before = np.fromiter(
        accumulate(memoryview(hazard), lambda r, h: r - r * h, initial=1.0), np.float64, m
    )
    table = _holding(
        PolicyTable,
        gamma=gamma[1:],
        hazard=hazard,
        remaining_before=remaining_before,
        allocations=remaining_before * hazard,
    )
    sequence = _holding(GammaSequence, values=gamma)
    return SolveResult(
        policy=table,
        gamma=sequence,
        objective=objective_values(table.allocations),
        value_at_root=1.0 - sequence[0],
    )
