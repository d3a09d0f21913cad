"""Closed-form solver: hazard recursion, policy, value function, rollout.

The frozen digits are the recursion and the rollout run at 60 decimal
digits and rounded to binary64, which ``TestFrozenConstants`` checks; the
structural identities (exact zeros, exact ones, telescoping) need no
reference values at all.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from surprisemax import (
    bellman_rhs,
    eval_sm2,
    gamma_sequence,
    gradient_sm2,
    policy_single,
    rollout,
    stationarity_residual,
    telescope_residual,
    value_v,
)
from surprisemax import solver as solver_mod

EXP_NEG1 = math.exp(-1.0)

GAMMA0 = {
    1: 1.0,
    2: 1.3678794411714423,
    3: 1.6225258212150249,
    4: 1.819925294309278,
    10: 2.529006852408298,
}

ROLLOUT2 = (0.36787944117144233, 0.6321205588285577)
ROLLOUT3 = (0.2546463800435825, 0.2742002731846785, 0.47115334677173903)


def decimal_rollout(m):
    """``gamma_0`` and the schedule of horizon ``m``, at 60 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        g = [Decimal(0)] * (m + 1)
        for j in range(m, 0, -1):
            g[j - 1] = g[j] + (-g[j]).exp()
        p, remaining = [], Decimal(1)
        for j in range(1, m):
            p.append(remaining * (-g[j]).exp())
            remaining -= p[-1]
        return g[0], p + [remaining]


class TestFrozenConstants:
    """Every frozen constant is its 60-digit value rounded to binary64."""

    @pytest.mark.parametrize("m", sorted(GAMMA0))
    def test_gamma0(self, m):
        assert float(decimal_rollout(m)[0]) == GAMMA0[m]

    @pytest.mark.parametrize("m, frozen", [(2, ROLLOUT2), (3, ROLLOUT3)])
    def test_rollout(self, m, frozen):
        assert tuple(map(float, decimal_rollout(m)[1])) == frozen


class TestGammaSequence:
    def test_one_day(self):
        g = gamma_sequence(1)
        assert g[0] == 1.0
        assert g[1] == 0.0

    def test_two_days(self):
        g = gamma_sequence(2)
        assert g[2] == 0.0
        assert g[1] == 1.0
        assert g[0] == 1.0 + math.exp(-1.0)

    @pytest.mark.parametrize("m", sorted(GAMMA0))
    def test_frozen_root_values(self, m):
        assert_allclose(gamma_sequence(m)[0], GAMMA0[m], rtol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 100, 1000])
    def test_boundary_values_exact(self, m):
        g = gamma_sequence(m)
        assert g[m] == 0.0
        assert g[m - 1] == 1.0

    def test_strictly_decreasing(self):
        g = gamma_sequence(200)
        assert np.all(np.diff(g.values) < 0.0)

    def test_recursion_replays_exactly(self):
        # each step is one addition of one exponential, nothing re-associated
        g = gamma_sequence(50)
        for j in range(50, 0, -1):
            assert g[j - 1] == g[j] + math.exp(-g[j])

    def test_deterministic(self):
        assert np.array_equal(gamma_sequence(64).values, gamma_sequence(64).values)

    def test_freezes_a_copy(self):
        # the caller's array stays writable, and writing to it leaves the
        # sequence as it was built
        v = np.array([2.0, 1.0, 0.0])
        g = solver_mod.GammaSequence(v)
        v[0] = 5.0
        assert g.values.tolist() == [2.0, 1.0, 0.0]
        assert not g.values.flags.writeable

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 4999])
    def test_shift_invariant(self, m):
        # gamma_j depends only on m - j, so a shorter horizon is a suffix
        horizon = 5000
        suffix = gamma_sequence(horizon).values[horizon - m :]
        assert gamma_sequence(m).values.tobytes() == suffix.tobytes()

    def test_read_only(self):
        g = gamma_sequence(5)
        with pytest.raises(ValueError):
            g.values[0] = 0.0

    @pytest.mark.parametrize("m", [0, -2, 1.5, "3", True])
    def test_bad_horizon(self, m):
        with pytest.raises(ValueError):
            gamma_sequence(m)


class TestPolicySingle:
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0])
    def test_last_day_takes_everything(self, r):
        g = gamma_sequence(4)
        assert policy_single(4, r, g) == r

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_next_to_last_day(self, r):
        g = gamma_sequence(6)
        assert abs(policy_single(5, r, g) - r * EXP_NEG1) <= 1e-16

    def test_first_day_three_horizon(self):
        g = gamma_sequence(3)
        assert_allclose(policy_single(1, 1.0, g), ROLLOUT3[0], rtol=1e-15)

    def test_linear_in_mass_for_power_of_two_scales(self):
        g = gamma_sequence(7)
        for j in (1, 3, 7):
            for scale in (0.5, 0.25, 0.125):
                assert policy_single(j, scale * 1.0, g) == scale * policy_single(j, 1.0, g)

    def test_linear_in_mass_generally(self):
        g = gamma_sequence(5)
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = float(rng.uniform(0.01, 1.0))
            lam = float(rng.uniform(0.01, 1.0))
            assert_allclose(
                policy_single(2, lam * r, g),
                lam * policy_single(2, r, g),
                rtol=1e-15,
            )

    def test_range_errors(self):
        g = gamma_sequence(3)
        for j in (0, 4, -1):
            with pytest.raises(ValueError, match="out of range"):
                policy_single(j, 0.5, g)
        for r in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match="out of range"):
                policy_single(1, r, g)


class TestValueFunction:
    def test_zero_at_horizon_end(self):
        g = gamma_sequence(5)
        for r in (0.0, 0.3, 1.0):
            assert value_v(5, r, g) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_next_to_last_day(self, r):
        g = gamma_sequence(9)
        assert abs(value_v(8, r, g) - (-r * EXP_NEG1)) <= 1e-15

    def test_root_value_matches_rollout(self):
        for m in (1, 2, 3, 10):
            g = gamma_sequence(m)
            assert value_v(1, 1.0, g) == rollout(m).value_at_root

    def test_matches_direct_hazard_sum(self):
        # the telescoped form against a straight sum of the hazards
        rng = np.random.default_rng(32)
        g = gamma_sequence(12)
        for _ in range(40):
            j = int(rng.integers(1, 13))
            r = float(rng.uniform(0.0, 1.0))
            direct = -r * sum(math.exp(-g[i]) for i in range(j, 12))
            assert abs(value_v(j, r, g) - direct) <= 1e-12

    def test_linear_in_mass_for_power_of_two_scales(self):
        g = gamma_sequence(6)
        for scale in (0.5, 0.25):
            assert value_v(2, scale, g) == scale * value_v(2, 1.0, g)

    def test_range_errors(self):
        g = gamma_sequence(3)
        with pytest.raises(ValueError, match="out of range"):
            value_v(0, 0.5, g)
        with pytest.raises(ValueError, match="out of range"):
            value_v(1, -0.5, g)


class TestBellman:
    def test_nothing_allocated_defers_everything(self):
        g = gamma_sequence(4)
        for j in (1, 2, 3):
            for r in (0.2, 1.0):
                assert bellman_rhs(j, r, 0.0, g) == value_v(j + 1, r, g)

    def test_everything_allocated_scores_zero(self):
        g = gamma_sequence(4)
        for j in (1, 3):
            for r in (0.2, 1.0):
                assert bellman_rhs(j, r, r, g) == 0.0

    def test_next_to_last_day_at_optimum(self):
        g = gamma_sequence(2)
        for r in (0.25, 1.0):
            x = r * EXP_NEG1
            assert abs(bellman_rhs(1, r, x, g) - (-r * EXP_NEG1)) <= 1e-15

    def test_chosen_point_beats_grid(self):
        g = gamma_sequence(3)
        r = 1.0
        xs = np.linspace(0.0, r, 2001)
        values = [-bellman_rhs(1, r, float(x), g) for x in xs]
        best = int(np.argmax(values))
        x_star = policy_single(1, r, g)
        assert abs(float(xs[best]) - x_star) <= r / 2000.0
        assert abs(max(values) - (-value_v(1, r, g))) <= 1e-6

    def test_domain_errors(self):
        g = gamma_sequence(3)
        with pytest.raises(ValueError, match="out of range"):
            bellman_rhs(3, 0.5, 0.1, g)  # j must stay below the horizon
        with pytest.raises(ValueError, match="out of range"):
            bellman_rhs(1, 0.5, 0.6, g)
        with pytest.raises(ValueError, match="out of range"):
            bellman_rhs(1, 0.5, -0.1, g)
        with pytest.raises(ValueError, match="out of range"):
            bellman_rhs(1, 0.0, 0.0, g)  # no mass left, nothing to split
        with pytest.raises(ValueError, match="at least 2"):
            bellman_rhs(1, 0.5, 0.1, gamma_sequence(1))


class TestRealArguments:
    """A remaining mass or an allocation is a real number: not a bool, a string or None."""

    CALLS = {
        "policy_single r": (lambda v, g: policy_single(1, v, g), "remaining mass"),
        "value_v r": (lambda v, g: value_v(1, v, g), "remaining mass"),
        "bellman_rhs r": (lambda v, g: bellman_rhs(1, v, 0.0, g), "remaining mass"),
        "bellman_rhs x": (lambda v, g: bellman_rhs(1, 1.0, v, g), "allocation"),
        "stationarity_residual r": (lambda v, g: stationarity_residual(1, v, g), "remaining mass"),
    }

    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_refused(self, call, value):
        run, name = self.CALLS[call]
        with pytest.raises(ValueError) as excinfo:
            run(value, gamma_sequence(3))
        assert str(excinfo.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("call", list(CALLS))
    def test_ints_and_numpy_floats_read_as_floats(self, call):
        run, _ = self.CALLS[call]
        g = gamma_sequence(3)
        assert run(1, g) == run(np.float64(1.0), g) == run(1.0, g)


class TestStationarity:
    def test_zero_at_next_to_last_day(self):
        g = gamma_sequence(2)
        for r in (0.1, 0.5, 1.0):
            assert abs(stationarity_residual(1, r, g)) <= 1e-15

    def test_small_everywhere(self):
        for m in (2, 3, 6, 12):
            g = gamma_sequence(m)
            for j in range(1, m):
                for r in (0.1, 0.5, 0.7, 1.0):
                    assert abs(stationarity_residual(j, r, g)) <= 1e-12

    def test_perturbed_point_is_not_stationary(self):
        # moving the allocation by a factor e shifts the derivative by 1
        g = gamma_sequence(3)
        r = 0.7
        x = policy_single(1, r, g) * math.e
        assert abs(math.log(x / r) + g[1] - 1.0) <= 1e-14

    def test_range_errors(self):
        g = gamma_sequence(3)
        with pytest.raises(ValueError, match="out of range"):
            stationarity_residual(3, 0.5, g)
        with pytest.raises(ValueError, match="out of range"):
            stationarity_residual(1, 0.0, g)


class TestTelescope:
    def test_two_days(self):
        g = gamma_sequence(2)
        assert abs(telescope_residual(g, 1)) <= 1e-15

    def test_at_horizon_end_trivial(self):
        for m in (1, 2, 7):
            assert telescope_residual(gamma_sequence(m), m) == 0.0

    def test_mid_horizon(self):
        assert abs(telescope_residual(gamma_sequence(50), 10)) <= 5e-14

    def test_sweep(self):
        for m in list(range(1, 61)) + [500]:
            g = gamma_sequence(m)
            for k in range(1, m + 1):
                assert abs(telescope_residual(g, k)) <= 1e-12 * m

    def test_bad_start_index(self):
        with pytest.raises(ValueError, match="out of range"):
            telescope_residual(gamma_sequence(3), 0)

    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_all_starts_match_each_start(self, m):
        # the sums run right to left from the last hazard, so a residual has
        # the same bits whether it is computed alone or with all the others
        g = gamma_sequence(m)
        residuals = solver_mod._telescope_residuals(g)
        assert residuals.tolist() == [telescope_residual(g, k) for k in range(1, m + 1)]

    def test_linear_at_large_horizon(self):
        # every start from one cumulative sum: O(m), so m = 1e5 is cheap
        m = 100_000
        g = gamma_sequence(m)
        residuals = solver_mod._telescope_residuals(g)
        assert residuals.shape == (m,)
        assert float(np.max(np.abs(residuals))) <= 1e-12 * m
        for k in (1, 2, m // 2, m - 1, m):
            assert residuals[k - 1] == telescope_residual(g, k)


class TestRollout:
    def test_one_day(self):
        res = rollout(1)
        assert list(res.p) == [1.0]
        assert res.value_at_root == 0.0
        assert res.policy.hazard.tolist() == [1.0]

    def test_two_days_frozen(self):
        assert_allclose(rollout(2).p, ROLLOUT2, rtol=1e-15)

    def test_three_days_frozen(self):
        res = rollout(3)
        assert_allclose(res.p, ROLLOUT3, rtol=1e-15)
        assert_allclose(res.value_at_root, 1.0 - GAMMA0[3], rtol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50, 100])
    def test_schedule_invariants(self, m):
        res = rollout(m)
        p = res.p
        assert np.all(p > 0.0)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
        policy = res.policy
        hazard, remaining, allocations = policy.hazard, policy.remaining_before, policy.allocations
        assert hazard[-1] == 1.0
        assert np.all(allocations == remaining * hazard)
        assert np.all(remaining[1:] == remaining[:-1] - allocations[:-1])
        assert remaining[-1] - allocations[-1] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 60, 100])
    def test_score_matches_closed_form(self, m):
        res = rollout(m)
        assert res.value_at_root == 1.0 - res.gamma[0]
        assert abs(res.objective.sm2 - res.value_at_root) <= 1e-10
        assert abs(eval_sm2(res.p) - res.objective.sm2) == 0.0

    def test_objective_orientation(self):
        res = rollout(4)
        assert res.objective.expected_surprise == -res.objective.sm2
        assert res.objective.expected_surprise > 0.0

    def test_deterministic(self):
        a = rollout(20)
        b = rollout(20)
        assert np.array_equal(a.p, b.p)
        assert a.value_at_root == b.value_at_root

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="at least 1"):
            rollout(0)

    def test_public_constructors_freeze_a_copy(self):
        # PolicyTable and GammaSequence built by hand from writable arrays:
        # the caller's arrays stay writable, the fields are read-only copies,
        # and writing to the inputs afterwards leaves the result as built
        res = rollout(3)
        names = ("gamma", "hazard", "remaining_before", "allocations")
        columns = {name: getattr(res.policy, name).copy() for name in names}
        values = res.gamma.values.copy()
        table = solver_mod.PolicyTable(**columns)
        sequence = solver_mod.GammaSequence(values)
        for name, source in [*columns.items(), ("values", values)]:
            held = getattr(sequence if name == "values" else table, name)
            assert source.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(source, held)
            source[:] = -1.0
        for name in names:
            assert getattr(table, name).tobytes() == getattr(res.policy, name).tobytes()
        assert sequence.values.tobytes() == res.gamma.values.tobytes()
        assert len(sequence) == 4 and table.m == 3
        assert repr(table) == "PolicyTable(m=3)"
        assert repr(sequence) == f"GammaSequence(m=3, gamma0={GAMMA0[3]!r})"

    def test_memory_per_day(self):
        # the columns are float64 arrays, not lists of Python floats
        m = 200_000
        rollout(10)
        tracemalloc.start()
        try:
            rollout(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * m


class TestFrankWolfeBound:
    """The closed form is the minimum of ``sm2``, certified by convexity.

    ``sm2`` is convex on the simplex: ``p log(p / T)`` is a relative-entropy
    perspective, jointly convex in ``(p, T)``, and each tail ``T_j`` is
    linear in ``p``.  So at any interior ``p``, with ``g = gradient_sm2(p)``,
    ``0 <= sm2(p) - min sm2 <= g . p - min_i g_i`` (the Frank-Wolfe gap),
    and ``rollout(m).value_at_root`` must be that minimum.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 300) | st.sampled_from([1000, 3000]),
        concentration=st.sampled_from([0.5, 1.0, 10.0]),
        near=st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_at_root_within_the_gap(self, m, concentration, near, seed):
        rng = np.random.default_rng(seed)
        result = rollout(m)
        if near is None:
            p = rng.dirichlet(np.full(m, concentration))
        else:
            p = result.p * np.exp(near * rng.standard_normal(m))
            p /= p.sum()
        # rounding slack, from measurement: over about 100,000 points within
        # 1e-10 (relative) of rollout(m).p, m = 1..40, 100, 300, 1000 and
        # 3000, the worst shortfall was 0.4 m ulp(1) on the left side and
        # 0.34 m ulp(1) on the right; Dirichlet points are far from either
        slack = 2.0 * m * 2.0**-52
        g = gradient_sm2(p)
        excess = eval_sm2(p) - result.value_at_root
        assert -slack <= excess <= float(g @ p - g.min()) + slack


def replay_columns(m):
    """``gamma_0..gamma_m`` and the four day columns of horizon ``m``.

    A scalar replay of the recursion and of the forward pass, one step per
    day in the solver's order, that shares no state with the package.
    """
    gamma = [0.0] * (m + 1)
    hazard = [0.0] * m
    g = 0.0
    for j in range(m, 0, -1):
        h = math.exp(-g)
        g = g + h
        hazard[j - 1] = h
        gamma[j - 1] = g
    remaining, allocations = [], []
    r = 1.0
    for h in hazard:
        remaining.append(r)
        allocations.append(r * h)
        r = r - r * h
    return {
        "sequence": gamma,
        "gamma": gamma[1:],
        "hazard": hazard,
        "remaining_before": remaining,
        "allocations": allocations,
    }


CAP = solver_mod._RETAINED_DAYS
# grows from cold, shrinks, crosses the cap both ways and lands on it
SHARED_ORDER = [4096, 1, CAP + 1, 3, 2 * CAP, 4095, CAP, 2, CAP - 1, 4097, 1, CAP + 1]


def frozen(values):
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class TestSharedSequence:
    """``TestSharedSequenceSmall`` runs every case again at the small kept
    state of the ``small_kept`` fixture."""

    @pytest.fixture
    def days(self, cold_sequence):
        """The day counts of this size, from those of the full-size cases."""
        return lambda n: n

    def test_every_horizon_bit_equal_to_replay(self, days):
        order = list(map(days, SHARED_ORDER))
        replays = {m: replay_columns(m) for m in set(order)}
        for m in order:
            res = rollout(m)
            expected = replays[m]
            columns = {
                "sequence": res.gamma.values,
                "gamma": res.policy.gamma,
                "hazard": res.policy.hazard,
                "remaining_before": res.policy.remaining_before,
                "allocations": res.p,
            }
            for name, column in columns.items():
                assert column.tobytes() == frozen(expected[name]).tobytes(), (m, name)
                assert column.flags.c_contiguous and not column.flags.writeable, (m, name)
            values = gamma_sequence(m).values
            assert values.tobytes() == frozen(expected["sequence"]).tobytes(), m
            assert values.flags.c_contiguous and not values.flags.writeable

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 4999])
    def test_shift_invariant_replay(self, days, m):
        # the twin of TestGammaSequence.test_shift_invariant, which compares
        # two views of the one shared sequence: here each horizon is checked
        # against its own replay, and the replays against each other
        horizon, m = days(5000), days(m)
        expected = replay_columns(m)["sequence"]
        assert expected == replay_columns(horizon)["sequence"][horizon - m :]
        assert gamma_sequence(m).values.tobytes() == frozen(expected).tobytes()
        assert rollout(m).policy.hazard.tolist() == replay_columns(m)["hazard"]

    def test_growth_leaves_returned_columns_alone(self, days):
        small = rollout(5)
        before = [small.gamma.values.tobytes(), small.policy.hazard.tobytes()]
        rollout(days(CAP))
        rollout(days(2 * CAP))
        assert [small.gamma.values.tobytes(), small.policy.hazard.tobytes()] == before

    def test_retention_capped(self, days):
        # 16 B per kept day (one gamma, one hazard); past the cap the rest of
        # a long horizon is dropped with its result
        cap = days(CAP)
        rollout(1)
        tracemalloc.start()
        try:
            rollout(2 * cap)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        gamma, hazard = solver_mod._shared
        assert (gamma.size, hazard.size) == (cap + 1, cap)
        assert retained <= 16 * cap + 4096


class TestSharedSequenceSmall(TestSharedSequence):
    @pytest.fixture
    def days(self, small_kept):
        return small_kept
