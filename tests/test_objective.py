"""Objective evaluation: tail masses, both scores, gradient, realized surprise.

Reference values come from hand evaluation of the defining formulas or from
the plain-Python reimplementations at the top of this file, which share no
code with the package.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surprisemax import (
    ObjectiveValue,
    eval_sm1,
    eval_sm2,
    eval_sm2_batch,
    gradient_sm2,
    objective_values,
    realized_surprise,
    rollout,
    tail_masses,
)

EXP_NEG1 = math.exp(-1.0)

# rollout(3) allocations, frozen from a 60-digit evaluation of the hazard
# recursion, correctly rounded to binary64
ROLLOUT3 = (0.2546463800435825, 0.2742002731846785, 0.471153346771739)


def sm1_direct(p):
    """Full score straight from its definition, in plain Python floats."""
    m = len(p)
    total = 0.0
    for j in range(m):
        if p[j] > 0.0:
            tail = sum(p[j:])
            total += p[j] * math.log(p[j] / (tail / m))
    return total - sum(p)


def gradient_direct(p):
    """Componentwise derivative from its definition, in plain Python floats."""
    out = []
    for k in range(len(p)):
        carried = sum(p[j] / sum(p[j:]) for j in range(k + 1))
        out.append(math.log(p[k]) + 1.0 - math.log(sum(p[k:])) - carried)
    return out


def random_interior(rng, m, floor=0.05):
    """Simplex point with every coordinate at least floor / m."""
    raw = rng.dirichlet(np.ones(m))
    return (1.0 - floor) * raw + floor / m


class TestValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            eval_sm2([0.5, -0.1, 0.6])

    def test_sum_too_far_from_one(self):
        with pytest.raises(ValueError, match="exceeds tolerance"):
            eval_sm2([0.5, 0.6])

    def test_sum_slightly_off_is_accepted_as_is(self):
        p = [0.5, 0.5 + 4e-10]
        t = tail_masses(p)
        # no renormalization: the total is reported exactly as summed
        assert t[0] == 0.5 + (0.5 + 4e-10)

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            eval_sm2([])

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            eval_sm2([[0.5, 0.5]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eval_sm2([0.5, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eval_sm2([0.5, float("inf")])


class TestTailMasses:
    def test_simple(self):
        assert_allclose(tail_masses([0.2, 0.3, 0.5]), [1.0, 0.8, 0.5], rtol=1e-15)

    def test_rollout3(self):
        t = tail_masses(ROLLOUT3)
        assert_allclose(t, [1.0, 0.7453536199564175, 0.471153346771739], rtol=1e-12)

    def test_last_tail_is_last_entry_exactly(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 5, 17):
            p = rng.dirichlet(np.ones(m))
            t = tail_masses(p)
            assert t[-1] == p[-1]
            # total mass accumulated in the same right-to-left order
            total = 0.0
            for x in p[::-1]:
                total += float(x)
            assert t[0] == total

    def test_monotone_and_dominates_entries(self):
        rng = np.random.default_rng(12)
        for m in (2, 3, 8, 30):
            p = rng.dirichlet(np.ones(m))
            t = tail_masses(p)
            assert np.all(np.diff(t) <= 0.0)
            assert np.all(t >= p)


class TestScores:
    @pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (4, 0), (6, 3)])
    def test_point_mass_scores_zero(self, m, k):
        p = np.zeros(m)
        p[k] = 1.0
        assert eval_sm2(p) == 0.0

    def test_uniform_two_days(self):
        assert_allclose(eval_sm2([0.5, 0.5]), 0.5 * math.log(0.5), rtol=1e-15)
        assert_allclose(eval_sm1([0.5, 0.5]), -0.6534264097200273, rtol=1e-15)

    def test_uniform_three_days(self):
        # 1/3 log(1/3) + 1/3 log(1/2) by hand
        expected = -(math.log(3.0) + math.log(2.0)) / 3.0
        assert_allclose(eval_sm2([1 / 3, 1 / 3, 1 / 3]), expected, rtol=1e-14)

    def test_two_day_optimum(self):
        assert_allclose(eval_sm2([EXP_NEG1, 1.0 - EXP_NEG1]), -EXP_NEG1, rtol=1e-14)

    def test_single_day(self):
        assert eval_sm2([1.0]) == 0.0
        assert eval_sm1([1.0]) == -1.0

    def test_zero_entry_contributes_nothing(self):
        assert_allclose(eval_sm2([0.5, 0.0, 0.5]), 0.5 * math.log(0.5), rtol=1e-15)

    def test_rollout3_full_score(self):
        assert_allclose(eval_sm1(ROLLOUT3), -0.5239135325469151, rtol=1e-12)

    def test_never_positive(self):
        rng = np.random.default_rng(13)
        for m in (1, 2, 3, 7, 25):
            for _ in range(20):
                assert eval_sm2(rng.dirichlet(np.ones(m))) <= 0.0

    def test_interior_point_strictly_negative(self):
        rng = np.random.default_rng(14)
        p = random_interior(rng, 5)
        p = p / p.sum()
        assert eval_sm2(p) < 0.0

    def test_full_score_identity(self):
        rng = np.random.default_rng(15)
        for m in range(1, 21):
            for _ in range(20):
                p = rng.dirichlet(np.ones(m))
                assert abs(eval_sm1(p) - sm1_direct(list(p))) <= 1e-12

    def test_objective_values_bundle(self):
        obj = objective_values([0.5, 0.5])
        assert isinstance(obj, ObjectiveValue)
        assert obj.sm1 == obj.sm2 + math.log(2.0) - 1.0
        assert obj.expected_surprise == -obj.sm2

    # Not exact: on CPUs where NumPy runs np.log through SIMD, a 2-D array
    # and a reversed 1-D view of the same tails can take different code
    # paths and round one log differently in the last bit.
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        for m, count in [(6, 40), (1000, 5)]:
            rows = rng.dirichlet(np.ones(m), size=count)
            batch = eval_sm2_batch(rows)
            scalar = np.array([eval_sm2(row) for row in rows])
            assert batch.tolist() == scalar.tolist()

    def test_batch_row_with_the_vector_bits(self):
        # A reversed tails view once sent np.log of this row down another
        # path than the batch's, 1 ulp apart on AVX-512 CPUs.
        rows = np.random.default_rng(16).dirichlet(np.ones(6), size=40)
        assert eval_sm2_batch(rows)[11] == eval_sm2(rows[11])
        assert tail_masses(rows[11]).flags.c_contiguous

    def test_batch_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            eval_sm2_batch(np.array([0.5, 0.5]))


class TestGradient:
    def test_two_day_optimum_is_balanced(self):
        g = gradient_sm2([EXP_NEG1, 1.0 - EXP_NEG1])
        assert_allclose(g, [-EXP_NEG1, -EXP_NEG1], atol=1e-12)

    def test_uniform_two_days(self):
        g = gradient_sm2([0.5, 0.5])
        assert_allclose(g, [math.log(0.5) + 0.5, -0.5], rtol=1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        for m in (2, 3, 5, 9):
            for _ in range(25):
                p = random_interior(rng, m)
                p = p / p.sum()
                assert_allclose(gradient_sm2(p), gradient_direct(list(p)), atol=1e-12)

    def test_inner_product_recovers_score(self):
        # sum_j p_j g_j telescopes back to the reduced score
        rng = np.random.default_rng(18)
        for _ in range(20):
            p = random_interior(rng, 6)
            p = p / p.sum()
            assert abs(float(np.dot(p, gradient_sm2(p))) - eval_sm2(p)) <= 1e-12

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            gradient_sm2([0.5, 0.0, 0.5])


class TestRealizedSurprise:
    def test_two_day_optimum_first_day(self):
        p = rollout(2).p
        assert_allclose(realized_surprise(p, 1), 1.0, atol=1e-12)

    def test_last_day_never_surprises(self):
        rng = np.random.default_rng(19)
        for m in (1, 2, 4, 9):
            p = rng.dirichlet(np.ones(m))
            assert realized_surprise(p, m) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = rng.dirichlet(np.ones(7))
            for day in range(1, 8):
                if p[day - 1] > 0.0:
                    assert realized_surprise(p, day) >= 0.0

    def test_expectation_recovers_score(self):
        rng = np.random.default_rng(21)
        for m in (1, 2, 3, 6, 12):
            for _ in range(10):
                p = rng.dirichlet(np.ones(m))
                expectation = sum(
                    p[j] * realized_surprise(p, j + 1) for j in range(m) if p[j] > 0.0
                )
                assert abs(expectation - (-eval_sm2(p))) <= 1e-12

    def test_day_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            realized_surprise([0.5, 0.5], 3)
        with pytest.raises(ValueError, match="out of range"):
            realized_surprise([0.5, 0.5], 0)

    @pytest.mark.parametrize("day", [1.5, 1.0, True, "1"])
    def test_day_not_an_integer(self, day):
        with pytest.raises(ValueError, match="day must be an integer"):
            realized_surprise([0.5, 0.5], day)

    def test_numpy_integer_day(self):
        assert realized_surprise([0.5, 0.5], np.int64(1)) == realized_surprise([0.5, 0.5], 1)

    def test_zero_probability_day(self):
        with pytest.raises(ValueError, match="zero probability"):
            realized_surprise([0.5, 0.0, 0.5], 2)
