"""Objective evaluation: tail masses, both scores, gradient, realized surprise.

Reference values come from hand evaluation of the defining formulas or from
the plain-Python reimplementations at the top of this file, which share no
code with the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from surprisemax import objective as objective_mod

EXP_NEG1 = math.exp(-1.0)

# rollout(3) allocations, frozen from a 60-digit evaluation of the hazard
# recursion, correctly rounded to binary64
ROLLOUT3 = (0.2546463800435825, 0.2742002731846785, 0.47115334677173903)


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
        # the frozen schedule's own tails, summed right to left, bit for bit
        t = tail_masses(ROLLOUT3)
        assert t[2] == ROLLOUT3[2]
        assert t[1] == ROLLOUT3[2] + ROLLOUT3[1]
        assert t[0] == t[1] + ROLLOUT3[0]

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

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        for m, count in [(6, 40), (1000, 5)]:
            rows = rng.dirichlet(np.ones(m), size=count)
            batch = eval_sm2_batch(rows)
            scalar = np.array([eval_sm2(row) for row in rows])
            assert batch.tolist() == scalar.tolist()
        # rows holding a zero entry, leading, inner and trailing, among clean
        # rows: the batch is summed again with the p > 0 mask
        rows = rng.dirichlet(np.ones(6), size=12)
        for i, day in [(1, 0), (4, 5), (7, 2), (10, 3)]:
            rows[i] = np.insert(rng.dirichlet(np.ones(5)), day, 0.0)
        rows[11] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
        batch = eval_sm2_batch(rows)
        assert batch.tolist() == [eval_sm2(row) for row in rows]
        clean = np.all(rows > 0.0, axis=1)
        assert clean.sum() == 7
        assert batch[clean].tolist() == eval_sm2_batch(rows[clean]).tolist()

    def test_batch_row_with_the_vector_bits(self):
        # A reversed tails view once sent np.log of this row down another
        # path than the batch's, 1 ulp apart on AVX-512 CPUs.
        rows = np.random.default_rng(16).dirichlet(np.ones(6), size=40)
        assert eval_sm2_batch(rows)[11] == eval_sm2(rows[11])
        assert tail_masses(rows[11]).flags.c_contiguous

    def test_batch_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            eval_sm2_batch(np.array([0.5, 0.5]))


def entrywise_sm2(rows):
    """Each row's reduced score, its NaN terms found entry by entry and counted as 0."""
    t = np.empty_like(rows)
    # the package's tails layout, so np.log takes the same path
    np.cumsum(rows[:, ::-1], axis=1, out=t[:, ::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = rows * (np.log(rows) - np.log(t))
    rough = np.isnan(terms)
    return np.where(rough, 0.0, terms).sum(axis=1), rough


@st.composite
def rows_with_zeros(draw):
    """Up to 9 schedules of up to 40 days, many holding zeros, one maybe holding +inf."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))
    totals = rows.sum(axis=1, keepdims=True)
    np.divide(rows, totals, out=rows, where=totals > 0.0)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = math.inf
    return rows


class TestRowSumsFirst:
    """Rows are summed first and summed again without their NaN terms only
    when the sum is NaN; the bits are those of an entry-by-entry check."""

    @settings(max_examples=300, deadline=None)
    @given(rows_with_zeros())
    def test_same_bits_as_entrywise(self, rows):
        expected, rough = entrywise_sm2(rows)
        assert eval_sm2_batch(rows).tobytes() == expected.tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            sm2, flagged = objective_mod._scored(rows.copy())[:2]
            assert sm2.tobytes() == expected.tobytes()
            if rough.any():
                assert np.array_equal(flagged, rough)
            else:
                assert flagged is None
            for row, value, row_rough in zip(rows, expected, rough):
                one, one_flagged = objective_mod._scored(row.copy())[:2]
                assert np.float64(one).tobytes() == value.tobytes()
                assert (one_flagged is None) is (not row_rough.any())


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
