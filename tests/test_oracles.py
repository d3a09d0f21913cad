"""Grid search, multiplicative-weights ascent, and finite differences."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surprisemax import (
    AscentConfig,
    GridSpec,
    SearchSense,
    SplitMix64,
    ascent_optimize,
    finite_diff_gradient,
    gradient_sm2,
    grid_search,
    rollout,
)
from surprisemax import oracles as oracles_mod

EXP_NEG1 = math.exp(-1.0)


class TestCompositionEnumeration:
    def test_exhaustive_and_ordered(self):
        rows = np.concatenate(list(oracles_mod._compositions(5, 3)))
        assert rows.shape == (math.comb(7, 2), 3)
        assert np.all(rows.sum(axis=1) == 5)
        as_tuples = [tuple(row) for row in rows]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    def test_single_part(self):
        rows = np.concatenate(list(oracles_mod._compositions(9, 1)))
        assert rows.tolist() == [[9.0]]

    def test_two_parts(self):
        rows = np.concatenate(list(oracles_mod._compositions(3, 2)))
        assert rows.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]


class TestBoundedLattice:
    """The scan holds at most ``_BATCH_ROWS`` lattice rows at a time."""

    @pytest.mark.parametrize("total, parts", [(20, 1), (20, 2), (20, 3), (9, 4)])
    def test_small_blocks_concatenate_to_lex_order(self, monkeypatch, total, parts):
        monkeypatch.setattr(oracles_mod, "_BATCH_ROWS", 7)
        blocks = list(oracles_mod._compositions(total, parts))
        assert all(block.shape[0] <= 7 for block in blocks)
        expected = [
            k for k in itertools.product(range(total + 1), repeat=parts) if sum(k) == total
        ]
        assert np.concatenate(blocks).tolist() == [list(map(float, k)) for k in expected]

    @pytest.mark.parametrize("sense", list(SearchSense))
    def test_block_size_does_not_change_the_result(self, monkeypatch, sense):
        spec = GridSpec(60, sense)
        default = grid_search(3, spec)
        monkeypatch.setattr(oracles_mod, "_BATCH_ROWS", 7)
        small = grid_search(3, spec)
        assert small.best_point.tobytes() == default.best_point.tobytes()
        assert small.best_value == default.best_value

    def test_memory_bounded_in_resolution(self):
        # one (N+1) x 2 block would need 69 MB at N = 2e6
        grid_search(2, GridSpec(100))
        tracemalloc.start()
        try:
            grid_search(2, GridSpec(2_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestGridSearch:
    def test_two_days_fine_grid(self):
        report = grid_search(2, GridSpec(10_000))
        assert_allclose(report.best_point, [0.3679, 0.6321], rtol=1e-15)
        assert report.linf_gap <= 2e-4
        assert report.agrees
        assert report.converged

    def test_three_days_coarse_grid(self):
        report = grid_search(3, GridSpec(100))
        assert report.linf_gap <= 2.0 / 100.0
        assert report.agrees

    def test_one_day(self):
        report = grid_search(1, GridSpec(50))
        assert report.best_point.tolist() == [1.0]
        assert report.best_value == 0.0
        assert report.linf_gap == 0.0

    def test_maximize_picks_lexicographically_first_vertex(self):
        # every vertex scores exactly zero; the tie must break toward the
        # lexicographically smallest lattice point
        report = grid_search(2, GridSpec(100, SearchSense.MAXIMIZE_SM2))
        assert report.best_point.tolist() == [0.0, 1.0]
        assert report.best_value == 0.0

    def test_minimize_small_grid_interior(self):
        report = grid_search(2, GridSpec(2))
        assert report.best_point.tolist() == [0.5, 0.5]

    def test_deterministic(self):
        a = grid_search(3, GridSpec(60))
        b = grid_search(3, GridSpec(60))
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value

    def test_best_point_is_a_lattice_point(self):
        report = grid_search(3, GridSpec(40))
        scaled = report.best_point * 40
        assert np.all(np.abs(scaled - np.round(scaled)) < 1e-9)

    def test_point_cap(self):
        with pytest.raises(ValueError, match="points"):
            grid_search(5, GridSpec(1_000))

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(1)
        with pytest.raises(ValueError, match="integer"):
            GridSpec(2.5)
        with pytest.raises(ValueError, match="SearchSense"):
            GridSpec(10, "minimize-sm2")


class TestAscent:
    def test_one_day_immediate(self):
        report = ascent_optimize(1)
        assert report.linf_gap == 0.0
        assert report.agrees
        assert report.converged

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_agrees_with_closed_form(self, m):
        report = ascent_optimize(m)
        assert report.converged
        assert report.linf_gap <= 1e-6
        assert abs(report.best_value - rollout(m).value_at_root) <= 1e-10

    def test_two_days_tight(self):
        assert ascent_optimize(2).linf_gap <= 1e-8

    def test_deterministic_for_fixed_seed(self):
        a = ascent_optimize(4, AscentConfig(seed=5))
        b = ascent_optimize(4, AscentConfig(seed=5))
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value

    def test_other_seeds_still_agree(self):
        for seed in (1, 99, 2**63):
            assert ascent_optimize(3, AscentConfig(seed=seed)).linf_gap <= 1e-6

    def test_uniform_start_alone_suffices(self):
        report = ascent_optimize(5, AscentConfig(restarts=0))
        assert report.linf_gap <= 1e-6

    def test_starved_iterations_report_no_convergence(self):
        report = ascent_optimize(6, AscentConfig(max_iterations=1), tolerance=1e-12)
        assert not report.converged
        assert not report.agrees

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            AscentConfig(max_iterations=0)
        with pytest.raises(ValueError, match="step_size"):
            AscentConfig(step_size=0.0)
        with pytest.raises(ValueError, match="restarts"):
            AscentConfig(restarts=-1)
        with pytest.raises(ValueError, match="convergence_tol"):
            AscentConfig(convergence_tol=0.0)
        with pytest.raises(ValueError, match="seed"):
            AscentConfig(seed=-1)
        with pytest.raises(ValueError, match="seed 2.7 is not an unsigned 64-bit integer"):
            AscentConfig(seed=2.7)
        with pytest.raises(ValueError, match="seed True is not an unsigned 64-bit integer"):
            AscentConfig(seed=True)
        with pytest.raises(ValueError, match="max_iterations must be an integer, got 2.5"):
            AscentConfig(max_iterations=2.5)
        with pytest.raises(ValueError, match="max_iterations must be an integer, got True"):
            AscentConfig(max_iterations=True)
        with pytest.raises(ValueError, match="restarts must be an integer, got 2.5"):
            AscentConfig(restarts=2.5)
        with pytest.raises(ValueError, match="restarts must be an integer, got True"):
            AscentConfig(restarts=True)
        config = AscentConfig(max_iterations=np.int64(3), restarts=np.int64(1))
        assert ascent_optimize(2, config).best_point.size == 2


class TestFiniteDiff:
    def test_uniform_two_days(self):
        grad = finite_diff_gradient([0.5, 0.5], 1e-6)
        assert_allclose(grad, [math.log(0.5) + 0.5, -0.5], atol=1e-8)

    def test_two_day_optimum(self):
        grad = finite_diff_gradient(rollout(2).p, 1e-6)
        assert_allclose(grad, [-EXP_NEG1, -EXP_NEG1], atol=1e-8)

    def test_matches_analytic_gradient(self):
        rng = np.random.default_rng(41)
        for m in range(2, 11):
            for _ in range(5):
                p = 0.95 * rng.dirichlet(np.ones(m)) + 0.05 / m
                p = p / p.sum()
                assert_allclose(
                    finite_diff_gradient(p, 1e-6), gradient_sm2(p), atol=1e-5
                )

    def test_point_mass_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            finite_diff_gradient([1.0], 1e-6)

    def test_entry_smaller_than_step_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            finite_diff_gradient([1e-9, 0.5, 0.499999999], 1e-6)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            finite_diff_gradient([0.5, 0.5], 0.0)
        with pytest.raises(ValueError, match="outside"):
            finite_diff_gradient([0.5, 0.5], 0.5)


def replay_tails(p):
    # The package's tails layout: the same right-to-left sums, written into a
    # C-contiguous array.  A reversed view would send np.log down another
    # path on some CPUs and move the last bit of a log.
    t = np.empty(p.size)
    np.cumsum(p[::-1], out=t[::-1])
    return t


def replay_sm2(p):
    t = replay_tails(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(t))
    return np.where(p > 0.0, terms, 0.0).sum()


def replay_ascend(p, max_iterations=100_000, step_size=0.5, convergence_tol=1e-12):
    """The ascent loop as first written: full score and gradient per step."""
    value = -float(replay_sm2(p))
    for _ in range(max_iterations):
        t = replay_tails(p)
        g = np.log(p) + 1.0 - np.log(t) - np.cumsum(p / t)
        eta = step_size
        while True:
            weights = p * np.exp(-eta * g)
            q = weights / weights.sum()
            candidate = -float(replay_sm2(q))
            if candidate >= value or eta < 1e-18:
                break
            eta *= 0.5
        if candidate < value:
            return p, value, False
        delta = float(np.max(np.abs(q - p)))
        p, value = q, candidate
        if delta < convergence_tol:
            return p, value, True
    return p, value, False


def replay_starts(m, seed, restarts=8):
    """The uniform start, then one drawn start per restart."""
    starts = [np.full(m, 1.0 / m)]
    for i in range(1, restarts + 1):
        rng = SplitMix64((seed + i) & 0xFFFFFFFFFFFFFFFF)
        draws = np.array([-math.log1p(-rng.next_double()) for _ in range(m)])
        total = draws.sum()
        starts.append(draws / total if total > 0.0 else np.full(m, 1.0 / m))
    return starts


def replay_ascent(m, seed, restarts=8, max_iterations=100_000):
    """Best ``(point, value, converged)`` over the starts, each run alone."""
    best = (None, -math.inf, False)
    for start in replay_starts(m, seed, restarts):
        point, value, converged = replay_ascend(start, max_iterations)
        if value > best[1]:
            best = (point, value, converged)
    return best


def assert_runs_match_replay(m, config):
    """Every row of the batched ascent equals its start's lone replay."""
    starts = replay_starts(m, config.seed, config.restarts)
    points, values, converged = oracles_mod._ascend(np.array(starts), config)
    assert points.shape == (len(starts), m)
    for i, start in enumerate(starts):
        point, value, ok = replay_ascend(start, config.max_iterations)
        assert points[i].tobytes() == point.tobytes(), i
        assert values[i] == value, i
        assert bool(converged[i]) is ok, i
    return converged


class TestAscentBits:
    """The ascent oracle's endpoints, pinned to a per-step replay bit for bit.

    The replay runs one start at a time; the oracle runs the starts as rows
    of one array (in row blocks at large m), each row at its own step size
    and step count.
    """

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 200, 1000, 2003])
    def test_matches_replay(self, m, seed):
        point, value, converged = replay_ascent(m, seed)
        report = ascent_optimize(m, AscentConfig(seed=seed))
        assert report.best_point.tobytes() == point.tobytes()
        assert report.best_value == -value
        assert report.converged is converged

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 46, 49, 57, 200, 1000, 2003])
    def test_every_run_matches_its_replay(self, m, seed):
        assert_runs_match_replay(m, AscentConfig(seed=seed))

    @pytest.mark.parametrize("entries", [1, 100, 2500, 10**9])
    @pytest.mark.parametrize("m", [40, 1000])
    def test_blocks_do_not_change_the_result(self, monkeypatch, m, entries):
        # one start per block, two or a few, or all nine in one block
        default = ascent_optimize(m, AscentConfig(seed=7))
        monkeypatch.setattr(oracles_mod, "_BLOCK_ENTRIES", entries)
        report = ascent_optimize(m, AscentConfig(seed=7))
        assert report.best_point.tobytes() == default.best_point.tobytes()
        assert report.best_value == default.best_value
        assert report.converged is default.converged

    def test_stalled_runs_covered(self):
        # runs that stall at float resolution leave the batch early and
        # must still end where their lone replay ends
        converged = assert_runs_match_replay(46, AscentConfig())
        assert not converged.all()

    @pytest.mark.parametrize(
        "restarts, max_iterations", [(0, 100_000), (8, 1), (8, 3), (2, 1)]
    )
    @pytest.mark.parametrize("m", [2, 5, 40])
    def test_short_runs_match_replay(self, m, restarts, max_iterations):
        config = AscentConfig(restarts=restarts, max_iterations=max_iterations, seed=7)
        assert_runs_match_replay(m, config)
        point, value, converged = replay_ascent(m, 7, restarts, max_iterations)
        report = ascent_optimize(m, config)
        assert report.best_point.tobytes() == point.tobytes()
        assert report.best_value == -value
        assert report.converged is converged


class TestBestRun:
    """The earliest run wins ties, and a NaN value never wins."""

    def test_earliest_wins_ties(self):
        assert oracles_mod._best_run(np.array([0.1, 0.3, 0.2, 0.3])) == 1

    def test_nan_never_wins(self):
        assert oracles_mod._best_run(np.array([math.nan, 0.1, math.inf, math.nan])) == 2
        assert oracles_mod._best_run(np.array([math.nan, 0.0, 0.0])) == 1

    def test_all_nan_has_no_winner(self):
        assert oracles_mod._best_run(np.array([math.nan, math.nan])) is None


class TestAscendValidation:
    """Each start, and any iterate that leaves the fast path, is checked."""

    @pytest.mark.parametrize(
        "start, message",
        [
            ([0.0, 0.5, 0.5], "gradient needs every entry strictly positive"),
            ([math.nan, 0.5, 0.5], "entries must be finite"),
            ([0.5, 0.500001], "sum 1.0000010000000001 exceeds tolerance 1e-09"),
        ],
    )
    def test_bad_start_raises(self, start, message):
        with pytest.raises(ValueError) as excinfo:
            oracles_mod._ascend(np.array([start]), AscentConfig())
        assert str(excinfo.value) == message

    def test_accepted_candidate_with_a_zero_entry_raises(self, monkeypatch):
        # At step 20 the last entry's share underflows to 0, and the
        # candidate still scores higher, so the line search accepts it.
        start = np.array([1e-5, 1.0 - 1e-5, 5e-324])
        checked = []

        def spy(p):
            checked.append(np.array(p))
            return gradient_sm2(p)

        monkeypatch.setattr(oracles_mod, "gradient_sm2", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                oracles_mod._ascend(start[None, :], AscentConfig(step_size=20.0))
        assert str(excinfo.value) == "gradient needs every entry strictly positive"
        assert checked[0].tobytes() == start.tobytes()
        assert len(checked) == 2 and checked[1].min() == 0.0
