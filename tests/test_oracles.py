"""Grid search, multiplicative-weights ascent, and finite differences."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surprisemax import (
    GridSpec,
    SplitMix64,
    ascent_optimize,
    eval_sm2_batch,
    finite_diff_gradient,
    gradient_sm2,
    grid_search,
    rollout,
)
from surprisemax import objective as objective_mod
from surprisemax import oracles as oracles_mod

EXP_NEG1 = math.exp(-1.0)


def lattice_rows(total, parts):
    """Every point of ``_compositions``, one per row, in the order yielded."""
    return np.concatenate(list(oracles_mod._compositions(total, parts)), axis=1).T


class TestCompositionEnumeration:
    def test_exhaustive_and_ordered(self):
        rows = lattice_rows(5, 3)
        assert rows.shape == (math.comb(7, 2), 3)
        assert np.all(rows.sum(axis=1) == 5)
        as_tuples = [tuple(row) for row in rows]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    def test_single_part(self):
        rows = lattice_rows(9, 1)
        assert rows.tolist() == [[9.0]]

    def test_two_parts(self):
        rows = lattice_rows(3, 2)
        assert rows.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]

    def test_more_parts_than_the_recursion_limit(self):
        # a prefix of 1198 places: the unit points, last place first
        assert np.array_equal(lattice_rows(1, 1200), np.eye(1200)[::-1])

    def test_many_parts_match_itertools(self):
        # the points are the multisets of 2 places among 300, each written
        # out as one byte per place, in lexicographic order
        def point(places):
            counts = bytearray(300)
            for place in places:
                counts[place] += 1
            return bytes(counts)

        expected = sorted(map(point, itertools.combinations_with_replacement(range(300), 2)))
        done = 0
        for block in oracles_mod._compositions(2, 300):
            n = block.shape[1]
            want = np.frombuffer(b"".join(expected[done : done + n]), dtype=np.uint8)
            assert np.array_equal(block.T, want.reshape(n, 300))
            done += n
        assert done == len(expected) == math.comb(301, 2)


class TestBoundedLattice:
    """The scan holds at most ``_BLOCK_ENTRIES`` lattice entries, or one point, at a time."""

    @pytest.mark.parametrize("total, parts", [(20, 1), (20, 2), (20, 3), (9, 4)])
    def test_small_blocks_concatenate_to_lex_order(self, monkeypatch, total, parts):
        expected = [
            list(map(float, k))
            for k in itertools.product(range(total + 1), repeat=parts)
            if sum(k) == total
        ]
        for entries in (7, 100):
            monkeypatch.setattr(oracles_mod, "_BLOCK_ENTRIES", entries)
            blocks = list(oracles_mod._compositions(total, parts))
            assert all(block.shape[0] == parts for block in blocks)
            assert all(block.size <= entries or block.shape[1] == 1 for block in blocks)
            # every block but the last is full
            width = max(1, entries // parts)
            assert all(block.shape[1] == width for block in blocks[:-1])
            if parts >= 3 and entries == 100:
                # a block spans several prefixes (k_1 .. k_{parts-2})
                assert any(
                    len({tuple(col) for col in block[: parts - 2].T}) > 1 for block in blocks
                )
            assert np.concatenate(blocks, axis=1).T.tolist() == expected

    def test_grid_block_size_does_not_change_the_minimum(self, monkeypatch):
        for m, resolution in ((3, 60), (9, 6)):
            spec = GridSpec(resolution)
            default = grid_search(m, spec)
            for entries in (7, 100):
                with monkeypatch.context() as patch:
                    patch.setattr(oracles_mod, "_BLOCK_ENTRIES", entries)
                    small = grid_search(m, spec)
                assert small.best_point.tobytes() == default.best_point.tobytes(), (m, entries)
                assert small.best_value == default.best_value, (m, entries)

    @staticmethod
    def traced_peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_in_resolution(self):
        # one (N+1) x 2 block would need 69 MB at N = 2e6
        assert self.traced_peak(lambda: grid_search(2, GridSpec(2_000_000))) < 2e6

    def test_memory_bounded_at_the_verify_sizes(self):
        # a block's arrays hold 64 KiB each, so the peaks stay far below
        # the 1.2 MB at which freed temporaries move glibc's mmap threshold
        assert self.traced_peak(lambda: grid_search(3, GridSpec(1000))) < 1.5e6
        assert self.traced_peak(lambda: ascent_optimize(2000)) < 1.5e6


class TestColumnScores:
    """A column block scores each point with the bits of its row score."""

    @pytest.mark.parametrize("m", [*range(1, 13), 127, 128, 129, 255, 256, 257, 1031])
    def test_equal_to_eval_sm2_batch(self, m):
        # 8 and 128 entries are where NumPy's row sum changes its order; from
        # 255 on the pairwise tree splits twice or more
        rng = np.random.default_rng(m)
        rows = rng.dirichlet(np.ones(m), size=50)
        rows[::3, rng.integers(m, size=17)] = 0.0
        rows[1] = 0.0
        rows[1, -1] = 1.0
        rows[2] = 1.0 / m
        blocks = [np.ascontiguousarray(rows.T)]
        if m <= 129:
            # lattice blocks grow as m^2, so the longer horizons score random rows alone
            resolution = 5 if m <= 12 else 2
            blocks += [block / resolution for block in oracles_mod._compositions(resolution, m)]
        for block in blocks:
            with np.errstate(divide="ignore", invalid="ignore"):
                values = objective_mod._scored(block, columns=True)[0]
            expected = eval_sm2_batch(np.ascontiguousarray(block.T))
            assert values.tobytes() == expected.tobytes()

    def test_grid_equals_a_brute_force_row_scan(self):
        n = 1000
        k1, k2 = np.indices((n + 1, n + 1)).reshape(2, -1)
        inside = k1 + k2 <= n
        rows = np.column_stack([k1[inside], k2[inside], n - k1[inside] - k2[inside]]) / n
        assert rows.shape == (501_501, 3)
        values = eval_sm2_batch(rows)
        best = int(np.argmin(values))
        report = grid_search(3, GridSpec(n))
        assert report.best_point.tobytes() == rows[best].tobytes()
        assert report.best_value.hex() == float(values[best]).hex()


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

    def test_ties_keep_the_lexicographically_first_point(self, monkeypatch):
        # every point scores the same, in blocks of two points, so the tie
        # spans every block and must break toward the first lattice point
        monkeypatch.setattr(
            oracles_mod, "_scored", lambda block, columns: (np.zeros(block.shape[1]),)
        )
        monkeypatch.setattr(oracles_mod, "_BLOCK_ENTRIES", 7)
        report = grid_search(3, GridSpec(20))
        assert report.best_point.tolist() == [0.0, 0.0, 1.0]
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
        a = ascent_optimize(4, seed=5)
        b = ascent_optimize(4, seed=5)
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value

    def test_other_seeds_still_agree(self):
        for seed in (1, 99, 2**63):
            assert ascent_optimize(3, seed=seed).linf_gap <= 1e-6

    def test_uniform_start_alone_suffices(self, monkeypatch):
        monkeypatch.setattr(oracles_mod, "_RESTARTS", 0)
        report = ascent_optimize(5)
        assert report.linf_gap <= 1e-6

    def test_starved_iterations_report_no_convergence(self, monkeypatch):
        monkeypatch.setattr(oracles_mod, "_MAX_ITERATIONS", 1)
        report = ascent_optimize(6, tolerance=1e-12)
        assert not report.converged
        assert not report.agrees

    def test_numpy_integer_seed_accepted(self):
        report = ascent_optimize(4, seed=np.int64(5))
        assert report.best_point.tobytes() == ascent_optimize(4, seed=5).best_point.tobytes()

    def test_huge_step_size_agrees_without_warnings(self, monkeypatch):
        # exp(-eta g) overflows at this step size until the line search has
        # halved it far enough
        monkeypatch.setattr(oracles_mod, "_STEP_SIZE", 1e300)
        monkeypatch.setattr(oracles_mod, "_RESTARTS", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ascent_optimize(5)
        assert report.agrees


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

    @pytest.mark.parametrize("h", [True, "0.5", None])
    def test_step_must_be_a_real_number(self, h):
        with pytest.raises(ValueError) as excinfo:
            finite_diff_gradient([0.5, 0.5], h)
        assert str(excinfo.value) == f"step must be a real number, got {h!r}"


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


def assert_runs_match_replay(m, seed):
    """Every row of the batched ascent equals its start's lone replay.

    The restart count and step cap are the oracle's, as patched.
    """
    starts = replay_starts(m, seed, oracles_mod._RESTARTS)
    points, values, converged = oracles_mod._ascend(np.array(starts))
    assert points.shape == (len(starts), m)
    for i, start in enumerate(starts):
        point, value, ok = replay_ascend(start, oracles_mod._MAX_ITERATIONS)
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
        report = ascent_optimize(m, seed)
        assert report.best_point.tobytes() == point.tobytes()
        assert report.best_value == -value
        assert report.converged is converged

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 46, 49, 57, 200, 1000, 2003])
    def test_every_run_matches_its_replay(self, m, seed):
        assert_runs_match_replay(m, seed)

    @pytest.mark.parametrize("entries", [1, 100, 2500, 10**9])
    @pytest.mark.parametrize("m", [40, 1000])
    def test_blocks_do_not_change_the_result(self, monkeypatch, m, entries):
        # one start per block, two or a few, or all nine in one block
        default = ascent_optimize(m, seed=7)
        monkeypatch.setattr(oracles_mod, "_BLOCK_ENTRIES", entries)
        report = ascent_optimize(m, seed=7)
        assert report.best_point.tobytes() == default.best_point.tobytes()
        assert report.best_value == default.best_value
        assert report.converged is default.converged

    def test_stalled_runs_covered(self):
        # runs that stall at float resolution leave the batch early and
        # must still end where their lone replay ends
        converged = assert_runs_match_replay(46, 0)
        assert not converged.all()

    @pytest.mark.parametrize(
        "restarts, max_iterations", [(0, 100_000), (8, 1), (8, 3), (2, 1)]
    )
    @pytest.mark.parametrize("m", [2, 5, 40])
    def test_short_runs_match_replay(self, monkeypatch, m, restarts, max_iterations):
        monkeypatch.setattr(oracles_mod, "_RESTARTS", restarts)
        monkeypatch.setattr(oracles_mod, "_MAX_ITERATIONS", max_iterations)
        assert_runs_match_replay(m, 7)
        point, value, converged = replay_ascent(m, 7, restarts, max_iterations)
        report = ascent_optimize(m, seed=7)
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
            oracles_mod._ascend(np.array([start]))
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
        monkeypatch.setattr(oracles_mod, "_STEP_SIZE", 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                oracles_mod._ascend(start[None, :])
        assert str(excinfo.value) == "gradient needs every entry strictly positive"
        # the start passes the block check, so only the iterate is checked
        assert len(checked) == 1 and checked[0].min() == 0.0


def _bad_row(kind, row, i):
    """``row`` broken one way: a zero, a NaN, an inf, or a sum ``(i + 1) 1e-6`` off."""
    row = row.copy()
    if kind == "zero":
        row[1] = 0.0
        row /= row.sum()
    elif kind == "nan":
        row[2] = math.nan
    elif kind == "inf":
        row[0] = math.inf
    else:
        row *= 1.0 + 1e-6 * (i + 1)
    return row


class TestBlockStartCheck:
    """The starts are checked as one block; a bad one is named as ``gradient_sm2`` names it."""

    KINDS = ["zero", "nan", "inf", "sum"]

    @staticmethod
    def expected_message(row):
        with pytest.raises(ValueError) as excinfo:
            gradient_sm2(row)
        return str(excinfo.value)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_one_bad_row(self, kind, position):
        starts = np.array(replay_starts(5, 3))
        starts[position] = _bad_row(kind, starts[position], position)
        with pytest.raises(ValueError) as excinfo:
            oracles_mod._ascend(starts)
        assert str(excinfo.value) == self.expected_message(starts[position])

    @pytest.mark.parametrize("first, second", itertools.permutations(KINDS, 2))
    @pytest.mark.parametrize("positions", [(0, 8), (4, 5)])
    def test_two_bad_rows_name_the_first(self, first, second, positions):
        starts = np.array(replay_starts(5, 3))
        for kind, i in zip((first, second), positions):
            starts[i] = _bad_row(kind, starts[i], i)
        with pytest.raises(ValueError) as excinfo:
            oracles_mod._ascend(starts)
        assert str(excinfo.value) == self.expected_message(starts[positions[0]])

    @pytest.mark.parametrize("m", [2, 9, 130, 1000])
    def test_sums_at_the_tolerance_edge(self, m):
        # a start whose total steps across 1 - 1e-9 and 1 + 1e-9 in steps of
        # about an ulp of 1, in a block of nine: the block is accepted exactly
        # when gradient_sm2 accepts the row, however NumPy orders the sum
        # (one by one below 8 entries, pairwise with 8 accumulators above),
        # and a refused row is refused for its sum, as as_probability_vector
        # refuses it
        starts = np.array(replay_starts(m, 3))
        outcomes = set()
        for edge in (1.0 - 1e-9, 1.0 + 1e-9):
            last = starts[4, -1] + (edge - starts[4].sum())
            for step in range(-24, 25):
                starts[4, -1] = last + step * 2.0**-53
                try:
                    gradient_sm2(starts[4])
                    accepted = True
                except ValueError as error:
                    assert str(error).startswith("sum "), (edge, step, str(error))
                    accepted = False
                assert objective_mod._interior(starts) is accepted, (edge, step)
                outcomes.add(accepted)
        assert outcomes == {True, False}


class TestTolerance:
    """The ascent refuses a bad tolerance or seed before any work; the grid's is ``2 / N``."""

    @staticmethod
    def no_work(monkeypatch):
        work = []
        monkeypatch.setattr(oracles_mod, "_simplex_draw", lambda *args: work.append(args))
        monkeypatch.setattr(oracles_mod, "_ascend", lambda *args: work.append(args))
        return work

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (0, "tolerance must be positive, got 0.0"),
            (-1.0, "tolerance must be positive, got -1.0"),
            (math.nan, "tolerance must be positive, got nan"),
            # an infinite tolerance would let every search agree
            (math.inf, "tolerance must be finite, got inf"),
            (True, "tolerance must be a real number, got True"),
            ("0.5", "tolerance must be a real number, got '0.5'"),
            (None, "tolerance must be a real number, got None"),
        ],
    )
    def test_refused_before_any_work(self, monkeypatch, tolerance, message):
        work = self.no_work(monkeypatch)
        with pytest.raises(ValueError) as excinfo:
            ascent_optimize(5, tolerance=tolerance)
        assert str(excinfo.value) == message
        assert work == []

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed -1 is not an unsigned 64-bit integer"),
            (2**64, "seed 18446744073709551616 is not an unsigned 64-bit integer"),
            (2.7, "seed 2.7 is not an unsigned 64-bit integer"),
            (True, "seed True is not an unsigned 64-bit integer"),
        ],
    )
    def test_seed_refused_before_any_work(self, monkeypatch, seed, message):
        work = self.no_work(monkeypatch)
        with pytest.raises(ValueError) as excinfo:
            ascent_optimize(5, seed=seed)
        assert str(excinfo.value) == message
        assert work == []

    def test_days_then_tolerance_then_seed(self, monkeypatch):
        work = self.no_work(monkeypatch)
        with pytest.raises(ValueError, match="number of days must be at least 1"):
            ascent_optimize(0, seed=-1, tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            ascent_optimize(5, seed=-1, tolerance=0.0)
        assert work == []

    def test_grid_default_is_two_lattice_steps(self):
        assert grid_search(2, GridSpec(8)).tolerance == 0.25


class TestSimplexDraw:
    def test_all_zero_draw_falls_back_to_uniform(self):
        class Zeros:
            def doubles(self, n):
                return np.zeros(n)

        assert oracles_mod._simplex_draw(Zeros(), 4).tolist() == [0.25] * 4
