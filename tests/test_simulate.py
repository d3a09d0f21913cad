"""Monte Carlo sampler: exact reproducibility and statistical agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surprisemax import (
    SimulationConfig,
    SimulationResult,
    SplitMix64,
    estimate_expected_surprise,
    eval_sm2,
    realized_surprise,
    rollout,
    sample_day,
    tail_masses,
)
from surprisemax import simulate as simulate_mod
from surprisemax.objective import _tree_sum
from surprisemax.simulate import _day_lookup


class TestSampleDay:
    def test_single_day(self):
        rng = SplitMix64(1)
        assert all(sample_day([1.0], rng) == 1 for _ in range(50))

    def test_deterministic_tail_mass(self):
        rng = SplitMix64(2)
        assert all(sample_day([0.0, 1.0], rng) == 2 for _ in range(50))

    def test_zero_probability_day_never_drawn(self):
        rng = SplitMix64(3)
        draws = {sample_day([0.5, 0.0, 0.5], rng) for _ in range(3000)}
        assert 2 not in draws
        assert draws == {1, 3}

    def test_same_seed_same_draws(self):
        p = rollout(5).p
        a = [sample_day(p, SplitMix64(77)) for _ in range(10)]
        b = [sample_day(p, SplitMix64(77)) for _ in range(10)]
        assert a == b

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="exceeds tolerance"):
            sample_day([0.5, 0.6], SplitMix64(0))


class TestEstimate:
    def test_point_mass_is_exactly_zero(self):
        result = estimate_expected_surprise([1.0], SimulationConfig(samples=1000, seed=4))
        assert result.mean == 0.0
        assert result.std_error == 0.0

    def test_point_mass_with_padding_days(self):
        p = [0.0, 0.0, 1.0]
        result = estimate_expected_surprise(p, SimulationConfig(samples=500, seed=5))
        assert result.mean == 0.0
        assert result.std_error == 0.0

    def test_single_sample_has_no_error_bar(self):
        result = estimate_expected_surprise([0.5, 0.5], SimulationConfig(samples=1, seed=6))
        assert result.std_error == 0.0

    def test_bit_identical_reruns(self):
        p = rollout(4).p
        config = SimulationConfig(samples=50_000, seed=42)
        a = estimate_expected_surprise(p, config)
        b = estimate_expected_surprise(p, config)
        assert isinstance(a, SimulationResult)
        assert a.mean == b.mean
        assert a.std_error == b.std_error
        assert (a.samples, a.seed) == (b.samples, b.seed)

    def test_matches_sequential_sampling_exactly(self):
        # the batched estimator must be the literal mean of one-at-a-time
        # draws from a fresh generator with the same seed
        p = rollout(3).p
        n = 4096
        rng = SplitMix64(9)
        values = np.array(
            [realized_surprise(p, sample_day(p, rng)) for _ in range(n)]
        )
        expected_mean = float(np.mean(values))
        expected_se = float(np.std(values, ddof=1) / math.sqrt(n))
        result = estimate_expected_surprise(p, SimulationConfig(samples=n, seed=9))
        assert result.mean == expected_mean
        assert result.std_error == expected_se

    def test_two_day_frequency(self):
        # mean surprise of a fifty-fifty schedule is freq(day 1) * log 2
        n = 1_000_000
        result = estimate_expected_surprise([0.5, 0.5], SimulationConfig(samples=n, seed=7))
        freq = result.mean / math.log(2.0)
        assert abs(freq - 0.5) <= 4.0 * 0.5 / math.sqrt(n)

    def test_mean_close_to_analytic_optimum(self):
        res = rollout(2)
        sim = estimate_expected_surprise(res.p, SimulationConfig(samples=1_000_000, seed=42))
        analytic = res.gamma[0] - 1.0
        assert abs(sim.mean - analytic) <= 4.0 * sim.std_error

    def test_mean_close_to_score_for_random_schedules(self):
        rng = np.random.default_rng(43)
        for m in (2, 4, 9):
            p = rng.dirichlet(np.ones(m))
            sim = estimate_expected_surprise(p, SimulationConfig(samples=200_000, seed=11))
            assert abs(sim.mean - (-eval_sm2(p))) <= 4.0 * sim.std_error + 1e-12

    def test_nonnegative_mean(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            p = rng.dirichlet(np.ones(6))
            sim = estimate_expected_surprise(p, SimulationConfig(samples=1000, seed=12))
            assert sim.mean >= 0.0

    def test_echoes_inputs(self):
        result = estimate_expected_surprise([0.5, 0.5], SimulationConfig(samples=10, seed=13))
        assert result.samples == 10
        assert result.seed == 13


class TestConfigValidation:
    def test_zero_samples(self):
        with pytest.raises(ValueError, match="at least 1"):
            SimulationConfig(samples=0, seed=0)

    def test_non_integer_samples(self):
        with pytest.raises(ValueError, match="integer"):
            SimulationConfig(samples=2.5, seed=0)

    def test_sample_cap(self, monkeypatch):
        assert simulate_mod.SAMPLE_CAP == 10**9
        monkeypatch.setattr(simulate_mod, "SAMPLE_CAP", 50)
        assert SimulationConfig(samples=50, seed=0).samples == 50
        with pytest.raises(ValueError, match="sample count 51 is above the cap of 50"):
            SimulationConfig(samples=51, seed=0)

    def test_seed_out_of_range(self):
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=2**64)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=10, seed=2.7)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=True)


def searchsorted_days(cum, u, p):
    """0-based day of each key: binary search plus the last-day fallback."""
    idx = np.searchsorted(cum, u, side="right")
    return np.where(idx >= p.size, int(np.flatnonzero(p > 0.0)[-1]), idx)


def _tiny_plus_one(first):
    tiny = np.full(3000, 1e-13)
    big = [1.0 - tiny.sum()]
    return np.concatenate([big, tiny] if first else [tiny, big])


LOOKUP_SCHEDULES = {
    **{f"rollout-{m}": (lambda m=m: rollout(m).p) for m in (1, 2, 3, 50, 3000)},
    "zero-middle": lambda: np.array([0.5, 0.0, 0.5]),
    "point-last": lambda: np.array([0.0, 0.0, 1.0]),
    **{
        f"dirichlet-{m}": (lambda m=m: np.random.default_rng(m).dirichlet(np.full(m, 0.05)))
        for m in (5, 60, 1000)
    },
    # every cumulative edge in one bucket, at either end of [0, 1)
    "tiny-then-big": lambda: _tiny_plus_one(first=True),
    "big-then-tiny": lambda: _tiny_plus_one(first=False),
    # cumulative mass ends short of 1 on a trailing zero day
    "short-trailing-zero": lambda: np.array([0.25, 0.25, 0.5 - 1e-10, 0.0]),
}


def lookup_keys(cum, count=math.inf):
    """Bucket edges, every cumulative mass and its neighbours, both ends, random draws.

    The bucket edges are those of the table ``_day_lookup`` builds for
    ``count`` keys.
    """
    buckets = 1 << (min(cum.size, count) - 1).bit_length()
    keys = np.concatenate(
        [
            np.arange(buckets) / buckets,
            cum,
            np.nextafter(cum, -np.inf),
            np.nextafter(cum, np.inf),
            [0.0, 1.0 - 2.0**-53],
            SplitMix64(2024).doubles(100_000),
        ]
    )
    return keys[(keys >= 0.0) & (keys < 1.0)]


class TestDayLookup:
    """The sampler's day lookup is the binary search, bit for bit."""

    # the full table, named by its schedule, and the smaller tables built
    # for a few keys
    @pytest.mark.parametrize(
        "name, keys",
        [
            pytest.param(name, keys, id=name if keys == math.inf else f"{name}-{keys}-keys")
            for name in sorted(LOOKUP_SCHEDULES)
            for keys in (math.inf, 1, 3, 100)
        ],
    )
    def test_matches_searchsorted(self, name, keys):
        p = LOOKUP_SCHEDULES[name]()
        cum = np.cumsum(p)
        u = lookup_keys(cum, keys)
        got = _day_lookup(cum, p, keys)(u)
        assert np.array_equal(got, searchsorted_days(cum, u, p))

    def test_short_mass_falls_back_to_last_day_with_mass(self):
        p = LOOKUP_SCHEDULES["short-trailing-zero"]()
        assert _day_lookup(np.cumsum(p), p)(np.array([1.0 - 2.0**-53])).tolist() == [2]

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    def test_estimate_matches_searchsorted_reference(self, seed):
        p = rollout(3000).p
        n = 10**6
        cum = np.cumsum(p)
        idx = searchsorted_days(cum, SplitMix64(seed).doubles(n), p)
        per_day = np.array([math.log(t / q) for q, t in zip(p.tolist(), tail_masses(p).tolist())])
        values = per_day[idx]
        result = estimate_expected_surprise(p, SimulationConfig(samples=n, seed=seed))
        assert result.mean == float(np.mean(values))
        assert result.std_error == float(np.std(values, ddof=1) / math.sqrt(n))


def reference_estimate(p, n, seed):
    """``(mean, std_error)`` from the array of every draw's surprise, as NumPy reduces it."""
    idx = searchsorted_days(np.cumsum(p), SplitMix64(seed).doubles(n), p)
    tails = tail_masses(p).tolist()
    per_day = np.array([math.log(t / q) if q > 0.0 else 0.0 for q, t in zip(p.tolist(), tails)])
    values = per_day[idx]
    std_error = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), std_error


# under 8 draws, 8..128, just past 128, multiples of 8 and their
# neighbours, and many leaves of the small leaf sizes
LEAF_SAMPLES = [1, 2, 7, 8, 9, 100, 128, 129, 255, 256, 257, 1023, 1024, 1025, 4097, 65537]


class TestLeaves:
    """The sampler walks NumPy's pairwise-sum tree one leaf at a time."""

    @pytest.mark.parametrize("block", [8, 100, 129, 1 << 16])
    def test_leaf_size_changes_no_bit(self, monkeypatch, block):
        p = np.concatenate([[0.3, 0.0], 0.7 * rollout(40).p])
        def estimate(n):
            result = estimate_expected_surprise(p, SimulationConfig(samples=n, seed=n))
            return result.mean, result.std_error

        default = {n: estimate(n) for n in LEAF_SAMPLES}
        monkeypatch.setattr(simulate_mod, "_BLOCK", block)
        for n in LEAF_SAMPLES:
            assert estimate(n) == default[n] == reference_estimate(p, n, n), n

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5000), leaf=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
    def test_tree_walk_is_numpy_sum(self, n, leaf, seed):
        # entries over 30 binades, so a change of order shows in the bits
        x = np.exp2(np.random.default_rng(seed).uniform(-30.0, 0.0, n))
        runs = []

        def summed(lo, hi):
            runs.append((lo, hi))
            return float(np.add.reduce(x[lo:hi]))

        assert _tree_sum(n, summed, leaf) == float(np.add.reduce(x))
        # runs of at most the leaf (never splitting 128 or fewer), left to right
        assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
        assert runs[-1][1] == n
        assert max(hi - lo for lo, hi in runs) <= max(leaf, 128)


class TestMemory:
    """The draws are held as one compact day index each, not as float64 arrays."""

    @staticmethod
    def traced_peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_bounded_in_samples(self):
        p = rollout(3000).p

        def peak(n):
            config = SimulationConfig(samples=n, seed=1)
            return self.traced_peak(lambda: estimate_expected_surprise(p, config))

        small, large = peak(10**6), peak(4 * 10**6)
        # 2 B of uint16 day per draw, plus fixed leaf buffers
        assert small < 4.5e6
        assert large - small <= 2.5 * 3 * 10**6
