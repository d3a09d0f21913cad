"""Monte Carlo sampler: exact reproducibility and statistical agreement."""

import math

import numpy as np
import pytest

from surprisemax import (
    SimulationConfig,
    SimulationResult,
    SplitMix64,
    estimate_expected_surprise,
    eval_sm2,
    realized_surprise,
    rollout,
    sample_day,
)


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

    def test_seed_out_of_range(self):
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=2**64)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=10, seed=2.7)
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(samples=1, seed=True)
