"""SplitMix64 against its published test vectors and its own scalar path."""

import numpy as np
import pytest

from surprisemax import SplitMix64

# Reference outputs of the standard SplitMix64 algorithm.  The seed-0 values
# match the widely circulated vectors for the original C code, so any
# reimplementation in another language can be checked against the same list.
VECTORS = {
    0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ],
    1: [
        0x910A2DEC89025CC1,
        0xBEEB8DA1658EEC67,
        0xF893A2EEFB32555E,
        0x71C18690EE42C90B,
        0x71BB54D8D101B5B9,
    ],
    42: [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
        0x581CE1FF0E4AE394,
        0x09BC585A244823F2,
    ],
    2**64 - 1: [
        0xE4D971771B652C20,
        0xE99FF867DBF682C9,
        0x382FF84CB27281E9,
        0x6D1DB36CCBA982D2,
        0xB4A0472E578069AE,
    ],
}

# First doubles for seed 0, derived from the vectors above by the documented
# conversion (top 53 bits over 2**53).
DOUBLES_SEED0 = [
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
]


class TestVectors:
    @pytest.mark.parametrize("seed", sorted(VECTORS))
    def test_u64_stream(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(5)] == VECTORS[seed]

    def test_doubles_seed0(self):
        rng = SplitMix64(0)
        got = [rng.next_double() for _ in range(4)]
        assert got == DOUBLES_SEED0


class TestDoubleBatch:
    def test_matches_scalar_exactly(self):
        scalar = SplitMix64(123)
        expected = np.array([scalar.next_double() for _ in range(1000)])
        batch = SplitMix64(123).doubles(1000)
        assert np.array_equal(batch, expected)

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_matches_scalar_across_state_wrap(self, seed, n):
        # the first step (or the second) wraps the state past 2**64
        scalar = SplitMix64(seed)
        expected = np.array([scalar.next_double() for _ in range(n)])
        batch_rng = SplitMix64(seed)
        batch = batch_rng.doubles(n)
        assert batch.dtype == np.float64
        assert np.array_equal(batch, expected)
        assert batch_rng.state == scalar.state

    def test_state_advances_like_scalar(self):
        a = SplitMix64(7)
        a.doubles(5)
        b = SplitMix64(7)
        for _ in range(5):
            b.next_u64()
        assert a.next_u64() == b.next_u64()

    def test_empty_batch(self):
        rng = SplitMix64(3)
        before = rng.state
        assert rng.doubles(0).size == 0
        assert rng.state == before

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_batch_size_not_an_integer(self, n):
        rng = SplitMix64(3)
        with pytest.raises(ValueError, match="batch size must be an integer"):
            rng.doubles(n)
        assert rng.state == 3

    def test_numpy_integer_batch_size(self):
        assert np.array_equal(SplitMix64(3).doubles(np.int64(4)), SplitMix64(3).doubles(4))

    def test_split_batches_match_one_batch(self):
        one = SplitMix64(99).doubles(100)
        rng = SplitMix64(99)
        two = np.concatenate([rng.doubles(37), rng.doubles(63)])
        assert np.array_equal(one, two)


class TestDistribution:
    def test_unit_interval(self):
        u = SplitMix64(2024).doubles(100_000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    def test_mean_near_half(self):
        u = SplitMix64(5).doubles(100_000)
        # 4 sigma band for a mean of Uniform(0,1) draws
        assert abs(float(u.mean()) - 0.5) < 4.0 / np.sqrt(12.0 * u.size)

    def test_seeds_decorrelate(self):
        a = SplitMix64(0).doubles(100)
        b = SplitMix64(1).doubles(100)
        assert not np.array_equal(a, b)


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2.7, True])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            SplitMix64(seed)

    def test_negative_batch(self):
        with pytest.raises(ValueError, match="negative"):
            SplitMix64(0).doubles(-1)
