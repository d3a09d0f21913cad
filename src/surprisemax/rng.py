"""Deterministic pseudorandom numbers for the sampler and the ascent oracle.

The generator is SplitMix64.  It is small enough to restate completely, which
is the point: any implementation in any language can reproduce the exact
sample streams from the algorithm below plus the test vectors shipped in the
test suite.

State: one unsigned 64-bit integer, initialized to the seed.

Each call to ``next_u64`` does, with all arithmetic modulo 2**64:

    state = state + 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

``next_double`` maps an output word to [0, 1) by taking the top 53 bits:
``(next_u64() >> 11) * 2.0**-53``.

Seeding is splittable by construction: the state sequence is an arithmetic
progression, so derived streams (seed + i for stream i) never collide with
each other in fewer than 2**64 steps.

First outputs for seed 0, for cross-checking a reimplementation:

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F
"""

from __future__ import annotations

import numpy as np

from .objective import _check_integer

__all__ = ["SplitMix64"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0**-53


def _check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an ``int``; anything but an unsigned 64-bit integer raises."""
    message = name + " {} is not an unsigned 64-bit integer"
    if not 0 <= _check_integer(seed, message) <= _MASK64:
        raise ValueError(message.format(seed))
    return int(seed)


class SplitMix64:
    """SplitMix64 generator with scalar and vectorized output paths."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = _check_seed(seed)

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform draw in [0, 1) using the top 53 output bits."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def doubles(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``next_double`` as one vectorized batch.

        The state sequence is an arithmetic progression, so the batch is
        computed in closed form and then the state is advanced by ``n``
        steps.  Bit-identical to ``n`` scalar calls.
        """
        n = _check_integer(n, "batch size must be an integer, got {!r}")
        if n < 0:
            raise ValueError(f"batch size {n} is negative")
        # In place on one uint64 work array; the float64 output doubles as
        # the scratch array for the shifted words until the last step.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_INCREMENT)
        z += np.uint64(self._state)
        out = np.empty(n)
        shifted = out.view(np.uint64)
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        z >>= np.uint64(11)
        self._state = (self._state + n * _INCREMENT) & _MASK64
        # the words are below 2**53, so read as int64 they convert exactly, and
        # NumPy converts int64 faster than uint64
        return np.multiply(z.view(np.int64), _DOUBLE_SCALE, out=out)
