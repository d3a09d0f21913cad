"""Shortest round-trip text of a run of float64 values, as array operations.

``entries(values)`` gives the text of each of a 1-D run of finite float64
values in a fixed-width row of bytes, zero where the entry has no
character, and makes no Python call per entry: ``format_float`` of the
entry (``repr`` without a trailing ``.0``, see :mod:`.cli`) once the zeros
are dropped.  ``integers(first, last)`` gives rows of decimal digits the
same way.  Callers lay the rows out among other fields and drop the zeros
of a whole run at once (``cli._laid_out``).

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal inside the value's rounding interval,
and of two that short the one closer to the value, ties to an even last
digit, which is what ``repr`` prints.  All of it is fixed-width integer
arithmetic, done here on ``uint64`` arrays: the significand times a 126-bit
power of ten from a table built once, as 64x64-bit products pieced together
from 32-bit halves.  Java's ``Double.toString`` keeps at least two digits;
here one is enough, as in ``repr`` (``8e-323``, not ``7.9e-323``).

The text of each entry is laid out in a row of 13 words of 4 bytes.  The
layout follows ``repr``: the exponent form when the decimal point would sit
more than 4 places left of the first digit or more than 16 right of it, at
least two exponent digits, and whole numbers bare (``1``, not ``1.0``), as
``format_float`` prints them.

Every ``uint64`` operand is a ``np.uint64``: NumPy 1.x turns a ``uint64``
array mixed with a signed integer into float64, which drops bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["entries", "integers"]

_U = np.uint64
_MASK32 = _U(0xFFFF_FFFF)
_MASK63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_C_MIN = _U(1 << 52)
_K_MIN, _K_MAX = -324, 292


def _powers_of_ten():
    """``floor(log2 10^-k)`` and ``g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1``,
    a 126-bit number, for every decimal exponent ``k`` a double needs."""
    logs, gs = [], []
    for e in range(-_K_MIN, -1, -1):
        power = 10**e
        bits = power.bit_length()
        logs.append(bits - 1)
        gs.append((power << 126 >> bits) + 1)
    power = 1
    for _ in range(_K_MAX):
        power *= 10
        bits = power.bit_length()
        logs.append(-bits)
        gs.append((1 << (125 + bits)) // power + 1)
    # g = g1 2^63 + g0, and each of those as 32-bit halves
    g1, g0 = np.array([(g >> 63, g & ((1 << 63) - 1)) for g in gs], dtype=np.uint64).T
    return np.array(logs), g1, (g1 & _MASK32, g1 >> _U(32)), (g0 & _MASK32, g0 >> _U(32))


_LOG2, _G1, _G1_HALVES, _G0_HALVES = _powers_of_ten()

# the ASCII digits of 0000..9999, four bytes to an entry
_DIGITS4 = np.empty((10_000, 4), dtype=np.uint8)
for _i, _place in enumerate((1000, 100, 10, 1)):
    _DIGITS4[:, _i] = np.arange(10_000, dtype=np.uint16) // _place % 10 + ord("0")
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)

_ROW_BYTES = 52


def _layouts():
    """The row of each layout, with 0 in the bytes it drops and 0xFF where a
    digit or the exponent's sign goes.

    A row is 13 words of 4 bytes: ``-0.0``, ``00``, an unused byte and the
    lead digit, its 16 other digits in 4 words, two unused bytes, ``.``, the
    17 digits again, two unused bytes, ``e``, the exponent's sign and the
    exponent as 4 digits.  Digits before the decimal point come from the
    first copy, those after it from the second, and 4 digits at a time from
    ``_DIGITS4``.  The layout of an entry is
    ``(sign * 22 + form) * 17 + digits - 1``, where the form is 3 plus the
    place of the decimal point after the first digit, from -3 to 16, or 20
    for an exponent of 2 digits and 21 for one of 3.
    """
    sign, form, digits = (a.ravel() for a in np.indices((2, 22, 17)))
    digits += 1
    point = form - 3
    exponent = form >= 20
    whole = np.where(exponent, 1, np.maximum(point, 0))
    fraction = ~exponent & (point <= 0)
    column = np.arange(17)
    rows = np.zeros((sign.size, _ROW_BYTES), dtype=np.uint8)
    rows[:, 0] = sign * ord("-")
    rows[:, 1:3] = fraction[:, None] * np.frombuffer(b"0.", dtype=np.uint8)
    rows[:, 3:6] = (fraction[:, None] & (np.arange(3) < -point[:, None])) * ord("0")
    rows[:, 7:24] = (column < whole[:, None]) * 0xFF
    rows[:, 26] = ((whole > 0) & (digits > whole)) * ord(".")
    rows[:, 27:44] = ((column >= whole[:, None]) & (column < digits[:, None])) * 0xFF
    rows[:, 46] = exponent * ord("e")
    rows[:, 47] = exponent * 0xFF
    rows[:, 49] = (form == 21) * 0xFF
    rows[:, 50:52] = exponent[:, None] * 0xFF
    return rows


_LAYOUTS = _layouts()


def _mul_high(a, b_lo, b_hi):
    """The high 64 bits of the 128-bit products ``a * b``, both as 32-bit halves."""
    a_lo, a_hi = a
    cross, other, low = a_lo * b_hi, a_hi * b_lo, a_lo * b_lo
    low >>= _U(32)
    low += cross & _MASK32
    low += other & _MASK32
    low >>= _U(32)
    cross >>= _U(32)
    other >>= _U(32)
    high = a_hi * b_hi
    high += cross
    high += other
    high += low
    return high


def _scaled(g, cp: np.ndarray) -> np.ndarray:
    """``g cp / 2^127`` for each entry's ``g = (g1, g1 halves, g0 halves)``,
    rounded to odd: the floor, with the lowest bit set if anything was cut off."""
    g1, g1_halves, g0_halves = g
    b_lo, b_hi = cp & _MASK32, cp >> _U(32)
    z = g1 * cp
    z >>= _U(1)
    z += _mul_high(g0_halves, b_lo, b_hi)
    v = _mul_high(g1_halves, b_lo, b_hi)
    v += z >> _U(63)
    z &= _MASK63
    z += _MASK63
    z >>= _U(63)
    v |= z
    return v


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``d`` and exponent ``k`` of the finite nonzero magnitudes
    ``bits``, as ``d 10^k``."""
    biased = (bits >> _U(52)).astype(np.int64)
    fraction = bits & _U((1 << 52) - 1)
    c = np.where(biased, fraction | _C_MIN, fraction)
    q = np.where(biased, biased - 1075, -1074)
    # at a power of two above the least normal, the gap below is half the gap above
    irregular = (fraction == _U(0)) & (biased > 1)
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) at the irregular points
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    row = k - _K_MIN
    h = (q + _LOG2.take(row) + 2).astype(np.uint64)
    g = (_G1.take(row), [a.take(row) for a in _G1_HALVES], [a.take(row) for a in _G0_HALVES])
    # 4 times the value and the ends of its rounding interval, over 10^k;
    # the ends count only if rounding to even takes them to c
    cb = c << _U(2)
    odd = c & _U(1)
    vb = _scaled(g, cb << h)
    vbl = _scaled(g, (cb - _U(2) + irregular) << h) + odd
    vbr = _scaled(g, (cb + _U(2)) << h) - odd
    s = vb >> _U(2)

    # one digit shorter, if exactly one multiple of 10 lies in the interval
    tens = s // _U(10)
    down_in = vbl <= tens * _U(40)
    up_in = tens * _U(40) + _U(40) <= vbr
    shorter = (s >= _U(10)) & (down_in != up_in)
    # else s or s + 1, whichever is inside, or if both, the closer one
    s_in = vbl <= s << _U(2)
    t_in = (s + _U(1)) << _U(2) <= vbr
    middle = (s << _U(2)) + _U(2)
    closer_s = (vb < middle) | ((vb == middle) & (s & _U(1) == _U(0)))
    take_t = np.where(s_in == t_in, ~closer_s, t_in)
    d = np.where(shorter, tens + up_in, s + take_t)
    k += shorter
    return d, k


def integers(first: int, last: int) -> np.ndarray:
    """The integers ``first..last`` (``1 <= first <= last``) in decimal, in
    rows of ``len(str(last))`` bytes, right-aligned, zero before the digits."""
    numbers = np.arange(first, last + 1, dtype=np.int64)
    width = len(str(last))
    words = -(-width // 4)
    fours = np.empty((numbers.size, words), dtype=np.uint32)
    for word in range(words):
        fours[:, words - 1 - word] = _DIGITS4.take(numbers // 10 ** (4 * word) % 10_000)
    rows = fours.view(np.uint8)[:, 4 * words - width :]
    # the numbers ascend: those below 10^place, a first run of them, have
    # no digit in the column of 10^place
    for column in range(width - 1):
        rows[: max(0, 10 ** (width - 1 - column) - first), column] = 0
    return rows


def entries(values: np.ndarray) -> np.ndarray:
    """The text of each of the finite float64 ``values`` in a row of 52
    bytes, zero where it has no character."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    bits = values.view(np.uint64) & _MASK63
    zero = bits == _U(0)
    d, k = _shortest(np.where(zero, _U(1), bits))
    d[zero] = 0
    k[zero] = 0
    # without trailing zeros
    tens = np.flatnonzero((d % _U(10) == _U(0)) & ~zero)
    while tens.size:
        d[tens] //= _U(10)
        k[tens] += 1
        tens = tens[d[tens] % _U(10) == _U(0)]
    # d is below 10^17: as the 17-digit integer d 10^(17 - digits), a lead
    # digit and four groups of four
    digits = np.maximum(np.searchsorted(_POW10, d, side="right"), 1)
    padded = d * _POW10.take(17 - digits)
    lead = padded // _U(10**16)
    rest = padded - lead * _U(10**16)
    eights = ((rest // _U(10**8)).astype(np.uint32), (rest % _U(10**8)).astype(np.uint32))
    fours = [_DIGITS4.take(part) for e in eights for part in (e // np.uint32(10**4), e % np.uint32(10**4))]
    lead = lead.astype(np.uint8)
    lead += ord("0")

    point = digits + k
    exponent = np.abs(point - 1)
    form = np.where((point <= -4) | (point > 16), 20 + (exponent >= 100), point + 3)
    layout = (np.signbit(values) * 22 + form) * 17 + digits - 1
    rows = np.empty((n, _ROW_BYTES), dtype=np.uint8)
    np.take(_LAYOUTS, layout, axis=0, out=rows, mode="clip")
    words = rows.view(np.uint32)
    for first in (7, 27):
        rows[:, first] &= lead
        for word, four in enumerate(fours, first // 4 + 1):
            words[:, word] &= four
    rows[:, 47] &= np.where(point < 1, ord("-"), ord("+")).astype(np.uint8)
    words[:, 12] &= _DIGITS4.take(exponent)
    return rows
