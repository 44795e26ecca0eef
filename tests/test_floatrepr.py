"""floatrepr.repr_words spells repr(float) byte for byte: on a seeded corpus
of random bit patterns and the cases where shortest-digit algorithms go
wrong, and on hypothesis' floats."""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave.floatrepr import _scaled, repr_words

CHUNK = 1 << 16  # values per repr_words call, to bound the temporaries


def _text(values: np.ndarray) -> str:
    """The values' reprs, one a line, through repr_words."""
    out = []
    for lo in range(0, values.size, CHUNK):
        words = repr_words(values[lo:lo + CHUNK])
        words[3] |= np.uint64(ord("\n")) << np.uint64(56)
        data = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
        out.append(data[data != 0].tobytes().decode("ascii"))
    return "".join(out)


def _assert_repr(values: np.ndarray) -> None:
    floats = values.tolist()
    got, want = _text(values), "\n".join(map(repr, floats)) + "\n"
    if got != want:
        bad = next((x, a) for x, a in zip(floats, got.splitlines()) if a != repr(x))
        raise AssertionError(f"repr_words of {bad[0]!r} ({bad[0].hex()}) spells {bad[1]!r}")


def test_the_style_reproduced_is_this_interpreters():
    assert sys.float_repr_style == "short"


def test_corpus_is_repr_byte_for_byte():
    rng = np.random.default_rng(20201231)
    bits = rng.integers(0, 2**64 - 1, size=1 << 21, dtype=np.uint64, endpoint=True)
    random = bits.view(np.float64)
    random = random[np.isfinite(random)]
    assert random.size >= 2_000_000
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = [
        x
        for p in (powers_of_two, powers_of_ten)
        for x in (p, np.nextafter(p, np.inf), np.nextafter(p, 0.0))
    ]
    subnormals = rng.integers(1, 2**52, size=200_000, dtype=np.uint64).view(np.float64)
    whole = rng.integers(-(2**62), 2**62, size=100_000).astype(np.float64)
    short = rng.integers(1, 10**6, size=100_000) / 10.0 ** rng.integers(0, 25, size=100_000)
    named = np.array([
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 0.0001,
        123456789012345678.0, 9007199254740993.0, 1e15, 1e22, 1e23, 0.1, 0.3, 1.0, 2.5e9,
    ])
    structured = np.concatenate(edges + [subnormals, whole, short, named])
    _assert_repr(np.concatenate([random, structured, -structured]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_any_finite_floats_are_repr(values):
    _assert_repr(np.array(values, dtype=np.float64))


def _g(row: int) -> int:
    """Schubfach's g at 10^-k, k = 292 - row: floor(10^-k 2^(127 - floor(log2
    10^-k))) + 1, in exact rationals."""
    x = Fraction(10) ** (row - 292)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1
    return math.floor(x * Fraction(2) ** (127 - e)) + 1


def test_scaled_is_the_top_of_g_cp_rounded_to_odd():
    rng = np.random.default_rng(192)
    size = 6 * 617
    row = np.tile(np.arange(617), 6)  # every decimal exponent of the table
    c = np.concatenate([
        rng.integers(1 << 52, 1 << 53, size=3 * 617, dtype=np.uint64),  # normal
        rng.integers(1, 1 << 52, size=617, dtype=np.uint64),  # subnormal
        np.full(617, 1 << 52, np.uint64),  # a power of two: the closer lower neighbour
        np.resize(np.array([1, 2, (1 << 53) - 1, (1 << 52) + 1], np.uint64), 617),
    ])
    lc = np.zeros(size, bool)
    lc[4 * 617:5 * 617] = True
    h = rng.integers(1, 5, size=size).astype(np.uint8)
    h[::3] = 4  # the largest shift
    got = _scaled(row, c, lc, h)
    assert got.shape == (3, size) and got.dtype == np.uint64
    g = [_g(r) for r in range(617)]
    for i in range(size):
        cb = int(c[i]) << 2
        for variant, cp in enumerate((cb - 2 + int(lc[i]), cb, cb + 2)):
            product = g[row[i]] * (cp << int(h[i]))
            sticky = (product >> 64) & (2**64 - 1) > 1
            want = (product >> 128) | sticky
            assert int(got[variant, i]) == want, (variant, int(row[i]), int(c[i]), int(h[i]))
