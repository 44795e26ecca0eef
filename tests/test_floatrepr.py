"""floatrepr.repr_words spells repr(float) byte for byte: on a seeded corpus
of random bit patterns and the cases where shortest-digit algorithms go
wrong, and on hypothesis' floats."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave.floatrepr import repr_words

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
