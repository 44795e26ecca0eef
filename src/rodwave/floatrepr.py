"""repr() of whole float64 arrays, byte for byte, in numpy integer arithmetic.

`repr_words(v)` turns each finite value of a float64 array into four uint64
words whose bytes (little-endian), with the NUL bytes removed, spell
`repr(float(x))` as CPython writes it when `sys.float_repr_style == "short"`.
The top byte of each value's last word is left NUL, for a separator.

Digits.  `repr` prints the shortest decimal that reads back as the same double
and, of several, the one closest to it.  Schubfach finds that decimal exactly
in 64-bit integer arithmetic (R. Giulietti, "The Schubfach way to render
doubles", 2020; its correctness argument is the one of U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018).  For `x = c 2^q` it takes
`k = floor(log10 2^q)` (of `3/4 2^q` where the lower neighbour is closer),
scales `4c - 2`, `4c` and `4c + 2` (the rounding interval and `x`, shifted by
`h = q + floor(log2 10^-k) + 1`) by `g = floor(10^-k 2^(127 - floor(log2
10^-k))) + 1` from a 617-entry table of 128-bit values, and keeps the top 64
bits of each 192-bit product, rounded to odd.  Of the decimals `s` and `s + 1`
at `10^k`, and of their multiples of ten, it picks the shorter one inside the
interval, or the closer one.  The products run on 32-bit limbs in uint64,
one 32-bit column at a time for all three scalings, with one carry: each
column's limb products are made when it is summed, and columns 2-3 are
folded into the sticky bit and 4-5 into the result as each is done.  So the
block's scratch peaks at about 105 bytes a value in the digits and 112 in
all of `repr_words`.

Layout.  The digits `N` (the significand, or the whole integer part where
fixed notation appends zeros) fill 24 bytes right-aligned as ASCII, 8 digits a
word by SWAR arithmetic.  Table masks, indexed by the printed width and by the
number of digits after the point, NUL the leading zeros and shift the part
left of the point down one byte to make room for `.`; a `-` goes in byte 0.
The fourth word holds the `0` of `.0`, or the exponent `e±XX[X]`, with the
rules of the 'r' format: fixed notation for `-4 < decpt <= 16` and exponent
notation with at least two exponent digits otherwise.

Every step runs on whole arrays, with no index subsets of the values that
need it.  Such subsets are mostly empty or tiny, and numpy keeps the buffers
of small arrays for reuse: made while a block's temporaries fill the heap,
they split its free space for the rest of the process.  With subsets, the
perfbench `impedance-spectrum` workload's peak RSS rose by about 15 MB on
some seeds.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import constant

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_E8 = _U(10**8)
_POW10 = constant([10**i for i in range(18)], np.uint64)
_ASCII0 = _U(0x3030303030303030)
_NODOT = 24  # value of `after` that inserts no point


def _words(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Built at first use: the limbs of g, (4, 617) by 292 - k; the masks of
    the digit field by 25 width + after, (3, 625) to keep in place and (3, 625)
    to keep shifted down one byte; the point and the `0` of `.0`, (4, 625);
    and the exponent suffixes, (633,) by decpt + 323."""
    g = []
    for e in range(-292, 325):
        if e >= 0:
            p = 10**e
            shift = 127 - (p.bit_length() - 1)
            g.append((p << shift if shift >= 0 else p >> -shift) + 1)
        else:
            x = 10**-e
            g.append((1 << (127 + x.bit_length())) // x + 1)
    limbs = np.array([[v >> (32 * i) & 0xFFFFFFFF for v in g] for i in range(4)], np.uint64)

    # by 25 width + after: the width digits end at byte 24; the `after` digits
    # after the point stay, the rest move down one byte, the point goes between
    width, after = np.divmod(np.arange(625)[:, None], 25)
    at = np.arange(32)
    point = after != _NODOT
    stay = (at >= 24 - np.where(point, after, width)) & (at < 24)
    moved = point & (at >= 23 - width) & (at < 23 - after)
    marks = np.where(point & (at == 23 - after), np.uint8(ord(".")), np.uint8(0))
    marks[:, 24] = np.where(after[:, 0] == 0, ord("0"), 0)  # the 0 of .0

    def words(data: np.ndarray) -> np.ndarray:
        return _words(data.tobytes()).reshape(625, 4).T.copy()

    full = np.uint8(0xFF)
    keep, shifted, dots = words(stay * full)[:3], words(moved * full)[:3], words(marks)
    exps = _words(b"".join(
        f"e{d - 1:+03d}".encode().ljust(8, b"\0") if not -4 < d <= 16 else bytes(8)
        for d in range(-323, 310)
    ))
    for table in (limbs, keep, shifted, dots, exps):
        table.setflags(write=False)
    return limbs, keep, shifted, dots, exps


def _scaled(row: np.ndarray, c: np.ndarray, lc: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Schubfach's (vbl, vb, vbr), (3, n): the top 64 bits, rounded to odd, of
    g cp for cp = (4c - 2 + lc, 4c, 4c + 2) << h, with g the table's 128 bits
    at row and h (uint8) at most 4.

    The 192-bit products are six 32-bit columns, summed and carried one at a
    time for all three: the products of each 32-bit limb of g with the two
    halves of 4c << h, and for vbl and vbr the limb times (lc - 2) << h or
    2 << h.  Columns 2 and 3 only decide the sticky bit, 4 and 5 are the
    result."""
    limbs = _tables()[0]
    cb = c << (h + 2)
    halves = np.stack((cb & _M32, cb >> _U(32))).astype(np.uint32)
    del cb
    # vbl's and vbr's cp less 4c << h
    offsets = (np.stack((lc - 2, np.full_like(h, 2))) << h).astype(np.int8)
    col = np.zeros((3, c.size), np.int64)  # the carry into a column, then the column
    ahead = np.zeros((2, c.size), np.int64)  # what is due in the next two columns
    for j in range(5):
        if j < 4:
            g = np.take(limbs[j], row)
            col[::2] += offsets * g.view(np.int64)
            p = g * halves
            del g
            low = (p & _M32).view(np.int64)
            p >>= _U(32)
            high = p.view(np.int64)
            low[0] += ahead[0]
            col += low[0]
            low[1] += ahead[1]
            np.add(low[1], high[0], out=ahead[0])
            ahead[1] = high[1]
            del p, low, high
        else:
            col += ahead[0]
        if j == 2:
            sticky = (col & 0xFFFFFFFF) > 1
        elif j == 3:
            sticky |= (col & 0xFFFFFFFF) != 0
        elif j == 4:
            top = col & 0xFFFFFFFF
        col >>= 32
    col += ahead[1]
    col <<= 32
    top |= col
    top |= sticky
    return top.view(np.uint64)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e10) of the shortest round-trip decimal d 10^e10 of each positive
    finite double given by its bits, with no trailing zeros in d.  Each
    temporary is dropped after its last use, so the peak is in _scaled."""
    t = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)).astype(np.int64)
    c = t | (biased > 0).astype(np.uint64) << _U(52)
    lc = (t == 0) & (biased > 1)
    del t
    q = np.maximum(biased, 1) - 1075
    del biased
    k = (q * 1262611 - 524031 * lc) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint8)
    del q
    row = 292 - k
    del k
    vbl, vb, vbr = _scaled(row, c, lc, h)
    del h, lc
    odd = c & _U(1)
    del c
    lower, upper = vbl + odd, vbr - odd
    del vbl, vbr, odd
    # one digit shorter: sp or sp + 1 at 10^(k+1), where exactly one is inside
    sp = vb // _U(40)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    shorter = (sp > 0) & (up_in != wp_in)
    del up_in
    # else s or s + 1 at 10^k: the one inside, or the closer (ties to even)
    s4 = vb & ~_U(3)
    w_in = s4 + _U(4) <= upper
    del upper
    closer_up = (vb & _U(3)) + (vb >> _U(2) & _U(1)) > _U(2)
    up = w_in & ((lower > s4) | closer_up)
    del lower, s4, w_in, closer_up
    d = np.where(shorter, sp + wp_in, (vb >> _U(2)) + up)
    del sp, wp_in, vb, up
    e10 = 292 - row + shorter
    del row, shorter
    for p in (16, 8, 4, 2, 1):
        cut = d // _POW10[p]
        zeros = cut * _POW10[p] == d
        d = np.where(zeros, cut, d)
        e10 += zeros * p
    return d, e10


def _swar8(x: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each x < 10^8, first digit in the low byte."""
    hi = x // _U(10000)
    v = hi | (x - hi * _U(10000)) << _U(32)
    hi = (v * _U(10486)) >> _U(20) & _U(0x0000007F0000007F)
    v = hi | (v - hi * _U(100)) << _U(16)
    hi = (v * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    return (hi | (v - hi * _U(10)) << _U(8)) + _ASCII0


def repr_words(v: np.ndarray) -> np.ndarray:
    """(4, v.size) uint64 words, a column for each value of the flattened
    finite float64 array v: its bytes, NULs removed, are the value's repr.
    Byte 7 of word 3 is NUL."""
    _, keep, shifted, dots, exps = _tables()
    bits = np.ascontiguousarray(v, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitude = bits & _U((1 << 63) - 1)
    zero = magnitude == 0
    magnitude |= zero  # any positive double; its digits are replaced by 0
    d, e10 = _shortest(magnitude)
    del magnitude
    d = np.where(zero, _U(0), d)
    e10 = np.where(zero, 0, e10)
    del zero
    n = np.searchsorted(_POW10[1:], d, side="right") + 1
    decpt = n + e10
    del e10
    out = np.empty((4, d.size), np.uint64)
    out[3] = np.take(exps, decpt + 323)
    fixed = out[3] == 0  # the exponent table's rule: no exponent, fixed notation
    # fixed notation past the last digit prints the zeros up to the point
    d = d * np.take(_POW10, np.where(fixed & (decpt > n), decpt - n, 0))
    width = np.where(fixed, np.maximum(np.maximum(n, decpt), n - decpt + 1), n)
    after = np.where(fixed, np.maximum(n - decpt, 0), np.where(n > 1, n - 1, _NODOT))
    del n, decpt, fixed
    sel = width * 25 + after
    del width, after
    top = d // _E8
    head = top // _E8
    out[0] = head << _U(56) | _ASCII0
    out[1] = top - head * _E8
    out[2] = d - top * _E8
    del d, top, head
    digits = out[:3]
    digits[1:] = _swar8(digits[1:])
    moved = digits >> _U(8)
    moved[:2] |= digits[1:] << _U(56)
    moved &= np.take(shifted, sel, axis=1)
    digits &= np.take(keep, sel, axis=1)
    digits |= moved
    del moved
    out |= np.take(dots, sel, axis=1)
    out[0] |= (bits >> _U(63)) * _U(ord("-"))
    return out
