"""Bloch eigen-analysis of the cell transfer matrix.

The transfer matrix of a lossless reciprocal cell has eigenvalues in
reciprocal pairs (lambda, 1/lambda), so its characteristic quartic is
palindromic and reduces through y = lambda + 1/lambda to a quadratic

    y^2 - su y + pr = 0,
    su = 2 cos kL + 2 cosh kL + (sigma/2)(sinh kL - sin kL),
    pr = 4 cos kL cosh kL + sigma (cos kL sinh kL - sin kL cosh kL).

Its roots are taken in the shifted variable z = y - 2, from z^2 - sz z + q =
0 with sz = su - 4 and q = 4 - 2 su + pr written without their cancellation
near y = 2 (_z_parts), stably: the root without cancellation from the
quadratic formula, the other one as q / root.  Each root gives a reciprocal
pair of Bloch factors, carried with their offsets from the anchor a nearer
them, a = -1 where Re y < 0 and a = +1 elsewhere: lambda - a = (v +- sqrt(v
(v + 4a)))/2 with v = y - 2a, the root in z, or in x = y + 2 from the same
quadratic about y = -2 (_z_closed), so neither a small kL nor a factor near
-1 loses a digit.  The anchors travel as the mask of the roots anchored at
-1 and its count, counted once per run of the stage: a step for those roots
alone runs behind the count, v is written into the array of the x roots,
and no complex anchor array is built.  The transmitted pair is
the least attenuated one: the pair whose |lambda| <= 1 member has the larger
modulus (Mead, J. Sound Vib. 27(2), 1973).  Its factor with |lambda| <= 1
gives the transmission T = |lambda| per cell and the effective wavevector
k_ef = ln(lambda)/(iL); a point is in a stopband when no factor lies on the
unit circle, which the signs of the roots decide, with no tolerance (_pairs).
In a passband the direction is fixed by limiting absorption:
the transmitted factor is the member of the unit-modulus pair whose modulus
shrinks under omega -> omega (1 + i eps), eps -> 0+.  To first order that is
the member with Im(lambda) dy/domega < 0, and dy/domega follows from the
quadratic in real arithmetic: y' = (y su' - pr') / (y - y_other).

The cell matrix is T = diag(p) + (sigma/4) u w^T, with p = (e^{-ikL}, e^{kL},
e^{ikL}, e^{-kL}), w the same at kL/2 and u = w * (-i, 1, i, -1).  A Bloch
factor lambda has the eigenvector (lambda - p)^-1 u.  Every use of it reads
one table, lambda - p = (lambda - a) - (p - a) of the factors' offsets and p
- a (_offset_table), never lambda itself: the reflection Gamma of a
semi-infinite chain, a closed form by Cramer's rule on two eigenvectors; the
eigen-check, the secular function on the table; and a finite chain of n
cells, driven by a unit propagating wave at boundary 0 and matched after the
last cell, a sum over the four Bloch modes, each referenced at the end it
decays from, whose coefficients one 4x4 solve gives.

Every entry point evaluates the pipeline in two parts: a cell-dependent
front (``_front``: k, the clamped sigma, L, and s0 and the rod phase for
omega dsigma/domega) and one cell-free Bloch stage that reads only the
front, run as far as a result needs: roots and stopband test (``_pairs``),
passband direction (``_transmitted``, the one user of omega dsigma/domega),
``_reflection`` and the table's columns (``_columns``).  Gamma and the finite
chain are refused below KL_FLOOR.  A sweep runs them
over a 1-D array of frequencies, a one-point call (``bloch_point``,
``semi_infinite_reflection``, ``chain_profile``) over the numpy float64
scalar of ``errors.frequency_row``, through the same functions: the front's
per-point values are then numpy scalars, and only the pair axis (2) and the
component axis (4) stay arrays, which every step indexes from the end
(``...``).  numpy's scalar math gives the bits of the array loops for real
+ - * /, complex / and any ufunc call, but not for ``**`` (libm pow), a
complex scalar product or builtin abs() of a complex scalar; so the stage
squares as products, keeps complex products on the pair and component
arrays, and takes np.abs.  numpy's complex array product is not bitwise
commutative either (with AVX-512, x * y and y * x can differ in the last
bit), so every complex product keeps its operand order, an in-place one
too: np.multiply(v, w, out=w), not w *= v.  The front
reads one cell's constants as numpy scalars (``UnitCellGeometry._operands``).
Several cells make one front: their constants form one table, built once
(``cell.constants_table``), and each run takes its rows' columns of it by one
``np.take`` (``cell.stacked_cells``), so ``sweep_cells`` runs the front and
the stopband test over a whole geometry sweep's rows.  The full table is a
``Sweep``, and ``bloch_point`` reads its one row from the scalar columns.
The stage builds no 4x4 matrix and makes no LAPACK call: every step is
elementwise, with sums over the four components written out, so a point's
outputs do not depend on the batch it was evaluated in, nor on whether it
was one.  So an array of more than ``_CHUNK`` frequencies runs in chunks of
at most that many (``_chunked``), which bounds the stage's temporaries, and
each chunk's columns are written into the whole ones.

Each run of the stage, one per chunk, enters one np.errstate (``_quiet``),
where the entry point starts it: overflow and 0/0 in the front, the roots
and Gamma are left to the stage's own finiteness checks, and the chain's
log 0 is exact.  The eigen-check and the table assembly run after the block.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cell import (
    _PHASE_RATES,
    UnitCellGeometry,
    cell_matrices,
    clamped_sigma,
    constants_table,
    forcing_arrays,
    sigma_slope_arrays,
    stacked_cells,
    translation_phases,
)
from .errors import (
    FOUR,
    ONE,
    THREE,
    TWO,
    ZERO,
    NumericError,
    constant,
    count,
    count_true,
    frequency_bounds,
    frequency_row,
    libm,
    non_finite_error,
)
from .trench import flexural_wavevectors

EDGE_REFINE_HZ = 1e3  # band edges bisected down to this resolution
MARKER_MIN_REAL = 0.98  # smallest in-band max(Re Gamma) that counts as a marker
_INTERIOR_SAMPLES = 17  # uniform in-band samples of _gamma_extrema
_EDGE_OFFSETS = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2)  # edge samples, per band width
_TREE_LEVELS = 4  # bisection levels of every edge bracket per stage call
_CHUNK = 2048  # the most frequencies one run of the stage takes (_chunked)
_ITER_ROWS = 256  # the rows of a Sweep converted to Python values at a time
# Gamma and the finite chain are refused below this kL (0.43 Hz on the default
# cell) with the small-kL NumericError: the floor the earlier closed forms had
# there, kept as a plain bound; the shifted roots and Gamma stay accurate far
# below it (README, "Numerics of the Bloch kernel")
KL_FLOOR = 2e-4
# the stage's ufunc operands (errors.constant), complex ones beside complex arrays
_C_ZERO, _C_ONE, _C_TWO, _C_FOUR = (constant(x, complex) for x in (0, 1, 2, 4))
_KL_FLOOR = constant(KL_FLOOR)


@dataclass(frozen=True)
class BlochPoint:
    """Eigen-analysis results at one frequency."""

    f: float
    # (outer, inner) of the transmitted pair, then (outer, inner) of the other
    # pair; |outer| >= 1 >= |inner|
    eigenvalues: tuple[complex, complex, complex, complex]
    # the transmitted Bloch factor, |lambda_flex| <= 1: the inner member of
    # the least-attenuated pair; in a passband the member with
    # Im(lambda) dy/domega < 0, which decays under limiting absorption
    lambda_flex: complex
    t_coeff: float
    r_coeff: float
    k_ef: complex
    gamma: complex
    gamma_e: complex
    gamma_phase: float
    in_stopband: bool
    k: float
    sigma: float
    # the worse backward error ||T v - lambda v|| / (||T||_F ||v||) of the two
    # eigenpairs behind Gamma, ~1e-16; 0.0 when evaluated without Gamma
    reciprocity_defect: float
    # True where the roots y are a complex pair (disc^2 < 0): the narrow in-gap
    # segments where the two reciprocal pairs collide into a complex quadruplet;
    # there Re(k_ef) L leaves the {0, pi} rays while Im(k_ef) stays positive.
    complex_band: bool = False


_SWEEP_FIELDS = tuple(field.name for field in dataclasses.fields(BlochPoint))


@dataclass(frozen=True, eq=False)
class Sweep:
    """Eigen-analysis over an array of frequencies: one column per BlochPoint
    field, under the same name, with eigenvalues of shape (n, 4).

    Iterating the table yields its BlochPoint rows, converted to Python values
    _ITER_ROWS rows at a time, so an iteration holds the objects of one block,
    not of the whole table.  Compared by identity: elementwise == on the
    columns has no single truth value.
    """

    # BlochPoint's fields, in its order, each an np.ndarray column: the
    # annotations dataclasses.make_dataclass would write, as strings like the
    # module's other annotations (from __future__ import annotations)
    __annotations__ = dict.fromkeys(_SWEEP_FIELDS, "np.ndarray")

    def __len__(self) -> int:
        return self.f.size

    def __iter__(self):
        columns = [getattr(self, name) for name in _SWEEP_FIELDS]
        for lo in range(0, len(self), _ITER_ROWS):
            block = [column[lo : lo + _ITER_ROWS].tolist() for column in columns]
            for f, ev, *rest in zip(*block):
                yield BlochPoint(f, tuple(ev), *rest)


@dataclass(frozen=True)
class Band:
    """One contiguous stopband."""

    f_low: float
    f_high: float
    f_center: float
    max_attenuation: float  # nepers per cell, max of -ln|lambda_flex|


@dataclass(frozen=True)
class StopbandReport:
    """Grouped stopbands of a frequency sweep."""

    bands: tuple[Band, ...]
    resonance_markers: tuple[float, ...]
    coarse_grid_warning: bool

    @property
    def primary_band(self) -> Band | None:
        """The band with the highest per-cell attenuation (_primary)."""
        return _primary(self.bands)


def _primary(bands) -> Band | None:
    """The first band with the highest per-cell attenuation; None without bands."""
    return max(bands, key=operator.attrgetter("max_attenuation"), default=None)


@dataclass(frozen=True)
class ChainProfile:
    """Finite-chain boundary amplitudes and decay-slope bookkeeping.

    The amplitudes are those of the right-going propagating component x_j[2]
    of the chain's state, a sum of its four Bloch modes (``chain_profile``).
    """

    f: float
    n_cells: int
    magnitudes: np.ndarray  # |propagating amplitude| at boundaries 0..n
    fitted_slope: float  # least-squares slope of ln|amp| over boundaries 0..n-1
    eigen_slope: float  # ln|lambda_flex| at the same frequency
    reflection: complex  # entry reflection of the finite chain, x_0[0]
    transmission: complex  # propagating amplitude past the last cell, x_n[2]
    # ln|propagating amplitude| at boundaries 0..n, a log-sum-exp over the
    # modes, so it stays finite where the magnitudes underflow to 0
    log_magnitudes: np.ndarray


# B = sinh x - sin x and D = 2 (cosh x + cos x - 2) as x^3 and x^4 times a
# polynomial in x^4, by Horner from the highest term: B's odd series sum 2
# x^(4n+3)/(4n+3)!, D's even one sum 4 x^(4n+4)/(4n+4)!; six terms reach the
# rounding of the leading one below x = 1
_SERIES = constant(
    [[2 / math.factorial(4 * n + 3), 4 / math.factorial(4 * n + 4)] for n in reversed(range(6))]
)
_SIXTEEN = constant(16.0)
_OPPOSITE = constant([2, 3, 0, 1])  # the component of each with the opposite phase rate


def _z_parts(kl):
    """kL-only parts of the shifted closed form and of its slope, (half, s2,
    sh2, sn, sh, B, D, G): kL/2, sin^2(kL/2), sinh^2(kL/2), sin kL, sinh kL, B
    = sh - sn, D = 4 sh2 - 4 s2 and G = -2 (s2 sh + sh2 sn), with sz = D +
    (sigma/2) B and q = sigma G - 16 s2 sh2.  Below kL = 1, B and D come from
    their series (_SERIES), where the differences cancel; G has no
    cancellation there."""
    half = kl / TWO
    sn_h, sh_h = np.sin(half), np.sinh(half)
    s2, sh2 = sn_h * sn_h, sh_h * sh_h
    sn, sh = np.sin(kl), np.sinh(kl)
    B, D = sh - sn, FOUR * (sh2 - s2)
    small = kl < ONE
    if count_true(small):
        x2 = kl * kl
        x4 = x2 * x2
        acc = _SERIES[0]
        for coeff in _SERIES[1:]:
            acc = acc * x4[..., None] + coeff
        B = _pick(small, acc[..., 0] * (x2 * kl), B)
        D = _pick(small, acc[..., 1] * x4, D)
    return half, s2, sh2, sn, sh, B, D, -TWO * (s2 * sh + sh2 * sn)


def _formula_roots(sv, qv, d, pair):
    """The roots ((sv + disc)/2, (sv - disc)/2) of r^2 - sv r + qv = 0,
    stacked on a new first axis, from d = |disc| and the mask pair of the
    points where disc^2 < 0.  A real pair takes the root without
    cancellation from the quadratic formula and the other one as qv / root;
    a complex pair has no cancellation and stays exactly conjugate.  Only
    real arithmetic is used."""
    big = (sv + np.copysign(d, sv)) / TWO
    small = qv / big
    neg = sv < ZERO
    if count_true(neg):  # rare: big is the second root
        big, small = _pick(neg, small, big), _pick(neg, big, small)
    r = np.array([big, small], dtype=complex)
    if count_true(pair):
        np.copyto(r.real, sv / TWO, where=pair)
        half_d = d / TWO
        np.copyto(r.imag[0, ...], half_d, where=pair)
        np.copyto(r.imag[1, ...], -half_d, where=pair)
    return r


def _z_closed(parts, s):
    """(z, v, minus, n, pair): the closed-form roots in z = y - 2, ((sz +
    disc)/2, (sz - disc)/2), stacked on a new first axis; each root as v =
    y - 2a from its anchor a, -1 where Re y < 0 and +1 elsewhere, so z where
    a = 1 and x = y + 2 where a = -1; the mask minus of the roots anchored
    at -1 and its count n; the mask pair of complex pairs, disc^2 < 0.  v
    is z itself where n is 0, else a new array: z is never written.

    With y = z + 2 the quadratic is z^2 - sz z + Q(2) = 0, sz = su - 4 and
    Q(2) = q = 4 - 2 su + pr, whose coefficients (_z_parts) are free of the
    cancellation of su and pr near y = 2.  Near y = -2, z + 4 cancels, so a
    root with Re y < 0 is taken in x = y + 2, from x^2 - sx x + Q(-2) = 0:
    sx = su + 4 = 4 (c2 + ch2) + (sigma/2) B and Q(-2) = 16 c2 ch2 + 2 sigma
    (c2 sh - ch2 sn), with c2 = cos^2(kL/2) from cos(kL/2) itself and ch2 =
    1 + sh2, free of cancellation there.  Both quadratics share one
    discriminant, so x_i is z_i + 4 in the same order (_formula_roots).  For
    real kL and sigma, arrays or numpy scalars.
    """
    half, s2, sh2, sn, sh, B, D, G = parts
    sb = (s / TWO) * B
    sz = D + sb
    q = s * G - _SIXTEEN * s2 * sh2
    disc2 = sz * sz - FOUR * q
    d = np.sqrt(np.abs(disc2))
    pair = disc2 < ZERO
    z = _formula_roots(sz, q, d, pair)
    minus = z.real < -TWO
    n = count_true(minus)
    if not n:
        return z, z, minus, n, pair
    del sz, q, disc2  # else held through the x pass, which would set a chunk's peak
    c = np.cos(half)
    c2, ch2 = c * c, ONE + sh2
    sx = FOUR * (c2 + ch2) + sb
    qx = _SIXTEEN * c2 * ch2 + TWO * s * (c2 * sh - ch2 * sn)
    v = _formula_roots(sx, qx, d, pair)
    if n < minus.size:
        np.copyto(v, z, where=~minus)
    return z, v, minus, n, pair


def _lambda_pairs(v, minus, n):
    """(outer, inner, outer - a): the roots of lambda^2 - (v + 2a) lambda + 1
    = 0, |outer| >= |inner|, and the outer one's offset from its anchor a,
    from v and the mask minus of the entries anchored at -1 and its count n
    (_z_closed).  v is not written.

    lambda - a = (v +- sqrt(v (v + 4a)))/2: the member without cancellation,
    the larger in modulus, is outer - a, and inner is 1 / outer; inner - a =
    -a (outer - a) / outer (_transmitted), so neither offset cancels against
    a.  v + 4a and a + (outer - a) are _at_anchors sums; the other steps
    write into the arrays of earlier ones, so no complex array is made
    besides the three returned.
    """
    w = _at_anchors(v, _C_FOUR, minus, n)  # 4a, complex beside v
    root = np.sqrt(np.multiply(v, w, out=w), out=w)
    hi = v + root
    lo = np.subtract(v, root, out=root)
    np.copyto(lo, hi, where=np.abs(hi) >= np.abs(lo))
    m_out = np.divide(lo, _C_TWO, out=lo)
    outer = _at_anchors(m_out, _C_ONE, minus, n, out=hi)
    return outer, _C_ONE / outer, m_out


def _z_slope(s, ds, parts, z):
    """omega dz/domega of the first root in z (..., 2), times |z0 - z1| (0 where
    the real parts meet), in real arithmetic; ds = omega dsigma/domega and
    parts are _z_parts of kL.

    From z^2 - sz z + q = 0, z' = (z sz' - q') / (2z - sz), and 2z - sz is
    z0 - z1 because sz is the sum of the roots; omega (kL)' = kL/2, with
    dsz/dkL = 2 B + (sigma/2)(ch - c), dq/dkL = 4 G - sigma (2 sn sh + ch - c)
    and ch - c = 2 (sh2 + s2).  z' = y', so its sign is the passband direction's.
    """
    half, s2, sh2, sn, sh, B, _, G = parts
    spread = TWO * (sh2 + s2)
    dsz = half * (TWO * B + (s / TWO) * spread) + (ds / TWO) * B
    dq = half * (FOUR * G - s * (TWO * sn * sh + spread)) + ds * G
    z0, z1 = z.real.T
    return np.sign(z0 - z1) * (z0 * dsz - dq)


_COMPONENTS = constant(np.arange(4))
# the finite chain's boundary values (x_0[2], x_0[3], x_n[0], x_n[1]) and the
# modes referenced at boundary n, the outer ones (chain_profile)
_UNIT_INPUT = constant([1.0, 0.0, 0.0, 0.0])
_AT_END = constant([[0], [0], [1], [1]])


def _offset_table(kl, m, minus, n):
    """(w, u, p - 1, d) of Bloch factors from their offsets m = lambda - a, the
    mask minus of those anchored at a = -1 and its count n: w is
    translation_phases of kL/2, u = w * _PHASE_RATES, and d = (lambda - a) -
    (p - a) the table lambda - p, m's shape with a last axis of 4.  p - 1 is
    expm1 of kL times the phase rates and p + 1 = w (w + 1/w), 1/w the
    opposite component's half-cell phase, keeps its digits where p is near -1:
    d keeps the offsets' digits as kL -> 0, where every lambda and p near 1."""
    rates = kl[..., None] * _PHASE_RATES
    w = np.exp(rates / _C_TWO)
    u = w * _PHASE_RATES
    p1 = np.expm1(rates)
    d = m[..., None] - p1
    if n:
        np.subtract(m[..., None], w * (w + w[..., _OPPOSITE]), out=d, where=minus[..., None])
    return w, u, p1, d


def _modes(u, d):
    """The eigenvectors (lambda - p)^-1 u of the rows of the table d
    (_offset_table), the finite chain's modes; Gamma and the eigen-check need
    none.  Each is scaled by its entry d_near of smallest modulus, u_i d_near
    / d_i and u_near at near, so it stays finite where an offset is 0."""
    near = _COMPONENTS == np.abs(d).argmin(axis=-1)[..., None]
    v = u * (d[near].reshape(*d.shape[:-1], 1) / d)
    np.copyto(v, u, where=near)
    return v


@dataclass
class _Front:
    """The cell-dependent inputs of the Bloch stage, one entry per frequency: all
    it reads.  Each is a 1-D array, or a numpy scalar on a one-point call."""

    f: np.ndarray | np.float64
    k: np.ndarray | np.float64
    sigma: np.ndarray | np.float64  # clamped; 0 without coupling
    L: np.ndarray | np.float64  # cell length: one cell's scalar, or one per point
    # s0 and rod phase of cell.forcing_arrays for omega dsigma/domega; None uncoupled
    s0: np.ndarray | np.float64 | None = None
    phase: np.ndarray | np.float64 | None = None


def _quiet() -> np.errstate:
    """The one np.errstate of a run of the Bloch stage, entered by the entry
    point that starts the run: over the front and the stage steps whose
    non-finite results the stage's own checks report (the roots and Gamma,
    _require_finite) or handle (the chain's log 0).  The eigen-check
    (_backward_error) and the table assembly run after it, so a warning there
    still surfaces."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _front(cell: SimpleNamespace, f: np.ndarray, *, force_zero_coupling: bool = False) -> _Front:
    """The front of one cell over an array of frequencies f > 0 or at the
    numpy scalar of a one-point call, or of several cells over their rows
    (stacked_cells of their constants_table); the entry points hand it a
    cell's _operands, its constants as numpy scalars.  Where 2 pi f or k**3
    overflows, k or sigma is inf or NaN, and so are the roots, which the stage
    reports (_pairs); the rod kernel raises where its phase overflows and past
    the rod's top frequency, which the uncoupled front never reads.  Run under
    the stage's _quiet."""
    if force_zero_coupling:
        return _Front(f, flexural_wavevectors(cell.trench, f), np.zeros(f.shape), cell.cell_length)
    k, _, sigma, s0, phase = forcing_arrays(cell, f)
    return _Front(f, k, clamped_sigma(sigma), cell.cell_length, s0, phase)


def _at_anchors(x, y, minus, n, out=None):
    """x + a y, into out if given, for the anchors a of the mask minus and its
    count n: a = -1 where minus is set, +1 elsewhere.  One op over every
    entry, then one masked op over the entries of minus; one op alone where
    none or every entry is set.  For y real, or complex with imaginary part
    +0, x - y has the bits of x + a y with the complex anchor (-1, -0.0)."""
    if n == minus.size:
        return np.subtract(x, y, out=out)
    r = np.add(x, y, out=out)
    if n:
        np.subtract(x, y, out=r, where=minus)
    return r


def _pick(mask, new, old):
    """np.where(mask, new, old) for a mask over the points: old where no point
    is set and new where every one is, as on a one-point call, without the
    call; the same values either way."""
    n = count_true(mask)
    if n == mask.size:
        return new
    return np.where(mask, new, old) if n else old


def _pairs(fr: _Front):
    """(kL, parts, roots, n, |inner|, pair, T, in_stopband): _z_parts of kL,
    the roots (z, outer, inner, outer - a, minus) of _z_closed and
    _lambda_pairs, each (..., 2) in _z_closed order, with the mask minus of
    the factors whose anchor a is -1, its count n, _z_closed's mask pair,
    T = min(|inner|, 1) of the least-attenuated pair and the stopband mask.
    NumericError where the roots overflow, which _quiet leaves to this check.
    The mask is signs: a factor is on the unit circle iff its pair is real and
    a v <= 0, v = y - 2a its anchored root; no T, no passband direction.
    """
    kl = fr.k * fr.L
    parts = _z_parts(kl)
    z, v, minus, n, pair = _z_closed(parts, fr.sigma)
    # a v > 0, y outside [-2, 2], per root: v > 0 where a = 1, v < 0 where a = -1
    r = v.real
    r0, r1 = r[0], r[1]
    off0, off1 = r0 > ZERO, r1 > ZERO
    if n:  # where a = -1, v < 0 is v > 0 flipped where v != 0
        off0, off1 = off0 ^ (minus[0] & (r0 != ZERO)), off1 ^ (minus[1] & (r1 != ZERO))
    stop = pair | (off0 & off1)
    roots = (z.T, *_lambda_pairs(v.T, minus.T, n), minus.T)
    del v  # the x roots' array where n > 0, not read again
    _require_finite(fr.f, kl, roots[1], "Bloch roots")
    mod = np.abs(roots[2])
    t = np.maximum(mod[..., 0], mod[..., 1])
    if count_true(t > ONE):  # only where rounding lifts |inner| past 1
        t = np.minimum(t, ONE)
    return kl, parts, roots, n, mod, pair, t, stop


def _transmitted(fr: _Front):
    """(kL, z, outer, inner, lambda_flex, T, in_stopband, pair, m_in, m_out,
    offsets, n, minus): the pairs of _pairs with the transmitted one, whose
    inner factor has the larger modulus, in column 0 (on a tie the _z_closed
    order stands), the transmitted factor, T = min(|lambda_flex|, 1), the
    masks of _pairs, the offsets lambda - a of the inner and outer factors,
    those of Gamma's two, lambda_flex and the other pair's inner factor,
    transposed to a first axis of 2, and the mask of the pairs anchored at a
    = -1 in that layout, with its count n: the swap keeps _pairs' count."""
    kl, parts, roots, n, mod, pair, _, stop = _pairs(fr)
    swap = mod[..., 1] > mod[..., 0]
    swaps = count_true(swap)
    if swaps == swap.size:  # at every point: the columns reversed, as views
        roots = (x[..., ::-1] for x in roots)
    elif swaps:
        swap = swap[..., None]
        roots = (np.where(swap, x[..., ::-1], x) for x in roots)
    z, outer, inner, m_out, minus = roots
    # stopband: the decaying member; passband (a factor on the unit circle, so
    # the transmitted pair's): the member whose modulus shrinks under omega ->
    # omega (1 + i eps), to first order the one with Im(lambda) dy/domega < 0;
    # where that product is 0 (lambda = +-1, or a flat y) the inner member
    # stays; inner - a = -a (outer - a) / outer
    m_in = -m_out
    if n:
        np.copyto(m_in, m_out, where=minus)
    m_in /= outer
    m_flex = m_in  # Gamma's offsets: lambda_flex's and the other pair's inner one
    lam = inner[..., 0]
    passing = stop.size - count_true(stop)  # the passband points
    if passing:
        ds = ZERO if fr.s0 is None else sigma_slope_arrays(fr.sigma, fr.s0, fr.phase)
        outward = lam.imag * _z_slope(fr.sigma, ds, parts, z) > ZERO
        if passing < stop.size:  # the slope may overflow at the stopband points
            outward = outward & ~stop
        lam = _pick(outward, outer[..., 0], lam)
        m_flex = m_in.copy()  # m_in stays as it is for the chain
        np.copyto(m_flex[..., 0], m_out[..., 0], where=outward)
    mod = np.abs(lam)
    over = mod > ONE
    if count_true(over):  # keep |lambda| <= 1 against rounding; its offset stays the root's
        lam = _pick(over, lam / mod, lam)
        mod = np.abs(lam)
        if count_true(mod > ONE):
            mod = np.minimum(mod, ONE)
    return kl, z, outer, inner, lam, mod, stop, pair, m_in, m_out, m_flex.T, n, minus.T


def _reflection(fr: _Front, transmitted):
    """(Gamma, Gamma_e, (w, u, d)) of a front from its _transmitted tuple,
    through two of its factors: lf, the transmitted one, and le, the inner
    factor of the other pair.  (w, u, d) is _offset_table of their offsets,
    d of shape (2, ..., 4).  NumericError where Gamma overflows and below
    KL_FLOOR.

    The interface state [Gamma, Gamma_e, 1, 0] (reflected, reflected
    near-field, unit incident, no incoming evanescent) lies in the span of the
    eigenvectors (lambda - p)^-1 u of lf and le.  Cramer's rule on components
    2 and 3, with the factors lambda - p_3 and lf - le cancelled, gives

        Gamma = (u0/u2) (p3-p0)/(p3-p2) (lf-p2)(le-p2) / ((lf-p0)(le-p0)),

    and Gamma_e the same with index 1 in place of 0.  Both are v_2 / v_j with
    v_i = (lf-p_i)/(p3-p_i) (le-p_i) / u_i, each factor of which stays in
    range wherever the roots do; lf = p2 without coupling makes them 0.
    """
    kl, *_, m, n, minus = transmitted
    w, u, p1, d = _offset_table(kl, m, minus, n)
    v = d[0, ..., :3] / (p1[..., 3:] - p1[..., :3]) * d[1, ..., :3] / u[..., :3]
    gammas = v[..., 2:] / v[..., :2]
    if fr.s0 is None:
        # nothing reflects without coupling, where Gamma is finite
        gammas[np.isfinite(gammas).all(axis=-1)] = 0
    low = kl < _KL_FLOOR
    if count_true(low):  # refused below the floor, reported just below
        gammas[low] = np.nan
    _require_finite(fr.f, kl, gammas, "Gamma")
    return gammas[..., 0], gammas[..., 1], (w, u, d)


def _backward_error(kl, sigma, w, u, d):
    """The worse backward error ||T v - lambda v|| / (||T||_F ||v||) of the two
    eigenpairs of _reflection, from its w, u and table d = lambda - p.

    With v = (lambda - p)^-1 u, T v - lambda v = -F u, F = 1 - (sigma/4) sum_i
    w_i u_i / d_i the secular function: the residual is |F| ||u|| / ||v||,
    with |u_i| = |w_i|.  A row of d with an entry exactly 0 is scaled by it,
    as v by lambda - p_near: F becomes -(sigma/4) w_near u_near and v
    becomes u_near e_near.
    """
    s4 = sigma / FOUR
    # ||u|| / ||T||_F in closed form, with e = e^{-kL}: |u|^2 = |w|^2 is
    # (1, 1/e, 1, e), |T_ii| = |w_i|^2 |1 + (sigma/4) c_i| and |T_ij| =
    # |sigma/4| |w_i| |w_j| off the diagonal.  Times e^2, ||u||^2 is e (1 +
    # e)^2 and ||T||_F^2 is t_sq, both finite at any kL
    e = np.exp(-kl)
    e2 = e * e
    t_sq = (
        (ONE + s4) * (ONE + s4) + FOUR * s4 * s4 * e * (ONE + e2)
        + TWO * e2 * (ONE + THREE * s4 * s4) + e2 * e2 * ((ONE - s4) * (ONE - s4))
    )
    scale = (ONE + e) * np.sqrt(e / t_sq)
    if np.count_nonzero(d) < d.size:  # some entry is exactly 0
        zero = d == _C_ZERO
        row = zero.any(axis=-1)
        g = np.where(row, ZERO, ONE)
        q = np.where(row[..., None], w * zero, w / np.where(zero, _C_ONE, d))
    else:
        g, q = ONE, w / d
    # w.u/d of both eigenpairs times g, and ||v||^2 of both, the real parts of
    # q conj(q), each summed over the components written out: an axis
    # reduction may add in an order that depends on the batch size
    x = u * q
    dot = x[..., 0] + x[..., 1] + x[..., 2] + x[..., 3]
    x = (q * q.conj()).real
    norm2 = x[..., 0] + x[..., 1] + x[..., 2] + x[..., 3]
    resid = np.abs(g - s4 * dot) / np.sqrt(norm2)
    return scale * np.maximum(resid[0], resid[1])


def _columns(
    cell: UnitCellGeometry, f: np.ndarray, *, with_gamma: bool, force_zero_coupling: bool = False
) -> tuple:
    """The Bloch stage over a 1-D array of frequencies f of one cell, or at a
    one-point call's numpy scalar f, as the columns of a Sweep table in field
    order (numpy scalars, and eigenvalues of shape (1, 4), for a scalar f): one
    run under one _quiet, then the eigen-check and the assembly.

    Re(k_ef) is 0: each caller sets its own 2 pi branch.  gamma, gamma_e,
    gamma_phase and reciprocity_defect are 0 without Gamma.  NumericError
    where roots or Gamma overflow.
    """
    with _quiet():
        fr = _front(cell._operands, f, force_zero_coupling=force_zero_coupling)
        transmitted = _transmitted(fr)
        reflection = _reflection(fr, transmitted) if with_gamma else None
    kl, _, outer, inner, lam, t, stop, complex_band, *_ = transmitted
    if reflection is None:
        gamma = gamma_e = np.zeros(t.shape, dtype=complex)
        defect = phase = np.zeros(t.shape)
    else:
        gamma, gamma_e, table = reflection
        defect = _backward_error(kl, fr.sigma, *table)
        phase = np.arctan2(gamma.imag, gamma.real)
    # (outer, inner) of the transmitted pair, then of the other pair
    eigenvalues = np.empty((t.size, 2, 2), dtype=complex)
    eigenvalues[..., 0] = outer
    eigenvalues[..., 1] = inner
    # Re(k_ef) is left to the callers; setting imag alone keeps a -0.0 that
    # re + 1j * im would turn into +0.0.  t > 0, as outer is finite
    k_ef = np.zeros(t.shape, dtype=complex)
    k_ef.imag = -np.log(t) / fr.L
    return (
        f, eigenvalues.reshape(-1, 4), lam, t, ONE - t, k_ef, gamma, gamma_e, phase, stop,
        fr.k, fr.sigma, defect, complex_band,
    )


def _chunked(stage, f: np.ndarray, *per_row: np.ndarray) -> tuple:
    """stage(f, *per_row), a run of the Bloch stage over the 1-D array of
    frequencies f that returns a tuple of columns with one row per frequency,
    run over consecutive chunks of at most _CHUNK rows of f and of the per-row
    arrays beside it, so the stage's temporaries are those of one chunk.

    A run of at most _CHUNK rows is the one call.  A longer one writes each
    chunk's columns into whole columns allocated from the first chunk's.
    Every step of the stage is elementwise, so each row is bit for bit the
    row of one call over f.  The first failing chunk raises, its
    NumericError's row made a row of f; later chunks do not run.
    """
    n = f.size
    if n <= _CHUNK:
        return stage(f, *per_row)
    columns = ()
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        try:
            part = stage(f[rows], *(x[rows] for x in per_row))
        except NumericError as exc:
            exc.row += lo
            raise
        if not columns:
            columns = tuple(np.empty((n, *x.shape[1:]), x.dtype) for x in part)
        for column, x in zip(columns, part):
            column[rows] = x
    return columns


def _require_finite(f: np.ndarray, kl: np.ndarray, values: np.ndarray, what: str) -> None:
    """NumericError naming the first frequency, and its kL, where values, one
    row per frequency of an array f or one for a numpy scalar f, are not all
    finite; the error's row is that frequency's index, 0 for a scalar."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite.reshape(f.size, -1).all(axis=1)))
        raise non_finite_error(what, f.flat[i].item(), kl.flat[i], row=i)


def bloch_point(
    cell: UnitCellGeometry,
    f: float,
    *,
    force_zero_coupling: bool = False,
    with_gamma: bool = True,
) -> BlochPoint:
    """Full eigen-analysis at one frequency.

    Re(k_ef) L is taken on the 2 pi branch closest to the uncoupled kL,
    which makes k_ef = k exact in the zero-coupling limit.
    """
    f_row, eigenvalues, lam, t, r, k_ef, gamma, gamma_e, phase, stop, k, sigma, defect, band = (
        _columns(
            cell, frequency_row(f, "bloch_point"),
            with_gamma=with_gamma, force_zero_coupling=force_zero_coupling,
        )
    )
    # the branch in Python floats after numpy's arctan2; round() rounds half to even
    L = cell.cell_length
    arg = float(np.arctan2(lam.imag, lam.real))
    branch = round((float(k) * L - arg) / (2 * math.pi))
    k_ef = complex((arg + 2 * math.pi * branch) / L, float(k_ef.imag))
    # the one row, read column by column through the builtin types (the values
    # of .item(), at a tenth of its cost): no Sweep is built for one point
    return BlochPoint(
        float(f_row), tuple(eigenvalues[0].tolist()), complex(lam), float(t), float(r), k_ef,
        complex(gamma), complex(gamma_e), float(phase), bool(stop), float(k), float(sigma),
        float(defect), bool(band),
    )


def semi_infinite_reflection(
    cell: UnitCellGeometry, f: float, *, force_zero_coupling: bool = False
) -> tuple[complex, complex]:
    """Reflection of a unit propagating wave off an infinite chain of cells.

    Returns (Gamma, Gamma_e), a closed form on the offset table at f itself
    (_reflection), finite at band-edge degeneracies: no frequency is nudged.
    """
    f_row = frequency_row(f, "semi_infinite_reflection")
    with _quiet():
        fr = _front(cell._operands, f_row, force_zero_coupling=force_zero_coupling)
        gamma, gamma_e, _ = _reflection(fr, _transmitted(fr))
    return complex(gamma), complex(gamma_e)


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of True along the last axis of a mask, both
    inclusive, as flat indices: no run of a 2-D mask crosses from one row to
    the next."""
    edge = np.zeros(mask.shape[:-1] + (1,), dtype=bool)
    padded = np.concatenate([edge, mask, edge], axis=-1)
    starts = np.flatnonzero(mask & ~padded[..., :-2])
    ends = np.flatnonzero(mask & ~padded[..., 2:])
    return starts, ends


def _branch_indices(in_stop: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """2 pi branch index of Re(k_ef) L per point of a sweep.

    Each contiguous passband run is anchored to the uncoupled wavevector at
    its midpoint, round(offset / 2 pi) with offset = kL - unwrapped arg(lambda)
    (a gap pins the phase at a zone boundary; the physical branch index
    increments across it, so a single global anchor would lag by full
    turns).  Stopband points inherit the branch of the run to their left,
    leading ones that of the first run.  A sweep without a passband point is
    one run, anchored at its midpoint.
    """
    starts, ends = _runs(~in_stop)
    if not starts.size:
        starts, ends = np.array([0]), np.array([in_stop.size - 1])
    runs = np.round(offset[(starts + ends) // 2] / (2 * math.pi))
    run_of = np.searchsorted(starts, np.arange(in_stop.size), side="right") - 1
    return runs[np.maximum(run_of, 0)]


def _grid(f_start: float, f_stop: float, points: int, caller: str) -> np.ndarray:
    """The uniform frequency grid of a sweep, its bounds and count checked in
    the caller's name (errors.frequency_bounds, errors.count)."""
    f_start, f_stop = frequency_bounds(f_start, f_stop, caller, ("f_start", "f_stop"))
    return np.linspace(f_start, f_stop, count(points, caller, "points"))


def sweep(cell: UnitCellGeometry, f_start: float, f_stop: float, points: int) -> Sweep:
    """Uniform frequency sweep with branch-continuous Re(k_ef) and Gamma, as one table."""
    f = _grid(f_start, f_stop, points, "sweep")
    sw = Sweep(*_chunked(lambda fs: _columns(cell, fs, with_gamma=True), f))
    L = cell.cell_length
    args = np.unwrap(np.angle(sw.lambda_flex))
    branch = _branch_indices(sw.in_stopband, sw.k * L - args)
    sw.k_ef.real = (args + 2 * math.pi * branch) / L
    return sw


def sweep_cells(
    cells: list[UnitCellGeometry], f_start: float, f_stop: float, points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, T, in_stopband) of the uniform frequency sweep of each cell, the
    grids end to end: the front and the stage as far as its stopband test
    (_stopband_test) over the rows in _chunked runs, each on the constants of
    its own rows' cells: the cells' constants_table is built once, and each
    chunk takes its rows' columns of it (cell.stacked_cells, so a chunk's cost
    does not grow with the number of cells).  Rows i * points .. (i + 1) *
    points - 1 are, bit for bit, the in_stopband of cells[i]'s own table and
    its t_coeff at every stopband point.  A NumericError's row is its row in
    these columns.
    """
    f = np.tile(_grid(f_start, f_stop, points, "sweep_cells"), len(cells))
    table = constants_table(cells)

    def stage(fs, owner):
        return _stopband_test(stacked_cells(table, owner), fs)

    return (f, *_chunked(stage, f, np.repeat(np.arange(len(cells)), points)))


def _stopband_test(operands: SimpleNamespace, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, in_stopband) of the front of operands (a cell's _operands or
    stacked_cells) over f and the stage's root part (_pairs), under one _quiet."""
    with _quiet():
        return _pairs(_front(operands, f))[-2:]


def _refine_edges(cell: UnitCellGeometry, brackets: np.ndarray) -> np.ndarray:
    """Bisect brackets, (m, 2) rows of (in-band end, out-of-band end), down to
    EDGE_REFINE_HZ, all at once; returns the midpoint of each final bracket.

    Each round splits every active bracket into 2^_TREE_LEVELS parts by
    repeated halving, each point 0.5 * (left + right) of its parent part, and
    tests its 2^_TREE_LEVELS - 1 inner points in one stage call (_chunked).
    Bisection by index on that grid, a step only while the bracket is wider
    than EDGE_REFINE_HZ, then takes the same midpoints and the same stop as
    one level per call.  The stopband test is the stage's (_pairs), as in
    Sweep.in_stopband.
    """
    brackets = brackets.astype(float)
    parts = 1 << _TREE_LEVELS
    while True:
        active = np.flatnonzero(np.abs(brackets[:, 1] - brackets[:, 0]) > EDGE_REFINE_HZ)
        if not active.size:
            return 0.5 * (brackets[:, 0] + brackets[:, 1])
        grid = np.zeros((active.size, parts + 1))
        grid[:, [0, parts]] = brackets[active]
        step = parts
        while step > 1:
            grid[:, step // 2 :: step] = 0.5 * (grid[:, :-1:step] + grid[:, step::step])
            step //= 2
        # the stopband test at inner point j is stop[:, j - 1]
        tested = grid[:, 1:-1].ravel()
        stop = _chunked(lambda f: _stopband_test(cell._operands, f), tested)[1]
        stop = stop.reshape(-1, parts - 1)
        rows = np.arange(active.size)
        a, b = np.zeros(active.size, dtype=int), np.full(active.size, parts)
        for _ in range(_TREE_LEVELS):
            mid = (a + b) // 2
            wide = np.abs(grid[rows, b] - grid[rows, a]) > EDGE_REFINE_HZ
            s = stop[rows, mid - 1]
            a = np.where(wide & s, mid, a)
            b = np.where(wide & ~s, mid, b)
        brackets[active, 0], brackets[active, 1] = grid[rows, a], grid[rows, b]


def _bands(f, t, in_stopband, points: int) -> tuple[np.ndarray, np.ndarray, list, list]:
    """(starts, ends, centers, peaks) of every band of step sweeps given as
    columns of frequency, T and the stopband mask, `points` rows each, in row
    order: the first and last row of each band, as flat indices, and its
    center and peak attenuation.  T is read at stopband points only.

    A band is a run of stopband points within one step.  Its attenuation is
    -ln T per point (745.0 where T is 0), its center the attenuation-weighted
    mean frequency.  The logs are libm's, one map
    over every stopband point, and each band's sums run left to right, one
    cumsum over its slice: numpy's log may differ from libm in the last bit,
    np.sum and reduceat add pairwise, and built-in sum() of floats is
    compensated from Python 3.12 on.
    """
    starts, ends = _runs(in_stopband.reshape(-1, points))
    t = t[in_stopband]
    att = np.full(t.size, 745.0)
    positive = t > 0
    att[positive] = -libm(math.log, t[positive])
    # each band's slice of the stopband points
    lengths = ends - starts + 1
    last = np.cumsum(lengths)
    first = last - lengths
    weights = np.stack([att, f[in_stopband] * att])
    centers = []
    for a, b, f0 in zip(first.tolist(), last.tolist(), f[starts].tolist()):
        wsum, fsum = np.cumsum(weights[:, a:b], axis=1)[:, -1].tolist()
        centers.append(fsum / wsum if wsum > 0 else f0)
    return starts, ends, centers, np.maximum.reduceat(att, first).tolist()


def stopband_report(sweep: Sweep, cell: UnitCellGeometry) -> StopbandReport:
    """Group a sweep into disjoint stopbands with centers and markers.

    A band is a run of stopband points (_bands on the sweep as one step).
    Each run end with a passband neighbour is refined by bisection, all in
    one _refine_edges call, and Re(Gamma) is sampled between each band's
    edges (_gamma_extrema); the markers are the samples where it peaks close
    to +1 (virtual-fixed-constraint signature).  The coarse-grid warning is
    set below 4 points or on a band of fewer than 3 grid points.
    """
    n = len(sweep)
    if n < 2:
        raise ValueError("stopband_report: need at least 2 sweep points")
    starts, ends, centers, peaks = _bands(sweep.f, sweep.t_coeff, sweep.in_stopband, n)
    f_low, f_high = sweep.f[starts], sweep.f[ends]
    left, right = starts > 0, ends < n - 1
    i, j = starts[left], ends[right]
    at = np.concatenate([[i, i - 1], [j, j + 1]], axis=1).T
    edges = _refine_edges(cell, sweep.f[at])
    f_low[left], f_high[right] = edges[: i.size], edges[i.size :]
    markers = []
    if starts.size:
        f_max, re_max, _, _ = _gamma_extrema(cell, f_low, f_high)
        markers = f_max[re_max >= MARKER_MIN_REAL].tolist()
    bands = map(Band, f_low.tolist(), f_high.tolist(), centers, peaks)
    coarse = n < 4 or bool(np.count_nonzero(ends - starts < 2))
    return StopbandReport(tuple(bands), tuple(markers), coarse)


def _gamma_extrema(cell: UnitCellGeometry, f_low: np.ndarray, f_high: np.ndarray):
    """(f_at_max, max, f_at_min, min) of Re(Gamma) in each band f_low..f_high,
    one entry per band, from one stage call over every band's samples
    (_chunked).

    Re(Gamma) approaches its extreme values very close to the band edges, so
    each band's 31 sorted samples mix _INTERIOR_SAMPLES uniform interior
    points with geometric offsets from both edges.
    """
    width = f_high - f_low
    offsets = np.multiply.outer(width, _EDGE_OFFSETS)
    interior = np.linspace(f_low + 0.05 * width, f_high - 0.05 * width, _INTERIOR_SAMPLES, axis=1)
    fs = np.concatenate([f_low[:, None] + offsets, f_high[:, None] - offsets, interior], axis=1)
    fs.sort(axis=1)

    def re_gamma(f):
        with _quiet():
            fr = _front(cell._operands, f)
            return (_reflection(fr, _transmitted(fr))[0].real,)

    re = _chunked(re_gamma, fs.ravel())[0].reshape(fs.shape)
    rows = np.arange(fs.shape[0])
    hi, lo = re.argmax(axis=1), re.argmin(axis=1)
    return fs[rows, hi], re[rows, hi], fs[rows, lo], re[rows, lo]


def band_gamma_extrema(
    cell: UnitCellGeometry, f_low: float, f_high: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """In-band extrema of Re(Gamma) as ((f_at_max, max), (f_at_min, min)): the
    one-band row of _gamma_extrema, its bounds checked by
    errors.frequency_bounds."""
    f_low, f_high = frequency_bounds(f_low, f_high, "band_gamma_extrema", ("f_low", "f_high"))
    f_max, re_max, f_min, re_min = (
        x.item() for x in _gamma_extrema(cell, np.array([f_low]), np.array([f_high]))
    )
    return (f_max, re_max), (f_min, re_min)


def chain_profile(
    cell: UnitCellGeometry,
    f: float,
    n_cells: int,
    *,
    force_zero_coupling: bool = False,
) -> ChainProfile:
    """Propagating-amplitude magnitude across a finite chain of cells.

    Unit propagating input at the first boundary, matched (radiation)
    termination after the last cell: the state x_j at boundary j has
    x_0[2:4] = (1, 0) and x_n[0:2] = 0.  It is the sum of the four Bloch
    modes, x_j = sum_m c_m lambda_m^(j - ref_m) v_m, each referenced at the
    end it decays from: the inner factors (|lambda| <= 1) at boundary 0, the
    outer ones at boundary n.  The eigenvectors v_m come from the factors'
    offset table (_offset_table, _modes), which keeps its digits at small kL.
    The outer coefficients are carried as c' e^rho, rho = n ln|lambda| of the
    slower inner factor, so every power in the 4x4 system is at most 1 in
    modulus and no coefficient underflows for any chain length.  ln|x_j[2]|
    is a log-sum-exp over the modes, which tracks deep decay below the
    floating-point range.  The decay slope is the least-squares slope over
    boundaries 0..n-1; the terminal boundary is excluded because the matched
    exit locally distorts the profile.
    """
    f_row = frequency_row(f, "chain_profile")
    n = count(n_cells, "chain_profile", "n_cells")
    # the stage, through log 0 of the uncoupled modes at sigma == 0
    with _quiet():
        kl, _, outer, inner, lam_flex, _, _, _, m_in, m_out, _, anchored, minus = _transmitted(
            _front(cell._operands, f_row, force_zero_coupling=force_zero_coupling)
        )
        if kl < _KL_FLOOR:  # refused as bloch_point's Gamma is
            raise non_finite_error("Gamma", float(f_row), kl)
        lam = np.concatenate([inner, outer])  # modes: inner, inner, outer, outer
        m_lam, minus = np.concatenate([m_in, m_out]), np.concatenate([minus, minus])
        _, u, _, d = _offset_table(kl, m_lam, minus, anchored)  # a pair's members share its anchor
        v = _modes(u, d)  # (mode, component)
        log_lam = np.log(lam)
        rho = n * float(log_lam[:2].real.max())
        # the powers lambda^(j - ref) at j = 0 and j = n, outer ones times e^rho
        # and the j = n rows divided by it, from one exp: 1 where j = ref
        powers = np.zeros((2, 4), dtype=complex)
        n_log = n * log_lam
        np.subtract(rho, n_log[2:], out=powers[0, 2:])
        np.subtract(n_log[:2], rho, out=powers[1, :2])
        at_0, at_n = np.exp(powers)
        c = np.linalg.solve(np.concatenate([v[:, 2:].T * at_0, v[:, :2].T * at_n]), _UNIT_INPUT)
        # ln x_j[2], a log-sum-exp over the modes at each boundary j, laid out
        # (mode, boundary) so that every loop runs along the n + 1 boundaries
        terms = (np.log(c * v[:, 2]) + np.array([0.0, 0.0, rho, rho]))[:, None]
        terms = terms + (np.arange(n + 1) - n * _AT_END) * log_lam[:, None]
        re = terms.real
        top = np.maximum(np.maximum(np.maximum(re[0], re[1]), re[2]), re[3])
        # the mode sum written out as (x0 + x1) + (x2 + x3), the order numpy
        # 2.4's axis sum takes on x86-64; an axis sum's order is numpy's choice
        x = np.exp(terms - top)
        total = (x[0] + x[1]) + (x[2] + x[3])
        # ln|x_j[2]| in real arithmetic: the phase of the complex log is not read
        log_mags = top + np.log(np.abs(total))
    log_mags[0] = 0.0  # the unit input, exact by the boundary condition

    j = np.arange(n) - (n - 1) / 2
    slope = 12 * float(j @ log_mags[:n]) / (n * (n * n - 1))
    return ChainProfile(
        f=float(f_row),
        n_cells=n,
        magnitudes=np.exp(log_mags),
        fitted_slope=slope,
        eigen_slope=math.log(abs(complex(lam_flex))) if lam_flex else -math.inf,
        reflection=complex(v[:, 0] @ (c * at_0)),
        transmission=complex(np.exp(top[n]) * total[n]),
        log_magnitudes=log_mags,
    )


def field_profile(
    cell: UnitCellGeometry,
    f: float,
    amplitudes: np.ndarray,
    x_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transverse displacement v(x) across one cell from a left-edge state.

    x runs over [-L/2, L/2] with the rod centered at 0; the left and right
    trench spans carry four-component fields and the piston region |x| < a/2
    moves uniformly.  Continuity of value, slope and curvature across the
    piston and the shear jump proportional to sigma are inherited from the
    cell matrices.  The amplitudes must be a finite 4-vector; where they
    carry the field out of the floating-point range a NumericError names f.
    """
    x_samples = count(x_samples, "field_profile", "x_samples")
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("field_profile: amplitudes must be a 4-vector")
    if not np.isfinite(psi).all():
        raise ValueError("field_profile: amplitudes must be finite")
    f = frequency_row(f, "field_profile").item()
    mats = cell_matrices(cell, f)
    k = mats.k
    a = cell.rod_width
    L = cell.cell_length
    x = np.linspace(-L / 2.0, L / 2.0, x_samples)
    # the piston moves with the left span's value at its left face
    right = x > a / 2.0
    x_eval = np.where(~right & (x >= -a / 2.0), -a / 2.0, x)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        t_raw = mats.D @ psi
        coeffs = np.where(right[:, None], mats.C @ t_raw, t_raw)
        v = np.sum(coeffs * translation_phases(k * x_eval), axis=1)
    if not np.isfinite(v).all():
        raise NumericError(f"field_profile: displacement is not finite at f={f!r} Hz")
    return x, v
