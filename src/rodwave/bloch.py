"""Bloch eigen-analysis of the cell transfer matrix.

The transfer matrix of a lossless reciprocal cell has eigenvalues in
reciprocal pairs (lambda, 1/lambda), so its characteristic quartic is
palindromic and reduces through y = lambda + 1/lambda to a quadratic

    y^2 - su y + pr = 0,
    su = 2 cos kL + 2 cosh kL + (sigma/2)(sinh kL - sin kL),
    pr = 4 cos kL cosh kL + sigma (cos kL sinh kL - sin kL cosh kL).

Its roots are taken from this closed form, stably: the root without
cancellation from the quadratic formula, the other one as pr / root.  Each
y-root gives a reciprocal pair of Bloch factors.  The transmitted pair is
the least attenuated one: the pair whose |lambda| <= 1 member has the larger
modulus (Mead, J. Sound Vib. 27(2), 1973).  Its factor with |lambda| <= 1
gives the transmission T = |lambda| per cell and the effective wavevector
k_ef = ln(lambda)/(iL); a point is in a stopband when no factor lies on the
unit circle.  In a passband the direction is fixed by limiting absorption:
the transmitted factor is the member of the unit-modulus pair whose modulus
shrinks under omega -> omega (1 + i eps), eps -> 0+.  To first order that is
the member with Im(lambda) dy/domega < 0, and dy/domega follows from the
quadratic in real arithmetic: y' = (y su' - pr') / (y - y_other).

The cell matrix is T = diag(p) + (sigma/4) u w^T, with p = (e^{-ikL}, e^{kL},
e^{ikL}, e^{-kL}), w the same at kL/2 and u = w * (-i, 1, i, -1).  A Bloch
factor lambda has the eigenvector (lambda - p)^-1 u, and the reflection
Gamma of a semi-infinite chain is a 2x2 Cramer solve on two of them.

A finite chain of n cells, driven by a unit propagating wave at boundary 0
and matched after the last cell, is a sum over the four Bloch modes, each
referenced at the end it decays from; one 4x4 solve gives the coefficients.

Every entry point evaluates the pipeline in two parts over an array of
frequencies: a cell-dependent front (``_front``: k, the clamped sigma, L)
and one cell-free Bloch stage, run over the front as far as a result needs:
roots and stopband test (``_pairs``), passband direction (``_transmitted``,
the one user of omega dsigma/domega), ``_reflection`` and the columns of the
table (``_columns``).  The front reads one cell's constants as one-element
arrays (``UnitCellGeometry._operands``).  Several cells make one front, over
their constants repeated per point (``cell.stacked_cells``), so
``sweep_cells`` runs the front and the stopband test once each for a whole
geometry sweep.  The full table is a ``Sweep``, and ``bloch_point`` reads its
one row from the columns on a one-element array.  The stage builds no 4x4
matrix and makes no LAPACK call: every step is elementwise, with sums over
the four components written out, so a point's outputs do not depend on the
batch it was evaluated in.

Each run of the stage enters one np.errstate (``_quiet``), where the entry
point starts it: overflow and 0/0 in the front, the roots and Gamma are left
to the stage's own finiteness checks, and the chain's log 0 is exact.  The
eigen-check and the table assembly run after the block.
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
    forcing_arrays,
    sigma_slope_arrays,
    stacked_cells,
    translation_phases,
)
from .errors import FOUR, ONE, THREE, TWO, ZERO, constant, frequency_row, non_finite_error
from .trench import flexural_wavevectors

TOL_BAND = 1e-6  # in_stopband when 1 - |lambda_flex| exceeds this
EDGE_REFINE_HZ = 1e3  # band edges bisected down to this resolution
MARKER_MIN_REAL = 0.98  # smallest in-band max(Re Gamma) that counts as a marker
_INTERIOR_SAMPLES = 17  # uniform in-band samples of _gamma_extrema
_EDGE_OFFSETS = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2)  # edge samples, per band width
_TREE_LEVELS = 4  # bisection levels of every edge bracket per stage call
# the stage's ufunc operands (errors.constant), complex ones beside complex arrays
_C_ONE, _C_TWO, _C_FOUR = (constant(x, complex) for x in (1, 2, 4))
_STOP_BELOW, _ON_CIRCLE, _COMPLEX_BAND_TOL = map(constant, (1.0 - TOL_BAND, 1e-8, 1e-9))


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
    # True on the narrow in-gap segments where the two reciprocal pairs
    # collide into a complex quadruplet (hybridized decaying branches); there
    # Re(k_ef) L leaves the {0, pi} rays while Im(k_ef) stays positive.
    complex_band: bool = False


@dataclass(frozen=True, eq=False)
class Sweep:
    """Eigen-analysis over an array of frequencies: one column per BlochPoint
    field, under the same name, with eigenvalues of shape (n, 4).

    Iterating the table yields its BlochPoint rows.  Compared by identity:
    elementwise == on the columns has no single truth value.
    """

    f: np.ndarray
    eigenvalues: np.ndarray
    lambda_flex: np.ndarray
    t_coeff: np.ndarray
    r_coeff: np.ndarray
    k_ef: np.ndarray
    gamma: np.ndarray
    gamma_e: np.ndarray
    gamma_phase: np.ndarray
    in_stopband: np.ndarray
    k: np.ndarray
    sigma: np.ndarray
    reciprocity_defect: np.ndarray
    complex_band: np.ndarray

    def __len__(self) -> int:
        return self.f.size

    def __iter__(self):
        cols = [getattr(self, name).tolist() for name in _SWEEP_FIELDS]
        return (BlochPoint(f, tuple(ev), *rest) for f, ev, *rest in zip(*cols))


_SWEEP_FIELDS = tuple(field.name for field in dataclasses.fields(Sweep))


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


def _y_parts(kl):
    """kL-only parts of the closed form and of its slope, (c, ch, sn, sh, B, E):
    cos, cosh, sin and sinh of kL, with su = 2 c + 2 ch + (sigma/2) B and
    pr = 4 c ch + sigma E."""
    c, ch, sn, sh = np.cos(kl), np.cosh(kl), np.sin(kl), np.sinh(kl)
    return c, ch, sn, sh, sh - sn, c * sh - sn * ch


def _y_closed(parts, s) -> np.ndarray:
    """Closed-form y-roots ((su + disc)/2, (su - disc)/2), stacked on a new first axis.

    For real kL and sigma.  A real pair takes the root without cancellation
    from the quadratic formula and the other one as pr / root; a complex
    pair has no cancellation and stays exactly conjugate.  Only real
    arithmetic is used.
    """
    c, ch, _, _, B, E = parts
    su = TWO * c + TWO * ch + (s / TWO) * B
    pr = FOUR * c * ch + s * E
    disc2 = su * su - FOUR * pr
    d = np.sqrt(np.abs(disc2))
    big = (su + np.copysign(d, su)) / TWO
    small = pr / big
    both = np.array([big, small], dtype=complex)
    y = np.where(su >= ZERO, both, both[::-1])
    pair = disc2 < ZERO
    if np.count_nonzero(pair):
        y.real[:, pair] = su[pair] / TWO
        y.imag[0][pair] = d[pair] / TWO
        y.imag[1][pair] = -d[pair] / TWO
    return y


def _lambda_pairs(y):
    """Roots of lambda^2 - y lambda + 1 = 0 as (outer, inner), |outer| >= |inner|."""
    root = np.sqrt(y * y - _C_FOUR)
    lp = (y + root) / _C_TWO
    lm = (y - root) / _C_TWO
    outer = np.where(np.abs(lp) >= np.abs(lm), lp, lm)
    return outer, _C_ONE / outer


def _y_slope(kl, s, ds, parts, y):
    """omega dy/domega of the first root in y (n, 2), times |y0 - y1| (0 where
    the real parts meet), in real arithmetic; ds = omega dsigma/domega and
    parts are _y_parts of kL.

    From y^2 - su y + pr = 0, y' = (y su' - pr') / (2y - su), and 2y - su is
    y0 - y1 because su is the sum of the roots; omega (kL)' = kL/2.
    """
    c, ch, sn, sh, B, E = parts
    half = kl / TWO
    dsu = half * (TWO * B + (s / TWO) * (ch - c)) + (ds / TWO) * B
    dpr = half * (FOUR * E - TWO * s * sn * sh) + ds * E
    y0, y1 = y.real.T
    return np.sign(y0 - y1) * (y0 * dsu - dpr)


_COMPONENTS = np.arange(4)


def _sum4(x: np.ndarray) -> np.ndarray:
    """Sum over a last axis of 4, written out: an axis reduction may add in
    an order that depends on the batch size."""
    return x[..., 0] + x[..., 1] + x[..., 2] + x[..., 3]


def _eigenvectors(kl, lam):
    """(v, w, lam - p_near): the eigenvectors of T for the Bloch factors lam.

    Each eigenvector (lam - p)^-1 u is scaled by lam - p_near, p_near the
    entry of p nearest lam, so it stays finite where lam rounds onto p.  lam
    has the shape of kl with any leading axes; v runs along a new last axis
    of 4.  With the scaled v, T v - lam v = ((sigma/4) w.v - (lam - p_near)) u
    exactly.
    """
    p, w = translation_phases(np.array([kl, kl / TWO]))
    # each component's response to the shear jump is lambda_j / k, its phase rate
    u = w * _PHASE_RATES
    gap = lam[..., None] - p
    near = _COMPONENTS == np.abs(gap).argmin(axis=-1)[..., None]
    g_near = gap[near].reshape(lam.shape)  # lam - p_near, one per row
    v = u * np.where(near, _C_ONE, g_near[..., None] / np.where(near, _C_ONE, gap))
    return v, w, g_near


@dataclass
class _Front:
    """The cell-dependent inputs of the Bloch stage, one entry per frequency."""

    f: np.ndarray
    k: np.ndarray
    sigma: np.ndarray  # clamped; 0 without coupling
    L: float | np.ndarray  # cell length: a float or one-element array, or one per point
    # read by _transmitted for omega dsigma/domega, so one cell there; stacked_cells
    # of several only in fronts that stop at _pairs (sweep_cells); None uncoupled
    cell: UnitCellGeometry | SimpleNamespace | None


def _quiet() -> np.errstate:
    """The one np.errstate of a run of the Bloch stage, entered by the entry
    point that starts the run: over the front and the stage steps whose
    non-finite results the stage's own checks report (the roots and Gamma,
    _require_finite) or handle (the chain's log 0).  The eigen-check
    (_backward_error) and the table assembly run after it, so a warning there
    still surfaces."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _front(
    cell: UnitCellGeometry | SimpleNamespace, f: np.ndarray, *, force_zero_coupling: bool = False
) -> _Front:
    """The front of one cell over an array of frequencies f > 0, or of
    stacked_cells of several over their grids end to end; the entry points
    hand it a cell's _operands, the same constants as arrays.  Where 2 pi f or
    k**3 overflows, k or sigma is inf or NaN, and so are the roots, which the
    stage reports (_pairs); the rod layer raises where its phase overflows.
    Run under the stage's _quiet."""
    if force_zero_coupling:
        k = flexural_wavevectors(cell.trench, f)
        return _Front(f, k, np.zeros(f.shape), cell.cell_length, None)
    k, _, sigma = forcing_arrays(cell, f)
    return _Front(f, k, clamped_sigma(sigma), cell.cell_length, cell)


def _pairs(fr: _Front):
    """(kL, parts, y, outer, inner, |inner|, T, in_stopband): _y_parts of kL,
    the y-roots and their Bloch pairs, each (n, 2) in _y_closed order, T =
    min(|inner|, 1) of the least-attenuated pair and the stopband test.
    NumericError where the roots overflow, which _quiet leaves to this check.
    The test needs no passband direction: that picks a member on the unit
    circle, where T >= 1 - 1e-8.
    """
    kl = fr.k * fr.L
    parts = _y_parts(kl)
    y = _y_closed(parts, fr.sigma).T
    outer, inner = _lambda_pairs(y)
    _require_finite(fr.f, kl, outer, "Bloch roots")
    mod = np.abs(inner)
    t = np.minimum(np.maximum(mod[:, 0], mod[:, 1]), ONE)
    return kl, parts, y, outer, inner, mod, t, t < _STOP_BELOW


def _transmitted(fr: _Front):
    """(kL, y, outer, inner, lambda_flex, T, in_stopband): the pairs of _pairs
    with the transmitted one, whose inner factor has the larger modulus, in
    column 0 (on a tie the _y_closed order stands), the transmitted factor,
    T = min(|lambda_flex|, 1) and the stopband test of _pairs."""
    kl, parts, y, outer, inner, mod, _, stop = _pairs(fr)
    swap = mod[:, 1] > mod[:, 0]
    swaps = np.count_nonzero(swap)
    if swaps == swap.size:  # at every point: the columns reversed, as views
        y, outer, inner = y[:, ::-1], outer[:, ::-1], inner[:, ::-1]
    elif swaps:
        swap = swap[:, None]
        y, outer, inner = (np.where(swap, x[:, ::-1], x) for x in (y, outer, inner))
    # stopband: the decaying member; passband: the member whose modulus shrinks
    # under omega -> omega (1 + i eps), to first order the one with
    # Im(lambda) dy/domega < 0; where that product is 0 (lambda = +-1, or a
    # flat y) the inner member stays
    out0, lam = outer[:, 0], inner[:, 0]
    band = np.abs(np.abs(out0) - ONE) <= _ON_CIRCLE
    if np.count_nonzero(band):
        ds = ZERO if fr.cell is None else sigma_slope_arrays(fr.cell, fr.f, fr.k, fr.sigma)
        # the slope is read only at passband points, and may overflow at the others
        slope = _y_slope(kl, fr.sigma, ds, parts, y)
        lam = np.where(band & (lam.imag * slope > ZERO), out0, lam)
    mod = np.abs(lam)
    over = mod > ONE
    if np.count_nonzero(over):  # keep |lambda| <= 1 against rounding
        lam = np.where(over, lam / mod, lam)
        mod = np.abs(lam)
    return kl, y, outer, inner, lam, np.minimum(mod, ONE), stop


def _reflection(fr: _Front, transmitted):
    """(Gamma, Gamma_e, eigenvectors) of a front from its _transmitted tuple,
    through two of its factors: the transmitted one and the inner factor of
    the other pair.  The eigenvectors are _eigenvectors of both, stacked on a
    first axis of 2.  NumericError where Gamma overflows.

    The interface state [Gamma, Gamma_e, 1, 0] (reflected, reflected
    near-field, unit incident, no incoming evanescent) lies in the span of
    the two eigenvectors: Cramer's rule on components 2 and 3.
    """
    kl, _, _, inner, lam, _, _ = transmitted
    eig = _eigenvectors(kl, np.array([lam, inner[:, 1]]))  # v of shape (2, n, 4)
    vf, ve = eig[0]
    # the numerators of Gamma and Gamma_e, then the determinant, per point; 0/0
    # where the two factors round together at small kL, reported just below
    cramer = vf[:, :3] * ve[:, 3:] - ve[:, :3] * vf[:, 3:]
    gammas = cramer[:, :2] / cramer[:, 2:]
    uncoupled = fr.sigma == ZERO
    if np.count_nonzero(uncoupled):
        # nothing reflects without coupling, where Gamma is finite: below the
        # small-kL floor the two pairs round together and it is 0/0 there too
        gammas[uncoupled & np.isfinite(gammas).all(axis=1)] = 0
    _require_finite(fr.f, kl, gammas, "Gamma")
    return gammas[:, 0], gammas[:, 1], eig


def _backward_error(kl, sigma, v, w, g_near):
    """The worse backward error of the two eigenpairs of _reflection."""
    s4 = sigma / FOUR
    # ||u|| / ||T||_F in closed form, with e = e^{-kL}: |u|^2 = |w|^2 is
    # (1, 1/e, 1, e), |T_ii| = |w_i|^2 |1 + (sigma/4) c_i| with c = _PHASE_RATES
    # and |T_ij| = |sigma/4| |w_i| |w_j| off the diagonal.  Times e^2,
    # ||u||^2 is e (1 + e)^2 and ||T||_F^2 is t_sq, both finite at any kL
    e = np.exp(-kl)
    t_sq = (
        (ONE + s4) ** 2 + FOUR * s4 * s4 * e * (ONE + e * e) + TWO * e * e * (ONE + THREE * s4 * s4)
        + e**FOUR * (ONE - s4) ** 2
    )
    scale = (ONE + e) * np.sqrt(e / t_sq)
    # w.v of both eigenpairs, then |v|^2 of both in the real parts
    sums = _sum4(np.concatenate([w * v, v * v.conj()]))
    resid = np.abs(s4 * sums[:2] - g_near) / np.sqrt(sums[2:].real)
    return scale * np.maximum(resid[0], resid[1])


def _columns(
    cell: UnitCellGeometry, f: np.ndarray, *, with_gamma: bool, force_zero_coupling: bool = False
) -> tuple:
    """The Bloch stage over frequencies f of one cell, as the columns of a
    Sweep table in field order: one run under one _quiet, then the
    eigen-check and the assembly.

    Re(k_ef) is 0: each caller sets its own 2 pi branch.  gamma, gamma_e,
    gamma_phase and reciprocity_defect are 0 without Gamma.  NumericError
    where roots or Gamma overflow.
    """
    with _quiet():
        fr = _front(cell._operands, f, force_zero_coupling=force_zero_coupling)
        transmitted = _transmitted(fr)
        reflection = _reflection(fr, transmitted) if with_gamma else None
    kl, y, outer, inner, lam, t, stop = transmitted
    if reflection is None:
        gamma = gamma_e = np.zeros(t.shape, dtype=complex)
        defect = phase = np.zeros(t.shape)
    else:
        gamma, gamma_e, (v, w, g_near) = reflection
        defect = _backward_error(kl, fr.sigma, v, w, g_near)
        phase = np.arctan2(gamma.imag, gamma.real)
    # (outer, inner) of the transmitted pair, then of the other pair
    eigenvalues = np.empty((t.size, 2, 2), dtype=complex)
    eigenvalues[:, :, 0] = outer
    eigenvalues[:, :, 1] = inner
    # Re(k_ef) is left to the callers; setting imag alone keeps a -0.0 that
    # re + 1j * im would turn into +0.0.  t > 0, as outer is finite
    k_ef = np.zeros(t.shape, dtype=complex)
    k_ef.imag = -np.log(t) / fr.L
    y_tr = y[:, 0]
    complex_band = np.abs(y_tr.imag) > _COMPLEX_BAND_TOL * np.maximum(ONE, np.abs(y_tr))
    return (
        f, eigenvalues.reshape(-1, 4), lam, t, ONE - t, k_ef, gamma, gamma_e, phase, stop,
        fr.k, fr.sigma, defect, complex_band,
    )


def _table(
    cell: UnitCellGeometry, f: np.ndarray, *, with_gamma: bool, force_zero_coupling: bool = False
) -> Sweep:
    """The columns of _columns as a Sweep table."""
    return Sweep(*_columns(cell, f, with_gamma=with_gamma, force_zero_coupling=force_zero_coupling))


def _require_finite(f: np.ndarray, kl: np.ndarray, values: np.ndarray, what: str) -> None:
    """NumericError naming the first frequency, and its kL, where values, one
    row per frequency, are not all finite; the error's row is that frequency's
    index."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite.reshape(f.size, -1).all(axis=1)))
        raise non_finite_error(what, f[i].item(), kl[i], row=i)


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
    arg = np.arctan2(lam.imag, lam.real).item()
    branch = round((k.item() * L - arg) / (2 * math.pi))
    k_ef.real = (arg + 2 * math.pi * branch) / L
    # the one row, read column by column: no Sweep is built for one point
    row = (lam, t, r, k_ef, gamma, gamma_e, phase, stop, k, sigma, defect, band)
    return BlochPoint(f_row.item(), tuple(eigenvalues[0].tolist()), *map(np.ndarray.item, row))


def semi_infinite_reflection(
    cell: UnitCellGeometry, f: float, *, force_zero_coupling: bool = False
) -> tuple[complex, complex]:
    """Reflection of a unit propagating wave off an infinite chain of cells.

    Returns (Gamma, Gamma_e), from the closed-form eigenvectors at f itself:
    they stay finite at band-edge degeneracies, so no frequency is nudged.
    """
    f_row = frequency_row(f, "semi_infinite_reflection")
    with _quiet():
        fr = _front(cell._operands, f_row, force_zero_coupling=force_zero_coupling)
        gamma, gamma_e, _ = _reflection(fr, _transmitted(fr))
    return complex(gamma[0]), complex(gamma_e[0])


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
    """The uniform frequency grid of a sweep; ValueError naming caller on bad bounds."""
    if not 0 < f_start < f_stop < math.inf:
        raise ValueError(f"{caller}: need 0 < f_start < f_stop < inf")
    if points < 2:
        raise ValueError(f"{caller}: points must be >= 2")
    return np.linspace(f_start, f_stop, points)


def sweep(cell: UnitCellGeometry, f_start: float, f_stop: float, points: int) -> Sweep:
    """Uniform frequency sweep with branch-continuous Re(k_ef) and Gamma, as one table."""
    sw = _table(cell, _grid(f_start, f_stop, points, "sweep"), with_gamma=True)
    L = cell.cell_length
    args = np.unwrap(np.angle(sw.lambda_flex))
    branch = _branch_indices(sw.in_stopband, sw.k * L - args)
    sw.k_ef.real = (args + 2 * math.pi * branch) / L
    return sw


def sweep_cells(
    cells: list[UnitCellGeometry], f_start: float, f_stop: float, points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, T, in_stopband) of the uniform frequency sweep of each cell, the
    grids end to end: one front, and the stage once as far as its stopband
    test (_pairs).  Rows i * points .. (i + 1) * points - 1 are, bit for bit,
    the in_stopband of cells[i]'s own table and its t_coeff at every stopband
    point.  A NumericError's row is its row in these columns.
    """
    f = np.tile(_grid(f_start, f_stop, points, "sweep_cells"), len(cells))
    with _quiet():
        return (f, *_pairs(_front(stacked_cells(cells, points), f))[-2:])


def _refine_edges(cell: UnitCellGeometry, brackets: np.ndarray) -> np.ndarray:
    """Bisect brackets, (m, 2) rows of (in-band end, out-of-band end), down to
    EDGE_REFINE_HZ, all at once; returns the midpoint of each final bracket.

    Each round splits every active bracket into 2^_TREE_LEVELS parts by
    repeated halving, each point 0.5 * (left + right) of its parent part, and
    tests its 2^_TREE_LEVELS - 1 inner points in one stage call.  Bisection
    by index on that grid, a step only while the bracket is wider than
    EDGE_REFINE_HZ, then takes the same midpoints and the same stop as one
    level per call.  The stopband test is the stage's (_pairs), as in
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
        with _quiet():
            stop = _pairs(_front(cell._operands, grid[:, 1:-1].ravel()))[-1].reshape(-1, parts - 1)
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
    att[positive] = -np.fromiter(map(math.log, t[positive].tolist()), float, positive.sum())
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
    one entry per band, from one stage call over every band's samples.

    Re(Gamma) approaches its extreme values very close to the band edges, so
    each band's 31 sorted samples mix _INTERIOR_SAMPLES uniform interior
    points with geometric offsets from both edges.
    """
    width = f_high - f_low
    offsets = np.multiply.outer(width, _EDGE_OFFSETS)
    interior = np.linspace(f_low + 0.05 * width, f_high - 0.05 * width, _INTERIOR_SAMPLES, axis=1)
    fs = np.concatenate([f_low[:, None] + offsets, f_high[:, None] - offsets, interior], axis=1)
    fs.sort(axis=1)
    with _quiet():
        fr = _front(cell._operands, fs.ravel())
        re = _reflection(fr, _transmitted(fr))[0].real.reshape(fs.shape)
    rows = np.arange(fs.shape[0])
    hi, lo = re.argmax(axis=1), re.argmin(axis=1)
    return fs[rows, hi], re[rows, hi], fs[rows, lo], re[rows, lo]


def band_gamma_extrema(
    cell: UnitCellGeometry, f_low: float, f_high: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """In-band extrema of Re(Gamma) as ((f_at_max, max), (f_at_min, min)): the
    one-band row of _gamma_extrema."""
    if not 0 < f_low < f_high < math.inf:
        raise ValueError("band_gamma_extrema: need 0 < f_low < f_high < inf")
    f_max, re_max, f_min, re_min = (
        x.item() for x in _gamma_extrema(cell, np.array([f_low], float), np.array([f_high], float))
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
    outer ones at boundary n.  The outer coefficients are carried as
    c' e^rho, rho = n ln|lambda| of the slower inner factor, so every power
    in the 4x4 system is at most 1 in modulus and no coefficient underflows
    for any chain length.  ln|x_j[2]| is a log-sum-exp over the modes, which
    tracks deep decay below the floating-point range.  The decay slope is the
    least-squares slope over boundaries 0..n-1; the terminal boundary is
    excluded because the matched exit locally distorts the profile.
    """
    f_row = frequency_row(f, "chain_profile")
    n = operator.index(n_cells)
    if n < 2:
        raise ValueError("chain_profile: n_cells must be >= 2")
    # the stage, through log 0 of the uncoupled modes at sigma == 0
    with _quiet():
        kl, y, outer, inner, lam_flex, _, _ = _transmitted(
            _front(cell._operands, f_row, force_zero_coupling=force_zero_coupling)
        )
        if y[0, 0] == y[0, 1]:
            # below the small-kL floor both pairs round onto lambda = 1: the four
            # modes are not independent, and bloch_point's Gamma is 0/0 there
            raise non_finite_error("Gamma", f_row.item(), kl[0])
        lam_flex = complex(lam_flex[0])
        lam = np.concatenate([inner[0], outer[0]])  # modes: inner, inner, outer, outer
        v = _eigenvectors(kl, lam[:, None])[0][:, 0]  # (mode, component)
        log_lam = np.log(lam)
        rho = n * float(log_lam[:2].real.max())
        # the powers lambda^(j - ref) at j = 0 and j = n, outer ones times e^rho
        # and the j = n rows divided by it
        at_0 = np.exp(np.concatenate([[0.0, 0.0], rho - n * log_lam[2:]]))
        at_n = np.exp(np.concatenate([n * log_lam[:2] - rho, [0.0, 0.0]]))
        c = np.linalg.solve(
            np.concatenate([v[:, 2:].T * at_0, v[:, :2].T * at_n]), [1.0, 0.0, 0.0, 0.0]
        )
        # ln x_j[2], a complex log-sum-exp over the modes at each boundary j
        terms = np.log(c * v[:, 2]) + np.array([0.0, 0.0, rho, rho])
        terms = terms + np.subtract.outer(np.arange(n + 1), [0, 0, n, n]) * log_lam
        re = terms.real
        top = np.maximum(np.maximum(np.maximum(re[:, 0], re[:, 1]), re[:, 2]), re[:, 3])
        # the mode sum written out as (x0 + x1) + (x2 + x3), the order numpy
        # 2.4's axis sum takes on x86-64; an axis sum's order is numpy's choice
        x = np.exp(terms - top[:, None])
        log_x = top + np.log((x[:, 0] + x[:, 1]) + (x[:, 2] + x[:, 3]))
    log_mags = log_x.real.copy()
    log_mags[0] = 0.0  # the unit input, exact by the boundary condition

    j = np.arange(n) - (n - 1) / 2
    slope = 12 * float(j @ log_mags[:n]) / (n * (n * n - 1))
    return ChainProfile(
        f=f_row.item(),
        n_cells=n,
        magnitudes=np.exp(log_mags),
        fitted_slope=slope,
        eigen_slope=math.log(abs(lam_flex)) if lam_flex else -math.inf,
        reflection=complex(v[:, 0] @ (c * at_0)),
        transmission=complex(np.exp(log_x[n])),
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
    cell matrices.
    """
    if x_samples < 2:
        raise ValueError("field_profile: x_samples must be >= 2")
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("field_profile: amplitudes must be a 4-vector")
    frequency_row(f, "field_profile")
    mats = cell_matrices(cell, f)
    k = mats.k
    a = cell.rod_width
    L = cell.cell_length
    t_raw = mats.D @ psi
    w_raw = mats.C @ t_raw

    x = np.linspace(-L / 2.0, L / 2.0, x_samples)
    # the piston moves with the left span's value at its left face
    right = x > a / 2.0
    x_eval = np.where(~right & (x >= -a / 2.0), -a / 2.0, x)
    coeffs = np.where(right[:, None], w_raw, t_raw)
    return x, np.sum(coeffs * translation_phases(k * x_eval), axis=1)
