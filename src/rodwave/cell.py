"""Scattering coefficients and 4x4 matrices of one rod-on-beam unit cell.

Conventions
-----------
Time dependence is e^{-i omega t}, so velocity = -i omega * displacement.
The transverse field in a uniform trench span is a superposition of four
components, ordered everywhere in this package as

    index 0: e^{-ikx}   propagating
    index 1: e^{+kx}    growing evanescent
    index 2: e^{+ikx}   propagating (opposite direction)
    index 3: e^{-kx}    decaying evanescent

A state vector holds the four complex amplitudes at a reference plane.  The
rod couples to the beam through a rigid piston of width a: displacement,
slope and curvature carry across the piston unchanged, while the shear
(third derivative) jumps by sigma * k^3 times the piston displacement, with
sigma the dimensionless dynamic stiffness of the rod.

The scattering matrix G relates the four components heading toward the
piston to the four heading away; the coupling matrix C rearranges the same
relation into a transfer map from the full state on the left of the piston
to the full state on its right.  Translating by half a cell on each side
(diagonal matrix D with phase phi = k(L+a)/2) yields the cell transfer
matrix T = D C D, which maps the state at the left cell edge to the state
at the right cell edge.  At zero coupling T is exactly
diag(e^{-ikL}, e^{+kL}, e^{+ikL}, e^{-kL}).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .errors import (
    THREE,
    TWO,
    TWO_PI,
    ConfigError,
    constant,
    count_true,
    frequency_row,
    non_finite_error,
)
from .rod import RodModel, _pole_impedance
from .trench import TrenchModel, _omega_wavevectors

# working clamp so that characteristic-polynomial arithmetic stays finite
# when sigma is evaluated essentially on a pole
SIGMA_CLAMP = 1e12
_CLAMP_LOW, _CLAMP_HIGH = constant(-SIGMA_CLAMP), constant(SIGMA_CLAMP)

# the constants of a cell that forcing_arrays and the rod and trench formulas
# under it read, in the order they read them, as attribute paths on the cell
_CONSTANTS = (
    "rod.velocity", "rod.height", "rod.first_pole", "rod.first_zero", "rod.exact_pole_window",
    "rod.impedance_scale", "trench.bending_stiffness", "trench.wavevector_num",
    "trench.wavevector_den", "cell_length",
)


@dataclass(frozen=True)
class UnitCellGeometry:
    """One periodic cell: rod of width a centered in a cell of pitch L."""

    rod_width: float  # a (m)
    cell_length: float  # L (m)
    trench: TrenchModel
    rod: RodModel

    def __post_init__(self) -> None:
        if not 0 < self.rod_width < self.cell_length:
            raise ConfigError(
                f"unit cell requires 0 < a < L, got a={self.rod_width}, "
                f"L={self.cell_length}"
            )

    @cached_property
    def _operands(self) -> SimpleNamespace:
        """The constants the front reads, those of stacked_cells, as numpy
        float64 scalars (its one column taken by a scalar owner), built on
        first use and kept.  On a one-point scalar f the front then runs
        numpy's scalar math, and over an array f they broadcast.  A ufunc
        converts a Python float operand on every call (NEP 50); a numpy scalar
        gives the same bits without that, and is immutable."""
        return stacked_cells(constants_table([self]), 0)


@dataclass(frozen=True)
class ScatterCoeffs:
    """Amplitude scattering coefficients of the loaded piston at one frequency.

    r, t            propagating -> propagating reflection / transmission
    r_ef = t_ef     evanescent -> propagating conversion
    r_fe = t_fe     propagating -> evanescent conversion
    r_e, t_e        evanescent -> evanescent reflection / transmission
    f_eff           dynamic stiffness per unit width per unit displacement (N m^-2)
    sigma           f_eff normalized by E_t I_t k^3 (dimensionless)
    """

    r: complex
    t: complex
    r_ef: complex
    t_ef: complex
    r_fe: complex
    t_fe: complex
    r_e: complex
    t_e: complex
    f_eff: float
    sigma: float


@dataclass(frozen=True)
class CellMatrices:
    """Frequency-resolved G, C, D, T matrices of one unit cell."""

    G: np.ndarray
    C: np.ndarray
    D: np.ndarray
    T: np.ndarray
    f: float
    k: float
    phi: float
    sigma: float  # clamped, as assembled


def forcing_strength(cell: UnitCellGeometry, f: float) -> tuple[float, float]:
    """Dynamic stiffness of the rod on the piston: (f_eff, sigma) at frequency f.

    f_eff = -i omega Z_b is real for real f because Z_b is purely imaginary;
    sigma divides it by E_t I_t k^3.  Near an impedance pole both are huge;
    downstream consumers clamp sigma, or take its limits at an exact pole.
    """
    return _forcing_at(cell, f, "forcing_strength")[2:]


def _forcing_at(cell: UnitCellGeometry, f: float, caller: str) -> tuple[float, float, float, float]:
    """forcing_arrays at one frequency f > 0, as floats (f, k, f_eff, sigma),
    where f is errors.frequency_row's value: the one f the callers store and name.

    NumericError where sigma is NaN, infinite off a pole or 0 off a rod zero: at
    f ~ 1e-300 Hz k**3 underflows and sigma is 0/0; where k**3 overflows (from
    4.9e201 Hz on the default cell, past the rod's top frequency, which
    forcing_arrays refuses first) sigma is f_eff/inf: NaN under the rod's pole
    marker, 0 off it.  Under a finite k**3 the marker gives sigma = +-inf.
    """
    f = frequency_row(f, caller)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported just below
        f, k, f_eff, sigma = map(float, (f, *forcing_arrays(cell._operands, f)[:3]))
    if (math.isnan(sigma) or math.isinf(sigma) and math.isfinite(f_eff)
            or sigma == 0 and f_eff != 0):
        raise non_finite_error("sigma", f, k * cell.cell_length)
    return f, k, f_eff, sigma


def forcing_arrays(cell: SimpleNamespace, f: np.ndarray):
    """(k, f_eff, sigma, s0, phase) over an array of frequencies f > 0, or at a
    numpy scalar f, where it runs numpy's scalar math.

    f_eff = -i omega Z_b = omega Im(Z_b), with Im(Z_b) and the rod phase from
    the rod kernel (rod._pole_impedance), and its NumericError where the phase
    overflows or f is past the rod's top frequency.  At an exact pole its
    signed-infinite marker makes f_eff and sigma infinite; consumers clamp
    sigma or use its infinite limits.  sigma and s0 = omega rho A c / (E_t I_t
    k^3) share one E_t I_t k^3; s0 and the phase feed sigma_slope_arrays.  The
    cell may be several, stacked_cells of their constants_table with f their
    rows (the error's row is the failing entry of f), or one cell's _operands.
    """
    omega = TWO_PI * f  # one product for the rod phase, f_eff and k
    im, _, phase = _pole_impedance(cell.rod, f, omega)
    f_eff = omega * im
    k = _omega_wavevectors(cell.trench, omega)
    stiffness = cell.trench.bending_stiffness * np.power(k, THREE)
    return k, f_eff, f_eff / stiffness, omega * cell.rod.impedance_scale / stiffness, phase


def constants_table(cells: list[UnitCellGeometry]) -> np.ndarray:
    """The constants of the cells that forcing_arrays and the rod and trench
    formulas under it read, as one read-only float64 table: row i is
    _CONSTANTS[i], column j is cells[j]."""
    return constant([list(map(attrgetter(name), cells)) for name in _CONSTANTS], float)


def stacked_cells(table: np.ndarray, owner: np.ndarray) -> SimpleNamespace:
    """Several cells as one, for forcing_arrays and the rod and trench formulas
    under it, over rows of frequencies each of one cell, the cell of column
    owner[j] of their constants_table on row j; their front runs the whole
    Bloch stage.

    Each constant is a per-row array, a row of one np.take of the table's
    columns by owner, laid out as on a cell (rod.velocity, ..., cell_length);
    a scalar owner gives numpy scalars, as a cell's _operands.  Every formula
    is elementwise, so each row is bit for bit the one of its cell on its own
    grid.  The rows are read-only (errors.constant).
    """
    ns = SimpleNamespace(rod=SimpleNamespace(), trench=SimpleNamespace())
    for name, value in zip(_CONSTANTS, constant(np.take(table, owner, axis=1))):
        part, _, leaf = name.rpartition(".")
        setattr(getattr(ns, part) if part else ns, leaf, value)
    return ns


def sigma_slope_arrays(sigma: np.ndarray, s0: np.ndarray, phase: np.ndarray):
    """omega dsigma/domega from the (clamped) sigma and forcing_arrays' s0 and phase.

    sigma = -s0 tan(phase) with s0 > 0, and s0 scales as omega^-1/2, so
    omega sigma' = -sigma/2 - phase (s0 + sigma^2 / s0).  Written in sigma
    itself, it stays finite where sigma is clamped at a pole.
    """
    return -sigma / TWO - phase * (s0 + sigma * sigma / s0)


def _coeffs(k, a, sigma) -> np.ndarray:
    """The six closed-form coefficients (r, t, r_ef, r_fe, r_e, t_e) at one k, as
    an array: prefactor * e^{rate a k} * numerator / denominator with the
    constants below, accurate to rounding at any finite sigma.  At the exact-pole
    marker sigma = +-inf, their infinite-stiffness limits (virtual fixed constraint).
    """
    e = _COEFF_PREFACTOR * np.exp(a * k * _COEFF_RATE)
    if math.isinf(sigma):
        return e / _COEFF_DEN
    return e * (sigma + _COEFF_NUM) / (_COEFF_DEN * sigma + _COEFF_DEN_ADD)


# r = -(1-i) e^{-iak} s / (2s+4+4i),          t = (1+i)/2 e^{-iak} (s+4) / (s+2+2i)
# r_ef = -(1-i) e^{(1-i)ak/2} s / (2s+4+4i),  r_fe = -(1+i) e^{(1-i)ak/2} s / (2s+4+4i)
# r_e = -(1+i) e^{ak} s / (2s+4+4i),          t_e = (1-i)/2 e^{ak} (s+4i) / (s+2+2i)
_COEFF_PREFACTOR = constant([-(1 - 1j), 0.5 + 0.5j, -(1 - 1j), -(1 + 1j), -(1 + 1j), 0.5 - 0.5j])
_COEFF_RATE = constant([-1j, -1j, 0.5 - 0.5j, 0.5 - 0.5j, 1, 1])
_COEFF_NUM = constant([0, 4, 0, 0, 0, 4j])
_COEFF_DEN = constant([2, 1, 2, 2, 2, 1])
_COEFF_DEN_ADD = constant([4 + 4j, 2 + 2j, 4 + 4j, 4 + 4j, 4 + 4j, 2 + 2j])


def scatter_coefficients(cell: UnitCellGeometry, f: float) -> ScatterCoeffs:
    """Evaluate the closed-form scattering coefficients at frequency f.

    NumericError naming f and kL where e^{ak} leaves the floating-point range.
    """
    f, k, f_eff, sigma = _forcing_at(cell, f, "scatter_coefficients")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        six = _coeffs(k, cell.rod_width, sigma).tolist()
    if not all(map(cmath.isfinite, six)):
        raise non_finite_error("scattering coefficients", f, k * cell.cell_length)
    return _scatter_coeffs(six, f_eff, sigma)


def _scatter_coeffs(six, f_eff: float, sigma: float) -> ScatterCoeffs:
    """ScatterCoeffs of (r, t, r_ef, r_fe, r_e, t_e): the cell's mirror symmetry sets t_ef, t_fe."""
    r, t, r_ef, r_fe, r_e, t_e = six
    return ScatterCoeffs(r, t, r_ef, r_ef, r_fe, r_fe, r_e, t_e, f_eff, sigma)


# G = [[r, r_ef, t, t_ef], [r_fe, r_e, t_fe, t_e], [t, t_ef, r, r_ef], [t_fe, t_e, r_fe, r_e]]
# as indices into (r, t, r_ef, r_fe, r_e, t_e, t_ef, t_fe); the cell is mirror
# symmetric, so the same blocks appear twice
_G_INDEX = constant([[0, 2, 1, 6], [3, 4, 7, 5], [1, 6, 0, 2], [7, 5, 3, 4]])


def scattering_matrix(coeffs: ScatterCoeffs) -> np.ndarray:
    """Assemble the 4x4 G from the coefficients.

    G maps (incoming-left propagating/evanescent, incoming-right
    propagating/evanescent) amplitudes to the corresponding outgoing ones.
    """
    c = coeffs
    return np.array([c.r, c.t, c.r_ef, c.r_fe, c.r_e, c.t_e, c.t_ef, c.t_fe], dtype=complex)[
        _G_INDEX
    ]


def coupling_matrix(G: np.ndarray) -> np.ndarray:
    """Rearrange G into the left-to-right transfer map C across the piston.

    Writing the G relation blockwise with R (reflection-like) and M
    (transmission-like) 2x2 blocks, the state on the right of the piston
    follows from the state on its left as

        C = [[ M^-1,        -M^-1 R          ],
             [ R M^-1,       M - R M^-1 R    ]]

    in the (propagating, evanescent) x (toward, away) block grouping.
    """
    R = G[:2, :2]
    M = G[:2, 2:]
    Minv = np.linalg.inv(M)
    R_Minv = R @ Minv
    C = np.empty((4, 4), dtype=complex)
    C[:2, :2] = Minv
    C[:2, 2:] = -Minv @ R
    C[2:, :2] = R_Minv
    C[2:, 2:] = M - R_Minv @ R
    return C


def translation_phases(phi) -> np.ndarray:
    """(e^{-i phi}, e^{phi}, e^{i phi}, e^{-phi}) along a last axis, phi = k * distance.

    The diagonal of the uncoupled translation by that distance: D for half a
    cell plus half the piston, T itself for a whole cell at zero coupling.
    """
    return np.exp(np.multiply.outer(phi, _PHASE_RATES))


_PHASE_RATES = constant([-1j, 1, 1j, -1])


def propagation_matrix(phi: float) -> np.ndarray:
    """Diagonal half-cell translation D = diag(e^{-i phi}, e^{phi}, e^{i phi}, e^{-phi})."""
    return np.diag(translation_phases(phi))


def cell_matrices(cell: UnitCellGeometry, f: float) -> CellMatrices:
    """Assemble G, C, D and the cell transfer matrix T = D C D at frequency f."""
    f, k, f_eff, sigma = _forcing_at(cell, f, "cell_matrices")
    # the exact limits make the transmission block of G singular (the pinned
    # piston transmits value and near field dependently), so C could not be
    # formed; the clamp keeps it invertible within ~1e-12 of those limits
    sigma = clamped_sigma(sigma)
    phi = k * (cell.cell_length + cell.rod_width) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        G = scattering_matrix(_scatter_coeffs(_coeffs(k, cell.rod_width, sigma), f_eff, sigma))
        C = coupling_matrix(G)
        D = propagation_matrix(phi)
        T = D @ C @ D
    if not np.isfinite(T).all():
        raise non_finite_error("transfer matrix", f, k * cell.cell_length)
    return CellMatrices(G=G, C=C, D=D, T=T, f=f, k=k, phi=phi, sigma=float(sigma))


def clamped_sigma(sigma):
    """Clamp sigma to +-SIGMA_CLAMP so polynomial arithmetic stays finite
    (elementwise); sigma itself where no entry needs the clamp."""
    if count_true(np.abs(sigma) > _CLAMP_HIGH):
        return np.minimum(np.maximum(sigma, _CLAMP_LOW), _CLAMP_HIGH)
    return sigma
