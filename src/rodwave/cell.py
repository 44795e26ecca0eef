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
from types import SimpleNamespace

import numpy as np

from .errors import THREE, TWO, TWO_PI, ConfigError, constant, frequency_row, non_finite_error
from .rod import RodModel, _pole_impedance
from .trench import TrenchModel, _omega_wavevectors

# working clamp so that characteristic-polynomial arithmetic stays finite
# when sigma is evaluated essentially on a pole
SIGMA_CLAMP = 1e12
_CLAMP_LOW, _CLAMP_HIGH = constant(-SIGMA_CLAMP), constant(SIGMA_CLAMP)


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
        """stacked_cells of this cell alone over one point, built on first use
        and kept: the constants the front reads, as one-element arrays.  A ufunc
        converts a Python float operand on every call (NEP 50); a float64 array
        gives the same bits without that."""
        return stacked_cells([self], 1)


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
    return _forcing_at(cell, f, "forcing_strength")[1:]


def _forcing_at(cell: UnitCellGeometry, f: float, caller: str) -> tuple[float, float, float]:
    """forcing_arrays at one frequency f > 0, as floats (k, f_eff, sigma).

    NumericError where sigma is NaN, infinite off a pole or 0 off a rod zero: at
    f ~ 1e-300 Hz k**3 underflows and sigma is 0/0, and from about 4.9e201 Hz
    k**3 overflows and sigma is f_eff/inf: NaN under the rod's pole marker, 0
    off it.  Under a finite k**3 the marker gives sigma = +-inf.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported just below
        k, f_eff, sigma = (float(x[0]) for x in forcing_arrays(cell, frequency_row(f, caller)))
    if (math.isnan(sigma) or math.isinf(sigma) and math.isfinite(f_eff)
            or sigma == 0 and f_eff != 0):
        raise non_finite_error("sigma", float(f), k * cell.cell_length)
    return k, f_eff, sigma


def forcing_arrays(cell: UnitCellGeometry, f: np.ndarray):
    """(k, f_eff, sigma) over an array of frequencies f > 0.

    f_eff = -i omega Z_b = omega Im(Z_b), with Im(Z_b) from the rod layer's
    array evaluation.  At an exact pole its signed-infinite marker makes f_eff
    and sigma infinite; consumers clamp sigma or use its infinite limits.
    The cell may be stacked_cells of several, with f their grids end to end,
    or one cell's _operands.
    """
    omega = TWO_PI * f  # one product for the rod phase, f_eff and k
    f_eff = omega * _pole_impedance(cell.rod, f, omega)[0]
    k = _omega_wavevectors(cell.trench, omega)
    return k, f_eff, f_eff / (cell.trench.bending_stiffness * k**THREE)


def stacked_cells(cells: list[UnitCellGeometry], points: int) -> SimpleNamespace:
    """Several cells as one, for forcing_arrays, sigma_slope_arrays and the rod
    and trench formulas under them, over the cells' frequency grids laid end to
    end.  Several cells reach the Bloch stage only as far as its stopband test
    (bloch.sweep_cells), which needs no passband slope; one cell over one point
    is the cell's own _operands, which broadcast over any grid.

    Each constant those read is a per-point array: the value of cells[i] on rows
    i * points .. (i + 1) * points - 1.  Every formula is elementwise, so those
    rows are bit for bit the ones of cells[i] on its own grid.
    """

    def stack(parts, *names):
        return SimpleNamespace(
            **{name: np.repeat([getattr(p, name) for p in parts], points) for name in names}
        )

    return SimpleNamespace(
        rod=stack(
            [c.rod for c in cells],
            "velocity", "height", "first_pole", "first_zero", "exact_pole_window", "impedance_scale",
        ),
        trench=stack(
            [c.trench for c in cells], "bending_stiffness", "wavevector_num", "wavevector_den"
        ),
        cell_length=np.repeat([c.cell_length for c in cells], points),
    )


def sigma_slope_arrays(cell: UnitCellGeometry, f: np.ndarray, k: np.ndarray, sigma: np.ndarray):
    """omega dsigma/domega over arrays of f > 0, their k and their (clamped) sigma.

    sigma = -s0 tan(omega h / c) with s0 = omega rho A c / (E_t I_t k^3) > 0, and
    s0 scales as omega^-1/2, so omega sigma' = -sigma/2 - (omega h / c)(s0 + sigma^2 / s0).
    Written in sigma itself, it stays finite where sigma is clamped at a pole.
    """
    omega = TWO_PI * f
    s0 = omega * cell.rod.impedance_scale / (cell.trench.bending_stiffness * k**THREE)
    return -sigma / TWO - omega / cell.rod.velocity * cell.rod.height * (s0 + sigma * sigma / s0)


def _rational_coeffs(k, a, s) -> np.ndarray:
    """The six closed-form coefficients at one k and finite sigma, as an array.

    Order (r, t, r_ef, r_fe, r_e, t_e); each is prefactor * e^{rate a k} *
    numerator / denominator with the constants below.
    """
    e = np.exp(a * k * _COEFF_RATE)
    return _COEFF_PREFACTOR * e * (s + _COEFF_NUM) / (_COEFF_DEN * s + _COEFF_DEN_ADD)


# r = -(1-i) e^{-iak} s / (2s+4+4i),          t = (1+i)/2 e^{-iak} (s+4) / (s+2+2i)
# r_ef = -(1-i) e^{(1-i)ak/2} s / (2s+4+4i),  r_fe = -(1+i) e^{(1-i)ak/2} s / (2s+4+4i)
# r_e = -(1+i) e^{ak} s / (2s+4+4i),          t_e = (1-i)/2 e^{ak} (s+4i) / (s+2+2i)
_COEFF_PREFACTOR = np.array([-(1 - 1j), 0.5 + 0.5j, -(1 - 1j), -(1 + 1j), -(1 + 1j), 0.5 - 0.5j])
_COEFF_RATE = np.array([-1j, -1j, 0.5 - 0.5j, 0.5 - 0.5j, 1, 1])
_COEFF_NUM = np.array([0, 4, 0, 0, 0, 4j])
_COEFF_DEN = np.array([2, 1, 2, 2, 2, 1])
_COEFF_DEN_ADD = np.array([4 + 4j, 2 + 2j, 4 + 4j, 4 + 4j, 4 + 4j, 2 + 2j])


def _coeffs_from_sigma(k: float, a: float, sigma: float) -> tuple[complex, ...]:
    """The six closed-form coefficients (r, t, r_ef, r_fe, r_e, t_e): the
    rational form, accurate to rounding at any finite sigma."""
    if math.isinf(sigma):
        # the exact-pole marker: the infinite-stiffness limits (virtual fixed
        # constraint), sigma -> inf in _rational_coeffs
        coeffs = _COEFF_PREFACTOR * np.exp(a * k * _COEFF_RATE) / _COEFF_DEN
    else:
        coeffs = _rational_coeffs(k, a, sigma)
    return tuple(coeffs.tolist())


def scatter_coefficients(cell: UnitCellGeometry, f: float) -> ScatterCoeffs:
    """Evaluate the closed-form scattering coefficients at frequency f.

    NumericError naming f and kL where e^{ak} leaves the floating-point range.
    """
    k, f_eff, sigma = _forcing_at(cell, f, "scatter_coefficients")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        six = _coeffs_from_sigma(k, cell.rod_width, sigma)
    if not all(map(cmath.isfinite, six)):
        raise non_finite_error("scattering coefficients", float(f), k * cell.cell_length)
    return _scatter_coeffs(six, f_eff, sigma)


def _scatter_coeffs(six, f_eff: float, sigma: float) -> ScatterCoeffs:
    """ScatterCoeffs of (r, t, r_ef, r_fe, r_e, t_e): the cell's mirror symmetry sets t_ef, t_fe."""
    r, t, r_ef, r_fe, r_e, t_e = six
    return ScatterCoeffs(r, t, r_ef, r_ef, r_fe, r_fe, r_e, t_e, f_eff, sigma)


def _assembly_coeffs(k, a, sigma) -> tuple:
    """Coefficients for matrix assembly: clamped sigma instead of exact limits.

    The exact infinite-stiffness limit makes the transmission block of G
    singular (the pinned piston transmits value and near field dependently),
    which would break the rearrangement into C.  Clamping sigma keeps the
    block invertible while staying within ~1e-12 of the limit coefficients.
    """
    return tuple(_rational_coeffs(k, a, clamped_sigma(sigma)))


# G = [[r, r_ef, t, t_ef], [r_fe, r_e, t_fe, t_e], [t, t_ef, r, r_ef], [t_fe, t_e, r_fe, r_e]]
# as indices into (r, t, r_ef, r_fe, r_e, t_e, t_ef, t_fe); the cell is mirror
# symmetric, so the same blocks appear twice
_G_INDEX = np.array([[0, 2, 1, 6], [3, 4, 7, 5], [1, 6, 0, 2], [7, 5, 3, 4]])


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


_PHASE_RATES = np.array([-1j, 1, 1j, -1])


def propagation_matrix(k: float, phi: float) -> np.ndarray:
    """Diagonal half-cell translation D = diag(e^{-i phi}, e^{phi}, e^{i phi}, e^{-phi})."""
    return np.diag(translation_phases(phi))


def cell_matrices(cell: UnitCellGeometry, f: float) -> CellMatrices:
    """Assemble G, C, D and the cell transfer matrix T = D C D at frequency f."""
    k, f_eff, sigma = _forcing_at(cell, f, "cell_matrices")
    phi = k * (cell.cell_length + cell.rod_width) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        six = _assembly_coeffs(k, cell.rod_width, sigma)
        G = scattering_matrix(_scatter_coeffs(six, f_eff, sigma))
        C = coupling_matrix(G)
        D = propagation_matrix(k, phi)
        T = D @ C @ D
    if not np.isfinite(T).all():
        raise non_finite_error("transfer matrix", float(f), k * cell.cell_length)
    return CellMatrices(G=G, C=C, D=D, T=T, f=f, k=k, phi=phi, sigma=float(clamped_sigma(sigma)))


def clamped_sigma(sigma):
    """Clamp sigma to +-SIGMA_CLAMP so polynomial arithmetic stays finite (elementwise)."""
    return np.minimum(np.maximum(sigma, _CLAMP_LOW), _CLAMP_HIGH)
