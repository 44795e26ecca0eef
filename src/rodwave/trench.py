"""Flexural-wave dispersion of the bare trench beam.

Only the lowest antisymmetric (flexural) branch is retained; the lateral
stretching branch is neglected because it does not couple to the vertical rod
motion.  The beam is Euler-Bernoulli: it drops shear and rotary inertia,
which is fair while k h_t stays well below 1, that is while the wavelength
over thickness stays above about THIN_BEAM_MIN_RATIO (Graff, Wave Motion in
Elastic Solids, 1975).  Thin-beam validity is not gated here: callers can
report wavelength-over-thickness so users see where the approximation is
strained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TWO_PI, NumericError, constant, frequency_row
from .materials import LaminateSection

THIN_BEAM_MIN_RATIO = 10.0  # lambda / h_t below which the thin-beam model is strained
_ROOT_FACTOR = constant(math.sqrt(2.0) * 3.0**0.25)  # the numeric factor of k's closed form


@dataclass(frozen=True)
class TrenchModel:
    """Immutable trench description derived from its laminate section."""

    section: LaminateSection

    @property
    def thickness(self) -> float:
        return self.section.thickness

    @cached_property
    def bending_stiffness(self) -> float:
        """E*I per unit width (N m), computed on first use and kept."""
        return self.section.effective_E * self.section.inertia_per_width

    @cached_property
    def wavevector_num(self) -> float:
        """rho^(1/4), the numerator factor of k / (sqrt(2) 3^(1/4) sqrt(omega))."""
        return self.section.effective_rho**0.25

    @cached_property
    def wavevector_den(self) -> float:
        """sqrt(h) E^(1/4), the denominator factor of k / (sqrt(2) 3^(1/4) sqrt(omega))."""
        return math.sqrt(self.section.thickness) * self.section.effective_E**0.25


def flexural_wavevector(trench: TrenchModel, f: float) -> float:
    """Real flexural wavevector k (rad/m) at frequency f > 0: the one-element
    row of flexural_wavevectors."""
    return _wavevector_at(trench, f, "flexural_wavevector").item()


def _wavevector_at(trench: TrenchModel, f: float, caller: str) -> np.ndarray:
    """flexural_wavevectors at one frequency 0 < f < inf, as a one-element row;
    NumericError naming f where k leaves the floating-point range (2 pi f
    overflows above about 2.86e307 Hz)."""
    with np.errstate(over="ignore"):  # reported just below
        k = flexural_wavevectors(trench, frequency_row(f, caller))
    if not np.isfinite(k[0]):
        raise NumericError(
            f"flexural wavevector leaves the floating-point range at f={float(f)!r} Hz"
        )
    return k


def flexural_wavevectors(trench: TrenchModel, f: np.ndarray) -> np.ndarray:
    """Real flexural wavevectors k (rad/m) over an array of frequencies f > 0.

    Closed form of the positive real root of E I k^4 = rho A omega^2 for the
    per-unit-width section, i.e.
    k = sqrt(2) * 3^(1/4) * sqrt(omega) * rho^(1/4) / (sqrt(h) * E^(1/4)).
    The trench's wavevector_num and wavevector_den are floats for one trench,
    or per-point arrays for several (cell.stacked_cells); the arithmetic is
    elementwise either way.
    """
    return _omega_wavevectors(trench, TWO_PI * f)


def _omega_wavevectors(trench: TrenchModel, omega: np.ndarray) -> np.ndarray:
    """flexural_wavevectors over the angular frequencies omega = 2 pi f."""
    return _ROOT_FACTOR * np.sqrt(omega) * trench.wavevector_num / trench.wavevector_den


def wavelength_over_thickness(trench: TrenchModel, f: float) -> float:
    """Flexural wavelength divided by trench thickness; small values strain the model."""
    k = _wavevector_at(trench, f, "wavelength_over_thickness")
    return _lambda_over_ht(trench, k).item()


def _lambda_over_ht(trench: TrenchModel, k: np.ndarray) -> np.ndarray:
    """2 pi / (k h_t) over an array of flexural wavevectors k of the trench."""
    return TWO_PI / k / trench.thickness
