"""Thickness-extensional dynamics of one rod: base impedance and mode shape.

The rod is a laminated bar vibrating along its height with a stress-free top
face.  Its base presents a purely imaginary driving impedance
Z_b(f) = -i rho A c tan(2*pi*f*h/c) per unit width; the zeros of Z_b leave the
beam below unconstrained while the poles act as a virtual fixed constraint.
The model is lossless, so Re(Z_b) = 0 for all real frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ONE,
    TWO_PI,
    ZERO,
    NumericError,
    SingularFrequencyError,
    count,
    count_true,
    finite_number,
    frequency_row,
    libm,
)
from .materials import LaminateSection, longitudinal_velocity

# |f - f_pole| below this fraction of c/h raises the near-pole flag, and
# |f - f_zero| below it is rod_modeshape's refusal; within 1e-12 of a pole the
# impedance is reported as a signed-infinite marker.
NEAR_POLE_WINDOW_FRACTION = 1e-4
_EXACT_POLE_FRACTION = 1e-12


@dataclass(frozen=True)
class RodModel:
    """Immutable rod description derived from its laminate section.

    The derived constants are computed on first use and kept: every
    evaluation of Z_b reads them.
    """

    section: LaminateSection

    @cached_property
    def height(self) -> float:
        """Rod height (m), equal to the section thickness."""
        return self.section.thickness

    @cached_property
    def velocity(self) -> float:
        """Longitudinal phase velocity in the rod (m/s)."""
        return longitudinal_velocity(self.section)

    @cached_property
    def impedance_scale(self) -> float:
        """rho A c per unit width, the magnitude scale of Z_b (kg m^-1 s^-1)."""
        return self.section.effective_rho * self.section.area_per_width * self.velocity

    @cached_property
    def first_pole(self) -> float:
        """Quarter-wave frequency c/(4h) where |Z_b| diverges (Hz)."""
        return self.velocity / (4.0 * self.height)

    @property
    def first_zero(self) -> float:
        """Half-wave frequency c/(2h) where Z_b vanishes (Hz), also the pole spacing."""
        return self.velocity / (2.0 * self.height)

    @cached_property
    def exact_pole_window(self) -> float:
        """1e-12 c/h (Hz): within this distance of a pole Z_b is a signed-infinite marker."""
        return _EXACT_POLE_FRACTION * self.velocity / self.height


def _impedance_arrays(rod: RodModel, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Im Z_b, near-pole flag) over a 1-D array or numpy scalar f >= 0, for the
    rod's outputs: _pole_impedance without the overflow warning its NumericError
    reports, and the flag from its distance to the nearest pole."""
    with np.errstate(over="ignore"):  # reported by _pole_impedance
        im, distance, _ = _pole_impedance(rod, f, TWO_PI * f)
    return im, distance < NEAR_POLE_WINDOW_FRACTION * rod.velocity / rod.height


def _pole_impedance(rod: RodModel, f: np.ndarray, omega: np.ndarray):
    """(Im Z_b, distance to the nearest pole, rod phase omega h / c) over a 1-D
    array of frequencies f >= 0, or a numpy scalar f, and their omega = 2 pi f:
    cell.forcing_arrays shares omega and hands the phase on to the passband
    slope.

    The distance is to the nearest pole (2n-1)*c/(4h), n >= 1.  Within the
    exact-pole window Im Z_b is a signed-infinite marker, -inf where the
    tangent is >= 0.  The tangent is libm's (errors.libm of math.tan), not
    np.tan, whose SIMD kernels differ from it in the last bit on some hosts, and
    Im Z_b = 0.0 - rho A c tan, so that f = 0 gives +0.0.  The rod's constants
    are floats for one rod, numpy scalars for a cell's _operands, or per-row
    arrays for several (cell.stacked_cells, one take of their constants_table's
    columns); the arithmetic is elementwise either way.  A
    NumericError names the first f where the phase 2 pi f h / c overflows, else
    the first f past the rod's top frequency (_past_top), with its index as the
    error's row (0 for a scalar), for every caller; callers silence the overflow
    warning (np.errstate) before it.
    """
    first, spacing = rod.first_pole, rod.first_zero  # poles are first_zero apart
    n = np.maximum(np.rint((f - first) / spacing), ZERO)
    distance = np.abs(f - (first + n * spacing))
    arg = omega / rod.velocity * rod.height
    try:
        tan = libm(math.tan, arg)
    except ValueError:  # math.tan(inf): above about 2.86e307 Hz 2 pi f overflows
        i = int(np.argmin(np.isfinite(arg)))
        raise NumericError(
            f"rod phase 2 pi f h / c leaves the floating-point range at f={f.flat[i].item()!r} Hz",
            row=i,
        ) from None
    past = _past_top(rod, f)
    if count_true(past):
        i = int(np.argmax(past))
        raise NumericError(
            "rod impedance: the float spacing of f is wider than the exact-pole window "
            f"1e-12 c/h past the rod's top frequency, at f={f.flat[i].item()!r} Hz",
            row=i,
        )
    im = ZERO - rod.impedance_scale * tan
    exact = distance < rod.exact_pole_window
    if count_true(exact):
        im = np.where(exact, np.where(tan >= ZERO, -math.inf, math.inf), im)
    return im, distance, arg


def _past_top(rod: RodModel, f: np.ndarray) -> np.ndarray:
    """Where f is past the rod's top frequency: the float spacing of f is wider
    than the exact-pole window (from 2^46 Hz on the default rod), so a distance
    to a pole there is rounding noise."""
    return np.spacing(f) > rod.exact_pole_window


def near_pole(rod: RodModel, f: float) -> bool:
    """True when f falls inside the near-pole window around any impedance pole."""
    return _impedance_arrays(rod, frequency_row(f, "near_pole", dc=True))[1].item()


def driving_impedance(rod: RodModel, f: float) -> complex:
    """Base driving impedance Z_b at frequency f, per unit width (kg m^-1 s^-1).

    Purely imaginary for real f.  Exactly at a tangent pole the function
    returns a signed-infinite marker instead of silently overflowing.
    """
    im, _ = _impedance_arrays(rod, frequency_row(f, "driving_impedance", dc=True))
    return complex(0.0, im.item())


def rod_modeshape(
    rod: RodModel, f: float, f_amp: float, z_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertical displacement profile u_z(z) for a base force amplitude f_amp.

    Returns (z, u_z) with z sampled on [0, h].  The stress-free top face makes
    du_z/dz vanish at z = h for every valid frequency.  f_amp is a finite real
    number (errors.finite_number).  Since u_z(0) (-i omega) / f_amp = 1 / Z_b,
    u_z diverges at the zeros n c/(2h), n >= 1, of Z_b and stays finite at its
    poles: within the near-pole window's width of a zero (1e-4 c/h) a
    SingularFrequencyError names f.  Where u_z leaves the floating-point range
    (at low f, towards the zero of Z_b at f = 0: below about 2.3e-151 Hz on
    the default rod with f_amp = 1), and past the rod's top frequency, a
    NumericError names f.
    """
    z_samples = count(z_samples, "rod_modeshape", "z_samples")
    f_amp = finite_number(f_amp, "rod_modeshape", "f_amp")
    f = frequency_row(f, "rod_modeshape")
    _impedance_arrays(rod, f)  # refuses an f past the rod's top frequency
    spacing = rod.first_zero
    zero = np.maximum(np.rint(f / spacing), ONE) * spacing  # the nearest n c/(2h), n >= 1
    if np.abs(f - zero) < NEAR_POLE_WINDOW_FRACTION * rod.velocity / rod.height:
        raise SingularFrequencyError(
            f"rod_modeshape: f={f.item()!r} Hz is within the near-zero window of Z_b,"
            " where the displacement under a base force diverges"
        )
    omega = TWO_PI * f  # as the rod kernel forms it
    k_rod = omega / rod.velocity
    h = rod.height
    z = np.linspace(0.0, h, z_samples)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # reported below
        u = -f_amp / (omega * rod.impedance_scale) * (
            np.sin(k_rod * z) + np.cos(k_rod * z) / math.tan(k_rod * h)
        )
    if not np.isfinite(u).all():
        raise NumericError(f"rod_modeshape: displacement is not finite at f={f.item()!r} Hz")
    return z, u.astype(complex)


def impedance_extrema(rod: RodModel, f_max_search: float) -> list[tuple[float, str]]:
    """Zeros and poles of Z_b up to f_max_search, sorted ascending.

    They share one quarter-wave lattice m*c/(4h), m >= 1: odd m is a pole
    and even m a zero (n*c/(2h) with n = m/2, exactly), so they alternate
    (pole, zero, pole, ...).  f_max_search goes through errors.frequency_row;
    one the rod refuses (_pole_impedance) is a NumericError: below the rod's
    top there are under about 36 000 extrema.
    """
    f_max_search = frequency_row(f_max_search, "impedance_extrema", "f_max_search")
    _impedance_arrays(rod, f_max_search)
    out: list[tuple[float, str]] = []
    m = 1
    while (f := m * rod.velocity / (4.0 * rod.height)) <= f_max_search:
        out.append((f, "zero" if m % 2 == 0 else "pole"))
        m += 1
    return out
