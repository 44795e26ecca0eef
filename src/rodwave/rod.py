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

from .errors import TWO_PI, ZERO, NumericError, SingularFrequencyError, frequency_row
from .materials import LaminateSection, longitudinal_velocity

# |f - f_pole| below this fraction of c/h raises the near-pole flag; within
# 1e-12 of a pole the impedance is reported as a signed-infinite marker.
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
    """(Im Z_b, near-pole flag) over a 1-D array of frequencies f >= 0: the
    impedance of _pole_impedance, and the flag from its distance to the nearest
    pole."""
    im, distance = _pole_impedance(rod, f, TWO_PI * f)
    return im, distance < NEAR_POLE_WINDOW_FRACTION * rod.velocity / rod.height


def _pole_impedance(rod: RodModel, f: np.ndarray, omega: np.ndarray):
    """(Im Z_b, distance to the nearest pole) over a 1-D array of frequencies
    f >= 0 and their omega = 2 pi f, which the forcing shares
    (cell.forcing_arrays).

    The distance is to the nearest pole (2n-1)*c/(4h), n >= 1.  Within the
    exact-pole window Im Z_b is a signed-infinite marker, -inf where the
    tangent is >= 0.  The tangent is libm's (math.tan), not np.tan, whose SIMD
    kernels differ from it in the last bit on some hosts, and
    Im Z_b = 0.0 - rho A c tan, so that f = 0 gives +0.0.  The rod's constants
    are floats for one rod, or arrays for cell.stacked_cells of one cell or
    several; the arithmetic is elementwise either way.  Where the phase
    2 pi f h / c overflows, a NumericError names the first such f, with its
    index as the error's row; callers silence the overflow warning
    (np.errstate) that comes before it.
    """
    first, spacing = rod.first_pole, rod.first_zero  # poles are first_zero apart
    n = np.maximum(np.rint((f - first) / spacing), ZERO)
    distance = np.abs(f - (first + n * spacing))
    arg = omega / rod.velocity * rod.height
    try:
        tan = np.fromiter(map(math.tan, arg.tolist()), float, arg.size)
    except ValueError:  # math.tan(inf): above about 2.86e307 Hz 2 pi f overflows
        i = int(np.argmin(np.isfinite(arg)))
        raise NumericError(
            f"rod phase 2 pi f h / c leaves the floating-point range at f={f[i].item()!r} Hz",
            row=i,
        ) from None
    im = ZERO - rod.impedance_scale * tan
    exact = distance < rod.exact_pole_window
    if np.count_nonzero(exact):
        im[exact] = np.where(tan[exact] >= 0, -math.inf, math.inf)
    return im, distance


def _past_top(rod: RodModel, f: np.ndarray) -> np.ndarray:
    """Where f is past the rod's top frequency: the float spacing of f is wider
    than the exact-pole window (from 2^46 Hz on the default rod), so a distance
    to a pole there is rounding noise."""
    return np.spacing(f) > rod.exact_pole_window


def _impedance_rows(rod: RodModel, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_impedance_arrays for the rod's own outputs, whose markers and flags hold only
    up to the top frequency: past it a NumericError names the first such f, with
    its index as the error's row."""
    with np.errstate(over="ignore"):  # reported by _impedance_arrays
        im, flag = _impedance_arrays(rod, f)
    past = _past_top(rod, f)
    if np.count_nonzero(past):
        i = int(np.argmax(past))
        raise NumericError(
            "rod impedance: the float spacing of f is wider than the exact-pole window "
            f"1e-12 c/h past the rod's top frequency, at f={f[i].item()!r} Hz",
            row=i,
        )
    return im, flag


def _impedance_at(rod: RodModel, f: float, caller: str) -> tuple[float, bool]:
    """_impedance_rows at one frequency 0 <= f < inf, as (Im Z_b, near-pole flag)."""
    im, flag = _impedance_rows(rod, frequency_row(f, caller, dc=True))
    return im.item(), flag.item()


def near_pole(rod: RodModel, f: float) -> bool:
    """True when f falls inside the near-pole window around any impedance pole."""
    return _impedance_at(rod, f, "near_pole")[1]


def driving_impedance(rod: RodModel, f: float) -> complex:
    """Base driving impedance Z_b at frequency f, per unit width (kg m^-1 s^-1).

    Purely imaginary for real f.  Exactly at a tangent pole the function
    returns a signed-infinite marker instead of silently overflowing.
    """
    return complex(0.0, _impedance_at(rod, f, "driving_impedance")[0])


def rod_modeshape(
    rod: RodModel, f: float, f_amp: float, z_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertical displacement profile u_z(z) for a base force amplitude f_amp.

    Returns (z, u_z) with z sampled on [0, h].  The stress-free top face makes
    du_z/dz vanish at z = h for every valid frequency.  Where u_z leaves the
    floating-point range (at low f: below about 2.3e-151 Hz on the default rod
    with f_amp = 1), and past the rod's top frequency, a NumericError names f.
    """
    if z_samples < 2:
        raise ValueError("rod_modeshape: z_samples must be >= 2")
    frequency_row(f, "rod_modeshape")
    if near_pole(rod, f):
        raise SingularFrequencyError(
            f"rod_modeshape: f={f} is within the near-pole window of Z_b"
        )
    omega = 2.0 * math.pi * f
    k_rod = omega / rod.velocity
    h = rod.height
    z = np.linspace(0.0, h, z_samples)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # reported below
        u = -f_amp / (omega * rod.impedance_scale) * (
            np.sin(k_rod * z) + np.cos(k_rod * z) / math.tan(k_rod * h)
        )
    if not np.isfinite(u).all():
        raise NumericError(f"rod_modeshape: displacement is not finite at f={f!r} Hz")
    return z, u.astype(complex)


def impedance_extrema(rod: RodModel, f_max_search: float) -> list[tuple[float, str]]:
    """Zeros and poles of Z_b up to f_max_search, sorted ascending.

    They share one quarter-wave lattice m*c/(4h), m >= 1: odd m is a pole
    and even m a zero (n*c/(2h) with n = m/2, exactly), so they alternate
    (pole, zero, pole, ...).
    """
    if not 0 < f_max_search < math.inf:
        raise ValueError("impedance_extrema: f_max_search must be > 0 and finite")
    out: list[tuple[float, str]] = []
    m = 1
    while (f := m * rod.velocity / (4.0 * rod.height)) <= f_max_search:
        out.append((f, "zero" if m % 2 == 0 else "pole"))
        m += 1
    return out
