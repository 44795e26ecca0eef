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

import numpy as np

from .errors import SingularFrequencyError
from .materials import LaminateSection, longitudinal_velocity

# |f - f_pole| below this fraction of c/h raises the near-pole flag; within
# 1e-12 of a pole the impedance is reported as a signed-infinite marker.
NEAR_POLE_WINDOW_FRACTION = 1e-4
_EXACT_POLE_FRACTION = 1e-12


@dataclass(frozen=True)
class RodModel:
    """Immutable rod description derived from its laminate section."""

    section: LaminateSection

    @property
    def height(self) -> float:
        """Rod height (m), equal to the section thickness."""
        return self.section.thickness

    @property
    def velocity(self) -> float:
        """Longitudinal phase velocity in the rod (m/s)."""
        return longitudinal_velocity(self.section)

    @property
    def impedance_scale(self) -> float:
        """rho A c per unit width, the magnitude scale of Z_b (kg m^-1 s^-1)."""
        return self.section.effective_rho * self.section.area_per_width * self.velocity

    @property
    def first_pole(self) -> float:
        """Quarter-wave frequency c/(4h) where |Z_b| diverges (Hz)."""
        return self.velocity / (4.0 * self.height)

    @property
    def first_zero(self) -> float:
        """Half-wave frequency c/(2h) where Z_b vanishes (Hz)."""
        return self.velocity / (2.0 * self.height)


def _pole_distance(rod: RodModel, f: float) -> float:
    """Distance from f to the nearest pole (2n-1)*c/(4h), n >= 1."""
    spacing = rod.velocity / (2.0 * rod.height)  # pole-to-pole spacing
    first = rod.first_pole
    n = round((f - first) / spacing)
    nearest = first + max(n, 0) * spacing
    return abs(f - nearest)


def near_pole(rod: RodModel, f: float) -> bool:
    """True when f falls inside the near-pole window around any impedance pole."""
    window = NEAR_POLE_WINDOW_FRACTION * rod.velocity / rod.height
    return _pole_distance(rod, f) < window


def driving_impedance(rod: RodModel, f: float) -> complex:
    """Base driving impedance Z_b at frequency f, per unit width (kg m^-1 s^-1).

    Purely imaginary for real f.  Exactly at a tangent pole the function
    returns a signed-infinite marker instead of silently overflowing.
    """
    if f < 0:
        raise ValueError("driving_impedance: f must be >= 0")
    arg = 2.0 * math.pi * f / rod.velocity * rod.height
    if _pole_distance(rod, f) < _EXACT_POLE_FRACTION * rod.velocity / rod.height:
        sign = 1.0 if math.tan(arg) >= 0 else -1.0
        return complex(0.0, -sign * math.inf)
    return -1j * rod.impedance_scale * math.tan(arg)


def rod_modeshape(
    rod: RodModel, f: float, f_amp: float, z_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertical displacement profile u_z(z) for a base force amplitude f_amp.

    Returns (z, u_z) with z sampled on [0, h].  The stress-free top face makes
    du_z/dz vanish at z = h for every valid frequency.
    """
    if z_samples < 2:
        raise ValueError("rod_modeshape: z_samples must be >= 2")
    if near_pole(rod, f):
        raise SingularFrequencyError(
            f"rod_modeshape: f={f} is within the near-pole window of Z_b"
        )
    omega = 2.0 * math.pi * f
    k_rod = omega / rod.velocity
    h = rod.height
    z = np.linspace(0.0, h, z_samples)
    u = -f_amp / (omega * rod.impedance_scale) * (
        np.sin(k_rod * z) + np.cos(k_rod * z) / math.tan(k_rod * h)
    )
    return z, u.astype(complex)


def impedance_extrema(rod: RodModel, f_max_search: float) -> list[tuple[float, str]]:
    """Zeros and poles of Z_b up to f_max_search, sorted ascending.

    Zeros sit at n*c/(2h) and poles at (2n-1)*c/(4h), n >= 1, strictly
    alternating (pole, zero, pole, ...).
    """
    if not f_max_search > 0:
        raise ValueError("impedance_extrema: f_max_search must be > 0")
    out: list[tuple[float, str]] = []
    n = 1
    while True:
        pole = (2 * n - 1) * rod.velocity / (4.0 * rod.height)
        zero = n * rod.velocity / (2.0 * rod.height)
        if pole <= f_max_search:
            out.append((pole, "pole"))
        if zero <= f_max_search:
            out.append((zero, "zero"))
        if pole > f_max_search and zero > f_max_search:
            break
        n += 1
    out.sort(key=lambda item: item[0])
    return out
