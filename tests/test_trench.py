import math

import numpy as np
import pytest

from rodwave import flexural_wavevector, wavelength_over_thickness


def quartic_root_oracle(trench, f: float) -> float:
    """Positive real root of E I k^4 = rho A omega^2 via numpy's root finder."""
    omega = 2 * math.pi * f
    sec = trench.section
    ei = sec.effective_E * sec.inertia_per_width
    rhs = sec.effective_rho * sec.area_per_width * omega**2
    roots = np.roots([ei, 0.0, 0.0, 0.0, -rhs])
    real_pos = [r.real for r in roots if abs(r.imag) < 1e-6 * abs(r) and r.real > 0]
    assert len(real_pos) == 1
    return real_pos[0]


def test_sqrt_frequency_scaling(default_trench):
    for f in (0.2e9, 1.1e9, 2.35e9):
        assert flexural_wavevector(default_trench, 4 * f) == pytest.approx(
            2 * flexural_wavevector(default_trench, f), rel=1e-13
        )


def test_value_at_device_resonance(default_trench):
    k = flexural_wavevector(default_trench, 2.35e9)
    assert k == pytest.approx(3.89e6, rel=1e-3)
    assert 2 * math.pi / k == pytest.approx(1.61e-6, rel=5e-3)


def test_value_at_1ghz(default_trench):
    assert flexural_wavevector(default_trench, 1.0e9) == pytest.approx(2.54e6, rel=2e-3)


def test_closed_form_matches_quartic_oracle(default_trench):
    for f in np.geomspace(0.1e9, 6e9, 40):
        k = flexural_wavevector(default_trench, float(f))
        assert k == pytest.approx(quartic_root_oracle(default_trench, float(f)), rel=1e-12)


def test_monotone_increasing_and_concave(default_trench):
    fs = np.linspace(0.1e9, 6e9, 200)
    ks = np.array([flexural_wavevector(default_trench, float(f)) for f in fs])
    dk = np.diff(ks)
    assert np.all(dk > 0)
    assert np.all(np.diff(dk) < 0)


def test_wavelength_over_thickness_reported(default_trench):
    # thin-beam strain indicator at the device resonance is of order a few
    ratio = wavelength_over_thickness(default_trench, 2.35e9)
    assert ratio == pytest.approx(2.48, rel=2e-2)
