import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave import (
    NumericError,
    SingularFrequencyError,
    driving_impedance,
    impedance_extrema,
    near_pole,
    rod_modeshape,
)
from rodwave.cell import forcing_arrays
from rodwave.materials import LaminateSection
from rodwave.rod import RodModel, _impedance_arrays


def test_impedance_zero_at_dc(default_rod):
    assert driving_impedance(default_rod, 0.0) == 0.0


def test_impedance_zero_at_half_wave(default_rod):
    f_zero = default_rod.first_zero
    zb = driving_impedance(default_rod, f_zero)
    scale = default_rod.section.effective_rho * default_rod.height * default_rod.velocity
    assert abs(zb) < 1e-8 * scale


def test_impedance_value_at_1ghz(default_rod):
    zb = driving_impedance(default_rod, 1.0e9)
    assert zb.real == 0.0
    assert zb.imag == pytest.approx(-19.5, abs=0.05)


def test_impedance_purely_imaginary(default_rod):
    rng = np.random.default_rng(3)
    for f in rng.uniform(1e7, 6e9, 50):
        assert driving_impedance(default_rod, float(f)).real == 0.0


def test_exact_pole_returns_signed_infinite_marker(default_rod):
    zb = driving_impedance(default_rod, default_rod.first_pole)
    assert math.isinf(zb.imag)
    assert zb.real == 0.0


def test_near_pole_window(default_rod):
    window = 1e-4 * default_rod.velocity / default_rod.height
    assert near_pole(default_rod, default_rod.first_pole + 0.5 * window)
    assert not near_pole(default_rod, default_rod.first_pole + 5.0 * window)
    assert not near_pole(default_rod, 1.0e9)


def test_modeshape_stress_free_top(default_rod):
    # independent check: one-sided finite difference of u_z at z = h
    for f in (0.8e9, 1.7e9, 3.1e9):
        z, u = rod_modeshape(default_rod, f, f_amp=1.0, z_samples=20001)
        dz = z[1] - z[0]
        du_top = (u[-1] - u[-2]) / dz
        du_scale = np.max(np.abs(np.diff(u))) / dz
        assert abs(du_top) < 1e-3 * du_scale


def test_modeshape_linearity_zero_force(default_rod):
    _, u = rod_modeshape(default_rod, 1.0e9, f_amp=0.0, z_samples=50)
    assert np.all(u == 0)


def test_modeshape_base_velocity_consistent_with_impedance(default_rod):
    # u(0) * (-i omega) / F must equal 1 / Z_b: two independent formulas
    for f in (0.5e9, 1.0e9, 2.0e9, 3.3e9):
        _, u = rod_modeshape(default_rod, f, f_amp=1.0, z_samples=3)
        omega = 2 * math.pi * f
        lhs = u[0] * (-1j * omega)
        rhs = 1.0 / driving_impedance(default_rod, f)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("f", [1e-160, 1e-300, 5e-324])
def test_modeshape_past_the_float_range_names_the_frequency(default_rod, f):
    # overflow in a product, overflow in a quotient and a division by zero
    message = f"^rod_modeshape: displacement is not finite at f={f!r} Hz$"
    with pytest.raises(NumericError, match=message):
        rod_modeshape(default_rod, f, 1.0, 10)


def test_modeshape_is_finite_at_low_frequency(default_rod):
    _, u = rod_modeshape(default_rod, 1e-140, 1.0, 10)
    assert np.isfinite(u).all()


def test_modeshape_rejects_pole(default_rod):
    with pytest.raises(SingularFrequencyError):
        rod_modeshape(default_rod, default_rod.first_pole, 1.0, 10)


@pytest.mark.parametrize("f", [math.inf, math.nan, -1e9])
@pytest.mark.parametrize(
    "call", [driving_impedance, near_pole], ids=["driving_impedance", "near_pole"]
)
def test_rod_impedance_needs_finite_non_negative_f(default_rod, call, f):
    with pytest.raises(ValueError, match=f"^{call.__name__}: f must be >= 0 and finite$"):
        call(default_rod, f)


@pytest.mark.parametrize(
    "call",
    [driving_impedance, near_pole, lambda rod, f: rod_modeshape(rod, f, 1.0, 5)],
    ids=["driving_impedance", "near_pole", "rod_modeshape"],
)
def test_rod_outputs_past_the_top_frequency_name_f(default_rod, call):
    # from 2^46 Hz the float spacing of f (2^-6 Hz) is wider than the 9.67e-3 Hz
    # exact-pole window: driving_impedance gave the -infj marker at 9.48718e19 Hz,
    # 13 259 Hz from the nearest pole
    assert np.spacing(2.0**46) > 1e-12 * default_rod.velocity / default_rod.height
    call(default_rod, math.nextafter(2.0**46, 0))
    for f in (2.0**46, 9.48718e19):
        message = re.escape(f"past the rod's top frequency, at f={f!r} Hz") + "$"
        with pytest.raises(NumericError, match=message):
            call(default_rod, f)


@pytest.mark.parametrize("f", [math.inf, math.nan, 0.0, -1e9])
def test_modeshape_needs_finite_positive_f(default_rod, f):
    with pytest.raises(ValueError, match="^rod_modeshape: f must be > 0 and finite$"):
        rod_modeshape(default_rod, f, 1.0, 10)


@pytest.mark.parametrize("z_samples", [1, 0])
def test_modeshape_needs_two_samples(default_rod, z_samples):
    with pytest.raises(ValueError, match="^rod_modeshape: z_samples must be >= 2$"):
        rod_modeshape(default_rod, 1e9, 1.0, z_samples)


@pytest.mark.parametrize("f_max", [math.inf, math.nan, 0.0, -1e9])
def test_extrema_need_finite_positive_search_limit(default_rod, f_max):
    with pytest.raises(ValueError, match="f_max_search must be > 0 and finite"):
        impedance_extrema(default_rod, f_max)


def test_extrema_closed_form_positions(default_rod):
    ext = impedance_extrema(default_rod, 6e9)
    poles = [f for f, kind in ext if kind == "pole"]
    zeros = [f for f, kind in ext if kind == "zero"]
    assert poles[0] == pytest.approx(2.417e9, rel=5e-4)
    assert zeros[0] == pytest.approx(4.833e9, rel=5e-4)
    assert len(poles) == 1 and len(zeros) == 1  # next pole 7.25 GHz is out of range


def test_extrema_match_numeric_search(default_rod):
    # oracle: argmax/argmin of |Z_b| on a fine grid around the closed forms
    ext = impedance_extrema(default_rod, 6e9)
    pole = [f for f, kind in ext if kind == "pole"][0]
    zero = [f for f, kind in ext if kind == "zero"][0]
    grid = np.linspace(pole - 50e6, pole + 50e6, 20001)
    mags = [abs(driving_impedance(default_rod, float(f)).imag) for f in grid]
    assert grid[int(np.argmax(mags))] == pytest.approx(pole, abs=2 * (grid[1] - grid[0]))
    grid = np.linspace(zero - 50e6, zero + 50e6, 20001)
    mags = [abs(driving_impedance(default_rod, float(f)).imag) for f in grid]
    assert grid[int(np.argmin(mags))] == pytest.approx(zero, abs=2 * (grid[1] - grid[0]))


def test_extrema_empty_below_first_pole(default_rod):
    assert impedance_extrema(default_rod, 0.5 * default_rod.first_pole) == []


@pytest.mark.parametrize(
    "section", [None, LaminateSection(70e9, 2700.0, 330e-9), LaminateSection(411e9, 19300.0, 7e-6)]
)
def test_extrema_lie_on_the_quarter_wave_lattice(default_rod, section):
    # poles (2n-1) c/(4h) and zeros n c/(2h), bit for bit, over 40 extrema
    rod = default_rod if section is None else RodModel(section)
    c, h = rod.velocity, rod.height
    expected = []
    for n in range(1, 21):
        expected += [((2 * n - 1) * c / (4.0 * h), "pole"), (n * c / (2.0 * h), "zero")]
    last = expected[-1][0]
    # a search limit equal to an extremum includes it
    assert repr(impedance_extrema(rod, last)) == repr(expected)
    assert repr(impedance_extrema(rod, math.nextafter(last, 0.0))) == repr(expected[:-1])
    assert repr(impedance_extrema(rod, expected[-2][0])) == repr(expected[:-1])


def test_extrema_alternate_and_sorted(default_rod):
    ext = impedance_extrema(default_rod, 30e9)
    freqs = [f for f, _ in ext]
    kinds = [kind for _, kind in ext]
    assert freqs == sorted(freqs)
    assert kinds[0] == "pole"
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_impedance_sign_pattern_between_extrema(default_rod):
    # spring-like (negative imaginary) below the first pole, mass-like above
    assert driving_impedance(default_rod, 1.0e9).imag < 0
    assert driving_impedance(default_rod, 3.0e9).imag > 0


def _reference_impedance(rod, f):
    """Per-point (Z_b, near-pole flag): libm tangent, round-based pole distance."""
    c, h = rod.velocity, rod.height
    spacing = c / (2.0 * h)
    first = c / (4.0 * h)
    distance = abs(f - (first + max(round((f - first) / spacing), 0) * spacing))
    near = distance < 1e-4 * c / h
    tan = math.tan(2.0 * math.pi * f / c * h)
    if distance < 1e-12 * c / h:
        return complex(0.0, -math.inf if tan >= 0 else math.inf), near
    return -1j * (rod.section.effective_rho * rod.section.area_per_width * c) * tan, near


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(
    youngs=st.floats(50e9, 400e9),
    density=st.floats(2000.0, 22000.0),
    thickness=st.floats(0.3e-6, 2.0e-6),
    n_pole=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_impedance_matches_scalar_oracle_bit_for_bit(
    default_cell, youngs, density, thickness, n_pole, seed
):
    rod = RodModel(LaminateSection(youngs, density, thickness))
    c_over_h = rod.velocity / rod.height
    pole = (2 * n_pole - 1) * rod.velocity / (4.0 * rod.height)
    # both sides of the near-pole (1e-4 c/h) and exact-pole (1e-12 c/h) windows
    offsets = np.outer([1e-4, 1e-12], [0.999, 1.001]).ravel() * c_over_h
    f = np.concatenate([
        [0.0, pole],
        pole + offsets,
        pole - offsets,
        np.random.default_rng(seed).uniform(0.0, 4.0 * pole + c_over_h, 300),
    ])
    ref = [_reference_impedance(rod, fv) for fv in f.tolist()]
    ref_im = [z.imag for z, _ in ref]
    ref_near = [near for _, near in ref]

    im, near = _impedance_arrays(rod, f)
    assert np.array_equal(_bits(im), _bits(ref_im))
    assert near.tolist() == ref_near
    assert math.copysign(1.0, im[0]) == 1.0  # +0.0 at DC
    assert math.isinf(im[1]) and near[1]
    for fv, (z, flag) in zip(f.tolist(), ref):
        zb = driving_impedance(rod, fv)
        assert np.array_equal(_bits([zb.real, zb.imag]), _bits([z.real, z.imag]))
        assert near_pole(rod, fv) == flag

    cell = dataclasses.replace(default_cell, rod=rod)
    _, f_eff, _ = forcing_arrays(cell, f[f > 0])
    expected = [2.0 * math.pi * fv * zi for fv, zi in zip(f.tolist(), ref_im) if fv > 0]
    assert np.array_equal(_bits(f_eff), _bits(expected))
