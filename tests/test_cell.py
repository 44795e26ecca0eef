import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from rodwave import (
    ConfigError,
    UnitCellGeometry,
    cell_matrices,
    flexural_wavevector,
    forcing_strength,
    parse_config,
    scatter_coefficients,
    unit_cell,
)
from rodwave.errors import NumericError
from rodwave.cell import scattering_matrix
from rodwave.rod import _impedance_arrays
from rodwave.workbench import transfer_matrix_reference


def scattering_oracle(k: float, a: float, sigma: float) -> np.ndarray:
    """First-principles scattering relation solved as a linear system.

    Independent of the closed forms: glues value/slope/curvature of the two
    trench fields across the piston and imposes the shear jump
    w'''(a/2) - t'''(-a/2) = sigma k^3 t(-a/2).  Returns the 4x4 map from the
    components heading toward the piston to those heading away.
    """
    lam = np.array([-1j * k, k, 1j * k, -k])

    def row(side: int, order: int, x: float) -> np.ndarray:
        out = np.zeros(8, dtype=complex)
        out[4 * side : 4 * side + 4] = lam**order * np.exp(lam * x)
        return out

    xl, xr = -a / 2.0, a / 2.0
    rows = [row(0, n, xl) - row(1, n, xr) for n in range(3)]
    rows.append(row(1, 3, xr) - row(0, 3, xl) - sigma * k**3 * row(0, 0, xl))
    A = np.array(rows)
    unknown = [0, 1, 6, 7]  # t-side outgoing pair lives in cols 0..3, w-side in 4..7
    known = [2, 3, 4, 5]
    return -np.linalg.solve(A[:, unknown], A[:, known])


def test_forcing_zero_at_rod_zero(default_cell):
    f_eff, sigma = forcing_strength(default_cell, default_cell.rod.first_zero)
    assert abs(sigma) < 1e-8
    assert abs(f_eff) < 1e-8 * abs(forcing_strength(default_cell, 1.0e9)[0])


def test_forcing_values_at_1ghz(default_cell):
    f_eff, sigma = forcing_strength(default_cell, 1.0e9)
    assert f_eff == pytest.approx(-1.22e11, rel=5e-3)
    assert sigma == pytest.approx(-1.18, rel=5e-3)


def test_forcing_real_for_real_frequency(default_cell):
    rng = np.random.default_rng(5)
    for f in rng.uniform(0.2e9, 5.9e9, 30):
        f_eff, _ = forcing_strength(default_cell, float(f))
        assert isinstance(f_eff, float)
        assert math.isfinite(f_eff)


def test_scatter_zero_coupling_is_pure_delay(default_cell):
    f = default_cell.rod.first_zero  # sigma vanishes here
    c = scatter_coefficients(default_cell, f)
    k = flexural_wavevector(default_cell.trench, f)
    assert abs(c.r) < 1e-10
    assert abs(c.r_e) < 1e-6
    assert abs(c.r_ef) < 1e-8 and abs(c.r_fe) < 1e-8
    assert c.t == pytest.approx(cmath.exp(-1j * default_cell.rod_width * k), rel=1e-8)
    assert c.t_e == pytest.approx(cmath.exp(default_cell.rod_width * k), rel=1e-6)


def test_scatter_infinite_coupling_limits(default_cell):
    f = default_cell.rod.first_pole  # sigma -> infinity marker
    c = scatter_coefficients(default_cell, f)
    assert abs(c.r) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert abs(c.t) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert abs(c.r) ** 2 + abs(c.t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_scatter_coefficients_approach_the_pole_limits_as_one_over_sigma(default_cell):
    """The rational form at finite sigma tends to the exact-pole marker's limits
    at rate 1/|sigma|: each coefficient is P e (s + N) / (D s + A) and its limit
    P e / D, so |s| |c(s) - c(inf)| / |c(inf)| = |N - A/D| / |1 + A/(D s)|, and
    |N - A/D| is 2 sqrt(2) for all six.  The allowance is that 1/|s| term plus
    8 ulps of c(s), which the difference magnifies |s|-fold."""
    from rodwave.cell import _coeffs_from_sigma

    k = flexural_wavevector(default_cell.trench, 2.0e9)
    for sign in (1.0, -1.0):
        limits = np.array(_coeffs_from_sigma(k, default_cell.rod_width, sign * math.inf))
        for s in (1e8, 1e10, 1e12):
            coeffs = np.array(_coeffs_from_sigma(k, default_cell.rod_width, sign * s))
            rate = s * np.abs(coeffs - limits) / np.abs(limits)
            tol = 3.0 / s + 8 * np.finfo(float).eps * s
            assert rate == pytest.approx(np.full(6, 2 * math.sqrt(2)), rel=tol)


def _mp_coeffs(k: float, a: float, sigma: float) -> list:
    """(r, t, r_ef, r_fe, r_e, t_e) from their closed forms in 50-digit mpmath."""
    with mpmath.workdps(50):
        s, ak = mpmath.mpf(sigma), mpmath.mpf(a) * mpmath.mpf(k)
        delay, mixed, grow = mpmath.exp(-1j * ak), mpmath.exp((1 - 1j) * ak / 2), mpmath.exp(ak)
        den = 2 * s + 4 + 4j
        return [
            -(1 - 1j) * delay * s / den,
            (1 + 1j) / 2 * delay * (s + 4) / (s + 2 + 2j),
            -(1 - 1j) * mixed * s / den,
            -(1 + 1j) * mixed * s / den,
            -(1 + 1j) * grow * s / den,
            (1 - 1j) / 2 * grow * (s + 4j) / (s + 2 + 2j),
        ]


@pytest.mark.parametrize("f", [0.5e9, 2.0e9, 5.5e9])
def test_scatter_coefficients_near_a_pole_match_mpmath(default_cell, f):
    """Every finite sigma takes the rational closed form, which stays accurate
    to rounding as |sigma| grows toward a pole: within 1e-14 relative of
    mpmath over |sigma| from 1e6 to 1e12, both signs."""
    from rodwave.cell import _coeffs_from_sigma

    k = flexural_wavevector(default_cell.trench, f)
    a = default_cell.rod_width
    magnitudes = np.concatenate([np.geomspace(1e6, 1e12, 49), [0.999e8, 1.001e8]])
    worst = 0.0
    for sigma in np.concatenate([magnitudes, -magnitudes]).tolist():
        for got, want in zip(_coeffs_from_sigma(k, a, sigma), _mp_coeffs(k, a, sigma)):
            worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst <= 1e-14


def test_energy_conservation_random_frequencies(default_cell):
    rng = np.random.default_rng(42)
    count = 0
    while count < 200:
        f = float(rng.uniform(0.1e9, 6e9))
        c = scatter_coefficients(default_cell, f)
        if abs(c.sigma) > 1e7:
            continue
        assert abs(c.r) ** 2 + abs(c.t) ** 2 == pytest.approx(1.0, abs=1e-12)
        count += 1


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


_MATERIAL = st.fixed_dictionaries(
    {"youngs_modulus_pa": _log_uniform(1e9, 3e12), "density_kg_m3": _log_uniform(300, 1e5)}
)


@settings(max_examples=300, deadline=None)
@given(
    materials=st.fixed_dictionaries({name: _MATERIAL for name in ("AlN", "Al", "Pt")}),
    layers=st.fixed_dictionaries(
        {name: _log_uniform(1, 1e5) for name in ("t_aln1_nm", "t_m1_nm", "t_aln2_nm", "t_m2_nm")}
    ),
    L_um=_log_uniform(0.1, 300),
    a_frac=st.floats(0, 1, exclude_min=True, exclude_max=True),
    f=_log_uniform(1e-3, 1e12),
)
def test_energy_conservation_over_the_accepted_config_space(materials, layers, L_um, a_frac, f):
    """|r|^2 + |t|^2 = 1 to criterion 3's bound on drawn materials, layers, L,
    a < L and f, off the near-pole window; a NumericError is the loud
    outcome the model allows where its closed forms leave the float range."""
    try:
        cell = unit_cell(parse_config({
            "materials": materials,
            "geometry": dict(layers, L_um=L_um, a_um=a_frac * L_um),
        }))
    except ConfigError:  # a_frac * L_um rounded to 0 or to L_um: not an accepted config
        assume(False)
    # near_pole's flag, read from the rod kernel: past the rod's top frequency
    # near_pole raises, and those draws still reach scatter_coefficients
    assume(not _impedance_arrays(cell.rod, np.array([f]))[1].item())
    try:
        c = scatter_coefficients(cell, f)
    except NumericError:
        event("NumericError")
        return
    assert abs(abs(c.r) ** 2 + abs(c.t) ** 2 - 1.0) <= 1e-10


def test_reflection_magnitude_at_1ghz(default_cell):
    c = scatter_coefficients(default_cell, 1.0e9)
    assert abs(c.r) == pytest.approx(0.386, abs=2e-3)


def test_conversion_coefficient_identities(default_cell):
    for f in (0.4e9, 1.3e9, 3.7e9):
        c = scatter_coefficients(default_cell, f)
        assert c.r_ef == c.t_ef
        assert c.r_fe == c.t_fe


def test_scattering_matrix_against_first_principles_oracle(default_cell):
    rng = np.random.default_rng(17)
    for f in rng.uniform(0.15e9, 5.9e9, 12):
        f = float(f)
        c = scatter_coefficients(default_cell, f)
        if abs(c.sigma) > 1e7:
            continue
        k = flexural_wavevector(default_cell.trench, f)
        G = scattering_matrix(c)
        G_oracle = scattering_oracle(k, default_cell.rod_width, c.sigma)
        scale = np.abs(G_oracle).max()
        assert np.abs(G - G_oracle).max() < 1e-9 * scale


def test_transfer_matrix_zero_coupling_diagonal(default_cell):
    f = default_cell.rod.first_zero
    mats = cell_matrices(default_cell, f)
    kl = mats.k * default_cell.cell_length
    expected = np.diag(
        [cmath.exp(-1j * kl), cmath.exp(kl), cmath.exp(1j * kl), cmath.exp(-kl)]
    )
    assert np.abs(mats.T - expected).max() < 1e-7 * np.abs(expected).max()


def test_transfer_matrix_is_product(default_cell):
    mats = cell_matrices(default_cell, 1.0e9)
    assert np.abs(mats.T - mats.D @ mats.C @ mats.D).max() == 0.0


def test_phi_definition(default_cell):
    mats = cell_matrices(default_cell, 1.7e9)
    assert mats.phi == pytest.approx(
        mats.k * (default_cell.cell_length + default_cell.rod_width) / 2, rel=1e-15
    )


def test_transfer_matrix_diagonal_entries_closed_form(default_cell):
    for f in (0.6e9, 1.0e9, 3.1e9):
        mats = cell_matrices(default_cell, f)
        sigma = forcing_strength(default_cell, f)[1]
        kl = mats.k * default_cell.cell_length
        t11 = cmath.exp(-1j * kl) * (4 - 1j * sigma) / 4
        t22 = cmath.exp(kl) * (4 + sigma) / 4
        assert mats.T[0, 0] == pytest.approx(t11, rel=1e-12)
        assert mats.T[1, 1] == pytest.approx(t22, rel=1e-12)


def test_transfer_matrix_against_reference_table(default_cell):
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 20:
        f = float(rng.uniform(0.1e9, 6e9))
        sigma = forcing_strength(default_cell, f)[1]
        if abs(sigma) > 1e7:
            continue
        mats = cell_matrices(default_cell, f)
        ref = transfer_matrix_reference(
            mats.k, default_cell.rod_width, default_cell.cell_length, sigma
        )
        for i in range(4):
            for j in range(4):
                if (i, j) == (2, 3):
                    continue
                denom = max(abs(ref[i, j]), 1e-300)
                assert abs(mats.T[i, j] - ref[i, j]) / denom < 1e-9
        checked += 1


def test_transfer_matrix_documented_discrepancy_entry(default_cell):
    # the assembled product's (3,4) entry is e^{+ak} times the reference table's
    for f in (0.9e9, 2.0e9, 3.4e9):
        mats = cell_matrices(default_cell, f)
        sigma = forcing_strength(default_cell, f)[1]
        ref = transfer_matrix_reference(
            mats.k, default_cell.rod_width, default_cell.cell_length, sigma
        )
        ratio = mats.T[2, 3] / ref[2, 3]
        assert ratio == pytest.approx(
            math.exp(default_cell.rod_width * mats.k), rel=1e-9
        )


def test_determinants_unity(default_cell):
    for f in (0.5e9, 1.4e9, 4.4e9):
        mats = cell_matrices(default_cell, f)
        assert np.linalg.det(mats.D) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(mats.C) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(mats.T) == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_product_unity(default_cell):
    rng = np.random.default_rng(31)
    for f in rng.uniform(0.2e9, 5.9e9, 10):
        mats = cell_matrices(default_cell, float(f))
        prod = np.prod(np.linalg.eigvals(mats.T))
        assert prod == pytest.approx(1.0, abs=1e-9)


def test_geometry_invariant(default_cell):
    with pytest.raises(ConfigError):
        UnitCellGeometry(
            rod_width=5e-6,
            cell_length=4e-6,
            trench=default_cell.trench,
            rod=default_cell.rod,
        )


@pytest.mark.parametrize("f", [1e-300, 1e-320, 5e-324])
def test_forcing_below_the_small_kl_floor_names_f(default_cell, f):
    # k**3 underflows to 0 and sigma is 0/0: an error naming f, no NaN
    # coefficients and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (forcing_strength, scatter_coefficients, cell_matrices):
            with pytest.raises(NumericError, match=rf"non-finite sigma at f={f!r} Hz .* small kL$"):
                call(default_cell, f)


def test_scatter_coefficients_past_the_large_kl_range_name_f():
    # a = 100 um: e^{ak} leaves the floating-point range near 7.8 GHz, where the
    # coefficients were inf or nan behind a RuntimeWarning; just below it they
    # are huge but finite
    cell = unit_cell(parse_config({"geometry": {"L_um": 200, "a_um": 100}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = scatter_coefficients(cell, 7e9)
        assert all(map(cmath.isfinite, (c.r, c.t, c.r_ef, c.r_fe, c.r_e, c.t_e)))
        assert c.r_e.real == pytest.approx(5.7115e290, rel=1e-4)
        with pytest.raises(
            NumericError,
            match=r"^non-finite scattering coefficients at f=7900000000\.0 Hz \(kL = 1427\.0\): "
            r".* at large kL$",
        ):
            scatter_coefficients(cell, 7.9e9)


def test_forcing_at_the_rod_pole_stays_infinite(default_cell):
    # the pole's signed-infinite sigma is the model's, not an underflow
    f_eff, sigma = forcing_strength(default_cell, default_cell.rod.first_pole)
    assert math.isinf(f_eff) and math.isinf(sigma)
