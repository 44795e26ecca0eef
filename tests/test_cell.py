import cmath
import math
import warnings

import numpy as np
import pytest

from rodwave import (
    ConfigError,
    UnitCellGeometry,
    cell_matrices,
    flexural_wavevector,
    forcing_strength,
    scatter_coefficients,
)
from rodwave.errors import NumericError
from rodwave.cell import scattering_matrix
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


def test_scatter_limit_switch_is_continuous(default_cell):
    # closed forms just below the switch agree with the limits used above it
    k = flexural_wavevector(default_cell.trench, 2.0e9)
    from rodwave.cell import _coeffs_from_sigma

    below = _coeffs_from_sigma(k, default_cell.rod_width, 0.999e8)
    above = _coeffs_from_sigma(k, default_cell.rod_width, 1.001e8)
    for lo, hi in zip(below, above):
        assert lo == pytest.approx(hi, rel=1e-6, abs=1e-12)


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


def test_forcing_at_the_rod_pole_stays_infinite(default_cell):
    # the pole's signed-infinite sigma is the model's, not an underflow
    f_eff, sigma = forcing_strength(default_cell, default_cell.rod.first_pole)
    assert math.isinf(f_eff) and math.isinf(sigma)
