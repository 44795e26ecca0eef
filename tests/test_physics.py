"""The model against the beam's physical variables: a 50-digit Euler-Bernoulli
transfer matrix in (w, w', w'', w''') for the Bloch roots, energy
conservation for the reflection of a lossless chain, and the direction of the
energy flux of the transmitted Bloch mode, and the long-wavelength limit,
where the chain is a beam carrying the rods' mass.

The rod's force on the piston per unit displacement is f_eff = -i omega Z_b
(cell.forcing_arrays), so the beam feels the reaction, a shear jump
EI [w'''] = -f_eff w.  The kernel writes the jump as +sigma k^3 w with
sigma = f_eff / (EI k^3), that is +f_eff w; the cases that need the physical
sign are strict expected failures until the sign is flipped.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from rodwave import bloch, bloch_point, flexural_wavevector, parse_config, sweep, unit_cell
from rodwave.cell import _PHASE_RATES, forcing_arrays

_FLIPPED_SIGN = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="sign of the rod's reaction, ROADMAP item 1"
)


def _cell(L_um: float):
    return unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))


def _oracle_y_roots(k: float, jump: float, L: float) -> list[complex]:
    """The y = lambda + 1/lambda roots of the cell in physical variables, 50 digits.

    M = E(L/2) J E(L/2): E(x) = expm(A x) solves w'''' = k^4 w, and J adds
    jump * w to w'''.  det M = 1 and M is palindromic, so its characteristic
    polynomial reduces to y^2 - su y + pr with su = tr M and pr = e2(M) - 2,
    e2 = (tr(M)^2 - tr(M^2)) / 2 the second invariant.
    """
    with mpmath.workdps(50):
        A = mpmath.matrix(4, 4)
        A[0, 1] = A[1, 2] = A[2, 3] = 1
        A[3, 0] = mpmath.mpf(k) ** 4
        E = mpmath.expm(A * mpmath.mpf(L) / 2)
        J = mpmath.eye(4)
        J[3, 0] = mpmath.mpf(jump)
        M = E * J * E
        M2 = M * M
        su = sum(M[i, i] for i in range(4))
        pr = (su**2 - sum(M2[i, i] for i in range(4))) / 2 - 2
        d = mpmath.sqrt(mpmath.mpc(su**2 - 4 * pr))
        return [complex((su + d) / 2), complex((su - d) / 2)]


def _ordered(roots) -> list[complex]:
    return sorted(roots, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize(
    "reaction", [1.0, pytest.param(-1.0, marks=_FLIPPED_SIGN)], ids=["jump+f_eff", "jump-f_eff"]
)
@pytest.mark.parametrize("L_um", [1.0, 3.8, 8.0])
def test_bloch_roots_match_the_physical_transfer_matrix(L_um, reaction):
    """The kernel's y-roots are those of the cell's transfer matrix with the
    shear jump reaction * f_eff w, to 1e-12 relative, at 25 frequencies."""
    cell = _cell(L_um)
    f = np.linspace(0.1e9, 6e9, 25)
    k, f_eff, _, _, _ = forcing_arrays(cell._operands, f)
    y = bloch._pairs(bloch._front(cell._operands, f))[2][0] + 2  # the roots in z = y - 2
    for i in range(f.size):
        jump = reaction * f_eff[i] / cell.trench.bending_stiffness
        want = _ordered(_oracle_y_roots(k[i], jump, cell.cell_length))
        got = _ordered(complex(z) for z in y[i])
        assert got == pytest.approx(want, rel=1e-12), f"f = {f[i]!r} Hz"


@pytest.mark.parametrize(
    "L_um",
    [pytest.param(L, marks=_FLIPPED_SIGN) for L in (0.5, 1.0, 2.0)] + [3.8],
)
def test_passband_reflection_conserves_energy(L_um):
    """A lossless passive chain reflects no more than it receives: |Gamma| <= 1
    at every passband point of a 2000-point sweep over 0.1-6 GHz."""
    sw = sweep(_cell(L_um), 0.1e9, 6e9, 2000)
    above = ~sw.in_stopband & (np.abs(sw.gamma) > 1 + 1e-9)
    assert np.count_nonzero(above) == 0, f"|Gamma| > 1 at {np.count_nonzero(above)} passband points"


def _passband_pairs(L_um: float):
    """kL, the transmitted pair (outer, inner) and lambda_flex at every passband
    point of a 2000-point sweep over 0.1-6 GHz."""
    cell = _cell(L_um)
    sw = sweep(cell, 0.1e9, 6e9, 2000)
    band = ~sw.in_stopband
    return sw.k[band] * cell.cell_length, sw.eigenvalues[band, :2], sw.lambda_flex[band]


def _mode_flux(kl, lam):
    """Im(w'' conj w' - w''' conj w) / k^3 of the Bloch mode of each factor lam
    at the cell edge, in a uniform span: the mode's energy flux toward +x up to
    a positive factor.  w^(n) / k^n sums the eigenvector's amplitudes times the
    n-th power of their phase rates (-i, 1, i, -1)."""
    v = bloch._eigenvectors(kl, lam)
    w0, w1, w2, w3 = (np.sum(v * _PHASE_RATES**n, axis=-1) for n in range(4))
    return (w2 * w1.conj() - w3 * w0.conj()).imag


def _flux_closed_form(kl, lam):
    """_mode_flux of lam = e^{i theta} on the unit circle, up to a positive factor.

    With v = (lam - p)^-1 u, _mode_flux is 2 (|v2|^2 - |v0|^2) + 4 Im(conj(v1) v3),
    a positive multiple of sin(theta) [sn ((1 - ch cos theta)^2 + (sh sin theta)^2)
    - sh ((1 - c cos theta)^2 - (sn sin theta)^2)], with c, ch, sn, sh the cos,
    cosh, sin and sinh of kL.  sigma enters only through lam.
    """
    c, ch, sn, sh = np.cos(kl), np.cosh(kl), np.sin(kl), np.sinh(kl)
    cos_t, sin_t = lam.real, lam.imag
    return sin_t * (
        sn * ((1 - ch * cos_t) ** 2 + (sh * sin_t) ** 2)
        - sh * ((1 - c * cos_t) ** 2 - (sn * sin_t) ** 2)
    )


@pytest.mark.parametrize("L_um", [0.5, 1.0, 2.0, 3.8, 8.0, 12.0])
def test_flux_closed_form_has_the_sign_of_the_mode_flux(L_um):
    """Both members of the transmitted pair carry a nonzero flux, of the sign
    the closed form gives, at every passband point."""
    kl, pair, _ = _passband_pairs(L_um)
    flux = _mode_flux(kl[:, None], pair)
    assert np.count_nonzero(flux == 0) == 0
    assert np.array_equal(np.sign(_flux_closed_form(kl[:, None], pair)), np.sign(flux))


@pytest.mark.parametrize(
    "L_um",
    [pytest.param(L, marks=_FLIPPED_SIGN) for L in (0.5, 1.0, 2.0)] + [3.8, 8.0, 12.0],
)
def test_transmitted_passband_mode_carries_energy_into_the_chain(L_um):
    """In a lossless periodic medium the energy velocity is the group velocity
    (Brillouin, Wave Propagation in Periodic Structures, 1946), so the Bloch
    mode that a wave from the left excites carries energy toward +x: a
    positive flux at every passband point of a 2000-point sweep over 0.1-6 GHz."""
    kl, _, lam = _passband_pairs(L_um)
    back = _mode_flux(kl, lam) <= 0
    assert np.count_nonzero(back) == 0, f"flux toward -x at {np.count_nonzero(back)} passband points"


@pytest.mark.parametrize(
    "sign", [pytest.param(1.0, marks=_FLIPPED_SIGN), -1.0], ids=["m_t+m_add", "m_t-m_add"]
)
# no shrinking: the expected failure of the physical sign would spend ~20 s on it
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    L_um=st.floats(0.5, 20.0), t_aln1=st.floats(200, 800), t_m1=st.floats(100, 500),
    t_aln2=st.floats(300, 1200), t_m2=st.floats(150, 700), kl=st.floats(0.05, 0.1),
)
def test_long_wavelength_limit_is_the_beam_carrying_the_rods_mass(
    sign, L_um, t_aln1, t_m1, t_aln2, t_m2, kl
):
    """For kL << 1 the chain is a uniform beam of mass m_t per length carrying
    m_add = m_r tan(phi) / (phi L) more (phi = omega h / c, m_r = rho A h of the
    rod, read from the model), so Re k_ef / k -> r0 = (1 + c)^(1/4) with
    c = sign m_add / m_t; the physical sign is +.  The y-quadratic expands to
    Re k_ef / k = r0 (1 + c^2 / (2880 (1 + c)) (kL)^4 + O((kL)^8)), so the gap
    is held within twice that next term, plus 16 eps / (kL)^4 for the kernel's
    rounding, which grows so at small kL (ROADMAP items 10 and 14; at most
    2.3 eps / (kL)^4 over 1500 drawn cells).  Draws are at 0.05 <= kL <= 0.1.
    With the minus sign only cells with m_add < m_t are drawn: a heavier
    negative mass puts the kernel in a stopband there."""
    geometry = {
        "L_um": L_um, "a_um": L_um / 2, "t_aln1_nm": t_aln1, "t_m1_nm": t_m1,
        "t_aln2_nm": t_aln2, "t_m2_nm": t_m2,
    }
    cell = unit_cell(parse_config({"geometry": geometry}))
    rod, trench, L = cell.rod, cell.trench, cell.cell_length
    f = 1e9 * (kl / (flexural_wavevector(trench, 1e9) * L)) ** 2  # k grows as sqrt(f)
    x = flexural_wavevector(trench, f) * L
    phi = 2 * math.pi * f * rod.height / rod.velocity
    m_r = rod.impedance_scale / rod.velocity * rod.height
    m_t = trench.section.effective_rho * trench.section.area_per_width
    c = sign * m_r * math.tan(phi) / (phi * L) / m_t
    assume(c > -1)
    r0 = (1 + c) ** 0.25
    next_term = r0 * c * c / (2880 * (1 + c)) * x**4
    ratio = bloch_point(cell, f).k_ef.real * L / x
    assert abs(ratio - r0) <= 2 * next_term + 16 * np.finfo(float).eps / x**4, (
        f"Re k_ef / k = {ratio!r} against the limit {r0!r} at kL = {x!r}"
    )
