"""The array kernel of the Bloch pipeline against an mpmath evaluation of the
closed form, of the transmitted-pair rule, of the passband direction and of
Gamma, and its independence of batching."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodwave import (
    bloch_point,
    chain_profile,
    parse_config,
    semi_infinite_reflection,
    stopband_report,
    sweep,
    unit_cell,
)
from rodwave import NumericError, bloch
from rodwave.cell import (
    SIGMA_CLAMP,
    cell_matrices,
    clamped_sigma,
    forcing_arrays,
    forcing_strength,
    sigma_slope_arrays,
    translation_phases,
)
from rodwave.rod import impedance_extrema
from rodwave.trench import flexural_wavevector, flexural_wavevectors


def _random_cells(rng, count):
    """Cells over a wide geometry range: L from 0.5 to 20 um, any a < L."""
    cells = []
    for _ in range(count):
        L = rng.uniform(0.5, 20.0)
        geo = {
            "t_aln1_nm": rng.uniform(200, 800),
            "t_m1_nm": rng.uniform(100, 500),
            "t_aln2_nm": rng.uniform(300, 1200),
            "t_m2_nm": rng.uniform(150, 700),
            "L_um": L,
            "a_um": L * rng.uniform(0.05, 0.95),
        }
        cells.append(unit_cell(parse_config({"geometry": geo})))
    return cells


@pytest.fixture(scope="module")
def random_draw():
    """(kL, clamped sigma) at 10 000 seeded (geometry, frequency) points, 1 MHz-20 GHz."""
    rng = np.random.default_rng(2105)
    kls, sigmas = [], []
    for cell in _random_cells(rng, 50):
        f = rng.uniform(1e6, 2e10, 200)
        k, _, sigma, _, _ = forcing_arrays(cell._operands, f)
        kls.append(k * cell.cell_length)
        sigmas.append(np.clip(sigma, -SIGMA_CLAMP, SIGMA_CLAMP))
    return np.concatenate(kls), np.concatenate(sigmas)


def _mp_digits(x):
    """Working digits at kL = x: 60 survive the cancellation of su - disc, which
    is about e^{2 kL} against the root."""
    return 60 + int(x / 2.3)


def _mp_roots(x, s):
    """((su + disc)/2, (su - disc)/2) at kL = x and coupling s, real or complex,
    in mpmath at the working precision (callers set _mp_digits(x))."""
    x, s = mpmath.mpmathify(x), mpmath.mpmathify(s)
    c, ch, sn, sh = mpmath.cos(x), mpmath.cosh(x), mpmath.sin(x), mpmath.sinh(x)
    su = 2 * c + 2 * ch + (s / 2) * (sh - sn)
    disc = mpmath.sqrt(su * su - 4 * (4 * c * ch + s * (c * sh - sn * ch)))
    return (su + disc) / 2, (su - disc) / 2


def _mp_pairs(x, s):
    """The two reciprocal pairs of Bloch factors, one per root of _mp_roots."""
    pairs = []
    for y in _mp_roots(x, s):
        root = mpmath.sqrt(y * y - 4)
        pairs.append([(y + root) / 2, (y - root) / 2])
    return pairs


def test_transmitted_pair_is_the_least_attenuated(random_draw):
    """Column 0 holds the pair whose |lambda| <= 1 member has the largest
    modulus of the four factors (on an exact tie either pair passes)."""
    kl, sigma = random_draw
    # a front of the drawn points with L = 1 (kL stands in for f, which only
    # names a point in an error)
    inner = bloch._transmitted(bloch._Front(kl, kl, sigma, 1.0, None))[3]
    mismatched = []
    for i, (x, s, lam) in enumerate(zip(kl.tolist(), sigma.tolist(), inner[:, 0].tolist())):
        with mpmath.workdps(_mp_digits(x)):
            slowest = max(min(abs(a), abs(b)) for a, b in _mp_pairs(x, s))
            if abs(abs(lam) - slowest) > 1e-12 * slowest:
                mismatched.append(i)
    assert not mismatched, f"{len(mismatched)} of {kl.size} points differ, first {mismatched[:5]}"


def test_stopband_test_needs_no_passband_direction():
    """The stopband test of _pairs, made before any passband direction, is bit
    for bit the table's mask and the test on its t_coeff, and its T is the
    table's t_coeff at every stopband point: 20 seeded cells at 500
    frequencies each, 1 MHz-20 GHz, and at each cell's exact rod poles."""
    rng = np.random.default_rng(2525)
    counts = np.zeros(2, dtype=int)
    for cell in _random_cells(rng, 20):
        poles = [p for p, kind in impedance_extrema(cell.rod, 2e10) if kind == "pole"]
        f = np.concatenate([rng.uniform(1e6, 2e10, 500), poles])
        t, stop = bloch._pairs(bloch._front(cell._operands, f))[-2:]
        table = bloch.Sweep(*bloch._columns(cell, f, with_gamma=False))
        assert stop.tobytes() == table.in_stopband.tobytes()
        assert stop.tobytes() == (table.t_coeff < 1.0 - bloch.TOL_BAND).tobytes()
        assert t[stop].tobytes() == table.t_coeff[stop].tobytes()
        counts += np.count_nonzero(stop), np.count_nonzero(~stop)
    assert counts.min() > 1000, counts


def _mp_shrinks(kl, sigma, arg, lam):
    """(exact factor on the unit circle, its modulus shrinks at omega (1 + i eta)).

    The exact factor is the Bloch factor at (kL, sigma) nearest lam; its
    continuation is the factor nearest it at the complex frequency, eta =
    1e-30, where kL scales as sqrt(omega) and sigma as omega^-1/2 tan(omega h/c),
    arg = omega h / c.  Callers set the working precision.
    """
    z = mpmath.mpc(1, mpmath.mpf("1e-30"))
    lam = mpmath.mpc(lam.real, lam.imag)
    exact = min((x for pair in _mp_pairs(kl, sigma) for x in pair), key=lambda x: abs(x - lam))
    s_z = 0
    if sigma:
        arg = mpmath.mpf(arg)
        s_z = mpmath.mpf(sigma) * mpmath.tan(arg * z) / mpmath.tan(arg) / mpmath.sqrt(z)
    pairs = _mp_pairs(mpmath.mpf(kl) * mpmath.sqrt(z), s_z)
    moved = min((x for pair in pairs for x in pair), key=lambda x: abs(x - exact))
    return abs(abs(exact) - 1) < mpmath.mpf("1e-40"), abs(moved) < abs(exact)


_THICKNESS = {"t_aln1_nm": (200, 800), "t_m1_nm": (100, 500),
              "t_aln2_nm": (300, 1200), "t_m2_nm": (150, 700)}


@settings(max_examples=20, deadline=None)
@example(  # an edge 1 Hz from kL = 11 pi: uncoupled, lambda_flex is exactly -1
    L_um=6.6341215870623325, a_frac=0.5, freqs=[1e8],
    layers={"t_aln1_nm": 443.40236418053803, "t_m1_nm": 363.5,
            "t_aln2_nm": 300.0, "t_m2_nm": 150.0},
)
@given(
    L_um=st.floats(0.5, 12.0),
    a_frac=st.floats(0.05, 0.95),
    layers=st.fixed_dictionaries({name: st.floats(*r) for name, r in _THICKNESS.items()}),
    freqs=st.lists(st.floats(0.1e9, 6e9), min_size=1, max_size=8),
)
def test_passband_factor_decays_under_limiting_absorption(L_um, a_frac, layers, freqs):
    """In a passband the kernel's lambda_flex is the member of the unit-modulus
    pair whose modulus shrinks when the frequency gains a small positive
    imaginary part, with and without coupling; checked at drawn frequencies
    and at +-1 Hz and +-1 kHz from every refined band edge."""
    geo = dict(layers, L_um=L_um, a_um=a_frac * L_um)
    cell = unit_cell(parse_config({"geometry": geo}))
    edges = [e for b in stopband_report(sweep(cell, 0.1e9, 6e9, 400), cell).bands
             for e in (b.f_low, b.f_high)]
    f = np.concatenate([freqs, np.add.outer(edges, [-1e3, -1.0, 1.0, 1e3]).ravel()])
    arg = 2 * np.pi * f / cell.rod.velocity * cell.rod.height
    checked = 0
    for zero in (False, True):
        sw = bloch.Sweep(*bloch._columns(cell, f, with_gamma=False, force_zero_coupling=zero))
        kl = sw.k * cell.cell_length
        # a real factor on the unit circle is +-1, where both members round to
        # the same value and there is no direction to choose
        for i in np.flatnonzero(~sw.in_stopband & (sw.lambda_flex.imag != 0)):
            with mpmath.workdps(_mp_digits(kl[i])):
                on_circle, shrinks = _mp_shrinks(kl[i], sw.sigma[i], arg[i], sw.lambda_flex[i])
            if on_circle:
                checked += 1
                assert shrinks, (zero, f[i])
    assert checked > 0


@pytest.mark.parametrize("L_um", [0.5, 3.8, 12.0])
def test_sigma_slope_matches_mpmath_derivative(L_um):
    """omega dsigma/domega against mpmath.diff of the kernel's sigma, written
    as -omega rho A c tan(omega h / c) / (E I k^3) with k ~ sqrt(omega)."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    rod, stiffness = cell.rod, cell.trench.bending_stiffness
    f = np.random.default_rng(11).uniform(0.1e9, 20e9, 60)
    f = f[np.abs(np.cos(2 * np.pi * f / rod.velocity * rod.height)) > 1e-3]  # off the poles
    k, _, sigma, s0, phase = forcing_arrays(cell._operands, f)
    slope = sigma_slope_arrays(sigma, s0, phase)
    for f0, k0, sig0, d0 in zip(f.tolist(), k.tolist(), sigma.tolist(), slope.tolist()):
        with mpmath.workdps(30):
            def sig(x):
                omega = 2 * mpmath.pi * x
                kx = k0 * mpmath.sqrt(x / f0)
                tan = mpmath.tan(omega / rod.velocity * rod.height)
                return -omega * rod.impedance_scale * tan / (stiffness * kx**3)

            assert abs(sig(f0) - sig0) <= 1e-12 * abs(sig0)
            ref = f0 * mpmath.diff(sig, mpmath.mpf(f0))
            assert abs(d0 - ref) <= 1e-8 * abs(ref), f0
    pole = np.array([rod.first_pole])
    _, _, sigma, s0, phase = forcing_arrays(cell._operands, pole)
    assert np.isfinite(sigma_slope_arrays(clamped_sigma(sigma), s0, phase)).all()


def test_closed_form_roots_match_mpmath(random_draw):
    """The roots in z = y - 2, and in x = y + 2 where Re y < 0 (anchor -1),
    against mpmath.  x is held relative to |x|, which reaches 5e-5 on these
    draws; the worst error measured is 1.2e-12, at kL = 177, where Q(-2) is
    a difference of terms of size e^kL."""
    kl, sigma = random_draw
    z, v, _, minus = bloch._z_closed(bloch._z_parts(kl), sigma)
    assert 0 < np.count_nonzero(minus) < minus.size
    assert v[~minus].tobytes() == z[~minus].tobytes()
    worst = [0.0, 0.0]
    for x, s, zs, vs, ms in zip(kl.tolist(), sigma.tolist(), z.T.tolist(), v.T.tolist(),
                                minus.T.tolist()):
        with mpmath.workdps(_mp_digits(x)):
            for r, rv, m, ref in zip(zs, vs, ms, _mp_roots(x, s)):
                assert m == (ref.real < 0)
                # relative error of y = z + 2; a root near 0 (mid-passband) is a
                # difference of terms of size 1 and is resolved only to absolute
                # accuracy
                err = abs(mpmath.mpc(r.real, r.imag) + 2 - ref) / max(abs(ref), 1)
                worst[0] = max(worst[0], float(err))
                if m:
                    err = abs(mpmath.mpc(rv.real, rv.imag) - (ref + 2)) / abs(ref + 2)
                    worst[1] = max(worst[1], float(err))
    assert worst[0] <= 1e-12 and worst[1] <= 2e-12, worst


def _without_re_kef(p):
    """The point with its branch-dependent Re(k_ef) zeroed; repr shows every bit."""
    return repr(dataclasses.replace(p, k_ef=complex(0.0, p.k_ef.imag)))


@pytest.mark.parametrize("L_um", [3.8, 8.0])
def test_bloch_point_is_the_sweep_point(L_um):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um}}))
    points = list(sweep(cell, 0.1e9, 6e9, 2000))
    for p in points[::9]:
        assert _without_re_kef(bloch_point(cell, p.f)) == _without_re_kef(p), p.f


@pytest.mark.parametrize("L_um", [3.8, 8.0])
def test_one_point_reflection_and_chain_are_the_sweep_rows(L_um):
    """semi_infinite_reflection and chain_profile run the sweep's stage on one
    frequency: (Gamma, Gamma_e) and ln|lambda_flex| are its row, bit for bit."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um}}))
    sw = sweep(cell, 0.1e9, 6e9, 2000)
    f, gamma, gamma_e, lam = (
        col.tolist() for col in (sw.f, sw.gamma, sw.gamma_e, sw.lambda_flex)
    )
    for i in range(0, len(sw), 9):
        assert repr(semi_infinite_reflection(cell, f[i])) == repr((gamma[i], gamma_e[i])), f[i]
        slope = chain_profile(cell, f[i], 20).eigen_slope
        assert repr(slope) == repr(math.log(abs(lam[i]))), f[i]


_GEOMETRIES = st.builds(
    lambda L, ratio, t1, m1, t2, m2: {
        "L_um": L, "a_um": L * ratio,
        "t_aln1_nm": t1, "t_m1_nm": m1, "t_aln2_nm": t2, "t_m2_nm": m2,
    },
    st.floats(0.5, 20.0), st.floats(0.05, 0.95), st.floats(200, 800), st.floats(100, 500),
    st.floats(300, 1200), st.floats(150, 700),
)


@settings(max_examples=50, deadline=None)
@example(geo={}, f=2416693844.385006, zero=False)  # the default rod pole: sigma clamped
@example(geo={}, f=2004320216.0108006, zero=False)  # a complex-band point of the default cell
@example(geo={}, f=1697003097.4960136 - 1, zero=False)  # 1 Hz either side of a default
@example(geo={}, f=1697003097.4960136 + 1, zero=False)  # band edge
@example(geo={}, f=1.5e9, zero=True)
@example(geo={}, f=1.0, zero=False)  # kL = 3e-4: the roots' series branch
@example(geo={}, f=1e4, zero=True)
@given(geo=_GEOMETRIES, f=st.floats(1e6, 2e10), zero=st.booleans())
def test_one_point_calls_are_their_table_rows_on_drawn_cells(geo, f, zero):
    """The one-point calls run the stage on numpy scalars, the table on an
    array: bloch_point, (Gamma, Gamma_e) and ln|lambda_flex| are the table's row,
    bit for bit."""
    cell = unit_cell(parse_config({"geometry": geo}))
    columns = bloch._columns(cell, np.array([f]), with_gamma=True, force_zero_coupling=zero)
    row = next(iter(bloch.Sweep(*columns)))
    assert _without_re_kef(bloch_point(cell, f, force_zero_coupling=zero)) == _without_re_kef(row)
    gammas = semi_infinite_reflection(cell, f, force_zero_coupling=zero)
    assert repr(gammas) == repr((row.gamma, row.gamma_e))
    slope = chain_profile(cell, f, 20, force_zero_coupling=zero).eigen_slope
    assert repr(slope) == repr(math.log(abs(row.lambda_flex)))


@pytest.mark.parametrize("f", [1e-300, 2.0**46], ids=["1e-300", "rod-top"])
def test_one_point_errors_are_the_table_errors(default_cell, f):
    """Where the closed forms underflow and past the rod's top frequency, each
    one-point call raises the one-element table's NumericError: message and row."""
    with pytest.raises(NumericError) as table:
        bloch.Sweep(*bloch._columns(default_cell, np.array([f]), with_gamma=True))
    for call in (bloch_point, semi_infinite_reflection, lambda c, x: chain_profile(c, x, 20)):
        with pytest.raises(NumericError) as one:
            call(default_cell, f)
        assert (str(one.value), one.value.row) == (str(table.value), table.value.row)


def test_kernel_chunks_change_no_bit(default_cell):
    """Every column of the default sweep, bit for bit, from the kernel on 7-frequency chunks.

    Re(k_ef) is compared through its inputs: the sweep sets its branch from
    lambda_flex, k and in_stopband, which are compared themselves.
    """
    sw = sweep(default_cell, 0.1e9, 6e9, 2000)
    chunks = [
        bloch.Sweep(*bloch._columns(default_cell, sw.f[lo : lo + 7], with_gamma=True))
        for lo in range(0, len(sw), 7)
    ]
    for field in dataclasses.fields(bloch.Sweep):
        column = getattr(sw, field.name)
        joined = np.concatenate([getattr(c, field.name) for c in chunks])
        if field.name == "k_ef":
            column, joined = column.imag, joined.imag
        assert column.shape == joined.shape, field.name
        assert column.tobytes() == joined.tobytes(), field.name


def _rank_one_deviation(mats, L):
    """Worst relative deviation of cell_matrices' T, for a cell of length L, from
    diag(p) + (sigma/4) u w^T at its own k and clamped sigma."""
    kl = mats.k * L
    w = translation_phases(kl / 2)
    u = w * np.array([-1j, 1, 1j, -1])
    expected = np.diag(translation_phases(kl)) + (mats.sigma / 4) * np.outer(u, w)
    return np.max(np.abs(mats.T - expected) / np.abs(expected))


@pytest.mark.parametrize("L_um", [0.5, 3.8, 8.0, 12.0])
def test_transfer_matrix_is_diagonal_plus_rank_one(L_um):
    """D C D = diag(p) + (sigma/4) u w^T, the form the kernel's eigenvectors use."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    for f in np.random.default_rng(5).uniform(0.1e9, 6e9, 40).tolist():
        mats = cell_matrices(cell, f)
        sigma = np.clip(forcing_strength(cell, f)[1], -SIGMA_CLAMP, SIGMA_CLAMP)
        assert mats.sigma == sigma
        assert _rank_one_deviation(mats, cell.cell_length) < 1e-9, f


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND on cell.cell_matrices at a rod pole: with sigma clamped to "
    "1e12, T misses the rank-one form by 2.75e-6 to 1.16e-4 relative",
)
def test_transfer_matrix_is_diagonal_plus_rank_one_at_the_rod_poles():
    """The check of test_transfer_matrix_is_diagonal_plus_rank_one, at the same
    1e-9 bound, exactly at rod.first_pole and 3 * first_pole, where sigma is
    clamped (L from 0.5 to 12 um, a = L/2)."""
    worst = 0.0
    for L_um in (0.5, 1.0, 2.0, 3.8, 8.0, 12.0):
        cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
        for f in (cell.rod.first_pole, 3 * cell.rod.first_pole):
            worst = max(worst, _rank_one_deviation(cell_matrices(cell, f), cell.cell_length))
    assert worst < 1e-9


def _mp_gamma(kl, sigma, lam):
    """Gamma from the kernel's pair rule, at the working precision (callers
    set _mp_digits(kl)).

    The transmitted factor is the exact Bloch factor nearest the kernel's
    lam, the second one the smaller in modulus of the other pair; each
    eigenvector is (lambda - p)^-1 u, unscaled.
    """
    if sigma == 0:
        return mpmath.mpc(0)
    pairs = _mp_pairs(kl, sigma)
    lam_f, i = min(
        ((z, i) for i, pair in enumerate(pairs) for z in pair),
        key=lambda zi: abs(zi[0] - mpmath.mpc(lam.real, lam.imag)),
    )
    lam_e = min(pairs[1 - i], key=abs)
    return _mp_cramer(kl, lam_f, lam_e)[0]


def _mp_cramer(kl, lam_f, lam_e):
    """(Gamma, Gamma_e) of the factors lam_f and lam_e at kL = kl: Cramer's rule
    on their unscaled eigenvectors (lambda - p)^-1 u."""
    x = mpmath.mpf(kl)
    rates = [mpmath.mpc(0, -1), 1, mpmath.mpc(0, 1), -1]
    p = [mpmath.exp(r * x) for r in rates]
    u = [r * mpmath.exp(r * x / 2) for r in rates]
    vf = [ui / (lam_f - pi) for ui, pi in zip(u, p)]
    ve = [ui / (lam_e - pi) for ui, pi in zip(u, p)]
    det = vf[2] * ve[3] - ve[2] * vf[3]
    return (vf[0] * ve[3] - ve[0] * vf[3]) / det, (vf[1] * ve[3] - ve[1] * vf[3]) / det


@pytest.mark.parametrize("L_um", [1.0, 3.8, 8.0, 12.0])
def test_gamma_matches_mpmath(L_um):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    f = np.random.default_rng(31).uniform(0.1e9, 6e9, 300)
    a = bloch.Sweep(*bloch._columns(cell, f, with_gamma=True))
    worst = 0.0
    for kl, s, lam, g in zip(
        (a.k * cell.cell_length).tolist(), a.sigma.tolist(), a.lambda_flex.tolist(),
        a.gamma.tolist(),
    ):
        with mpmath.workdps(_mp_digits(kl)):
            ref = _mp_gamma(kl, s, lam)
            worst = max(worst, float(abs(mpmath.mpc(g.real, g.imag) - ref) / max(abs(ref), 1)))
    assert worst <= 1e-10


def _mp_gammas(kl, sigma, lam, lam_e):
    """(Gamma, Gamma_e) of the exact Bloch factors nearest the kernel's
    transmitted factor lam and other-pair inner factor lam_e (callers set the
    working precision)."""
    exact = [z for pair in _mp_pairs(kl, sigma) for z in pair]
    return _mp_cramer(kl, *(
        min(exact, key=lambda z: abs(z - mpmath.mpc(x.real, x.imag))) for x in (lam, lam_e)
    ))


# the worst errors of Gamma and Gamma_e relative to |exact| with the y-root
# closed form and a Cramer solve, by pitch (BENCH_45.json, precision, parent):
# at the band edges and rod poles, and over the 2000 sweep points, of
# test_gamma_at_band_edges_and_rod_poles_matches_mpmath
_EDGE_ERRORS_OF_THE_Y_ROOT_FORM = {
    0.5: (2.96e-11, 2.52e-11),
    1.0: (2.25e-13, 3.22e-10),
    3.8: (3.44e-11, 1.27e-8),
    8.0: (7.54e-11, 5.37e-9),
    12.0: (1.19e-10, 7.54e-9),
}
_SWEEP_ERRORS_OF_THE_Y_ROOT_FORM = {
    0.5: (1.20e-12, 1.20e-12),
    1.0: (5.60e-12, 5.60e-12),
    3.8: (2.16e-12, 1.01e-11),
    8.0: (1.24e-12, 1.58e-12),
    12.0: (9.57e-13, 6.21e-12),
}


def _worst_gamma_errors(table, L):
    """The worst errors of a table's Gamma and Gamma_e against mpmath,
    relative to |exact|, with the exact factors nearest its lambda_flex and
    its other pair's inner factor."""
    worst = [0.0, 0.0]
    for kl, s, lam, lam_e, g, g_e in zip(
        (table.k * L).tolist(), table.sigma.tolist(), table.lambda_flex.tolist(),
        table.eigenvalues[:, 3].tolist(), table.gamma.tolist(), table.gamma_e.tolist(),
    ):
        with mpmath.workdps(_mp_digits(kl)):
            for i, (value, ref) in enumerate(zip((g, g_e), _mp_gammas(kl, s, lam, lam_e))):
                err = abs(mpmath.mpc(value.real, value.imag) - ref) / abs(ref)
                worst[i] = max(worst[i], float(err))
    return worst


@pytest.mark.parametrize("L_um", sorted(_EDGE_ERRORS_OF_THE_Y_ROOT_FORM))
def test_gamma_at_band_edges_and_rod_poles_matches_mpmath(L_um):
    """Gamma and Gamma_e against mpmath, relative to |exact|, at 0.1 Hz and
    10 Hz either side of every refined band edge of a 2000-point sweep over
    0.1-6 GHz and at the rod's poles, where sigma is clamped, and at the
    sweep's own points; a = L/2.  Near an edge the transmitted pair is a
    near-double root, whose rounding sets the worst error; at the odd edges
    (lambda near -1) the factors are offsets from -1, as at every point where
    Re y < 0.  Neither input may be worse than with the y-root closed form."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    table = sweep(cell, 0.1e9, 6e9, 2000)
    edges = [e for b in stopband_report(table, cell).bands for e in (b.f_low, b.f_high)]
    poles = [p for p, kind in impedance_extrema(cell.rod, 6e9) if kind == "pole"]
    f = np.concatenate([np.add.outer(edges, [-10.0, -0.1, 0.1, 10.0]).ravel(), poles])
    at_edges = bloch.Sweep(*bloch._columns(cell, f, with_gamma=True))
    for t, bounds in ((at_edges, _EDGE_ERRORS_OF_THE_Y_ROOT_FORM[L_um]),
                      (table, _SWEEP_ERRORS_OF_THE_Y_ROOT_FORM[L_um])):
        worst = _worst_gamma_errors(t, cell.cell_length)
        assert worst[0] <= bounds[0] and worst[1] <= bounds[1], (len(t), worst, bounds)


def test_one_point_calls_are_the_rows_of_a_batch_with_odd_edge_points():
    """A batch near every band edge, the odd ones (lambda near -1) included,
    and across the band diagram, in which some points anchor a factor at -1
    and the others anchor every factor at +1, both among the roots and among
    the two factors behind Gamma: every one-point call is its row, bit for
    bit, whether or not its own call anchors a factor at -1."""
    cell = unit_cell(parse_config({"geometry": {"L_um": 3.8, "a_um": 1.9}}))
    edges = [e for b in stopband_report(sweep(cell, 0.1e9, 6e9, 400), cell).bands
             for e in (b.f_low, b.f_high)]
    f = np.concatenate([np.add.outer(edges, [-10.0, 0.1]).ravel(), np.linspace(0.1e9, 6e9, 25)])
    with bloch._quiet():
        fr = bloch._front(cell._operands, f)
        roots_minus = bloch._pairs(fr)[2][-1].any(axis=-1)
        factors_minus = bloch._transmitted(fr)[-1].any(axis=0)
    for minus in (roots_minus, factors_minus):
        assert 0 < np.count_nonzero(minus) < f.size
    rows = bloch.Sweep(*bloch._columns(cell, f, with_gamma=True))
    for fi, row in zip(f.tolist(), rows):
        assert _without_re_kef(bloch_point(cell, fi)) == _without_re_kef(row)
        assert repr(semi_infinite_reflection(cell, fi)) == repr((row.gamma, row.gamma_e))


def _low_kl_cells(count):
    """Seeded cells of _random_cells' range, the default cell first."""
    return [unit_cell(parse_config({}))] + _random_cells(np.random.default_rng(1405), count)


@pytest.mark.parametrize("cell_index", range(4))
def test_low_kl_factor_transmission_and_wavevector_match_mpmath(cell_index):
    """lambda_flex, T and Re(k_ef) against mpmath from 0.05 Hz to 1 MHz, 24
    log-spaced frequencies on each of four cells, with the roots taken in z = y -
    2; above bloch.KL_FLOOR Gamma too.  The y-root closed form kept only about
    four digits of lambda_flex here and fails this test."""
    cell = _low_kl_cells(3)[cell_index]
    L = cell.cell_length
    worst = dict.fromkeys(("lambda", "T", "re_kef", "gamma"), 0.0)
    for f in np.logspace(np.log10(0.05), 6, 24).tolist():
        point = bloch_point(cell, f, with_gamma=False)
        kl = point.k * L
        with mpmath.workdps(60 + int(8 * -math.log10(kl)) if kl < 1 else _mp_digits(kl)):
            exact = min((z for pair in _mp_pairs(kl, point.sigma) for z in pair),
                        key=lambda z: abs(z - point.lambda_flex))
            lam = mpmath.mpc(point.lambda_flex.real, point.lambda_flex.imag)
            branch = round((kl - math.atan2(lam.imag, lam.real)) / (2 * math.pi))
            re_kef = (mpmath.arg(exact) + 2 * mpmath.pi * branch) / L
            worst["lambda"] = max(worst["lambda"], float(abs(lam - exact)))
            worst["T"] = max(worst["T"], float(abs(point.t_coeff - min(abs(exact), 1))))
            worst["re_kef"] = max(worst["re_kef"], float(abs(point.k_ef.real - re_kef) / re_kef))
            if kl >= bloch.KL_FLOOR:
                gamma = bloch_point(cell, f).gamma
                (ref, _) = _mp_gammas(kl, point.sigma, point.lambda_flex, point.eigenvalues[3])
                err = abs(mpmath.mpc(gamma.real, gamma.imag) - ref) / abs(ref)
                worst["gamma"] = max(worst["gamma"], float(err))
    eps = np.finfo(float).eps
    assert worst["lambda"] <= 4 * eps and worst["T"] <= 4 * eps, worst
    assert worst["re_kef"] <= 1e-14 and worst["gamma"] <= 1e-12, worst


@settings(max_examples=25, deadline=None)
@given(
    L_um=st.floats(0.5, 20.0),
    a_frac=st.floats(0.05, 0.95),
    freqs=st.lists(st.floats(1e6, 2e10), min_size=2, max_size=12),
    split=st.integers(1, 11),
)
def test_point_outputs_do_not_depend_on_the_batch(L_um, a_frac, freqs, split):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": a_frac * L_um}}))
    f = np.array(freqs)
    split = min(split, len(freqs) - 1)

    def run(fs):
        return bloch.Sweep(*bloch._columns(cell, fs, with_gamma=True))

    whole = run(f)
    parts = [run(f[:split]), run(f[split:])]
    for field in dataclasses.fields(bloch.Sweep):
        joined = np.concatenate([getattr(p, field.name) for p in parts])
        assert np.array_equal(getattr(whole, field.name), joined, equal_nan=True), field.name


@settings(max_examples=200, deadline=None)
@example(  # the default stack's rod pole, where the impedance is its infinite marker
    layers={"t_aln1_nm": 400.0, "t_m1_nm": 250.0, "t_aln2_nm": 600.0, "t_m2_nm": 330.0},
    f=2416693844.385006,
)
@given(
    layers=st.fixed_dictionaries(
        {name: st.floats(1.0, 1e5) for name in ("t_aln1_nm", "t_m1_nm", "t_aln2_nm", "t_m2_nm")}
    ),
    f=st.floats(1.0, 1e11),
)
def test_one_frequency_calls_are_rows_of_their_array_forms(layers, f):
    cell = unit_cell(parse_config({"geometry": layers}))
    row = float(flexural_wavevectors(cell.trench, np.array([f]))[0])
    assert repr(flexural_wavevector(cell.trench, f)) == repr(row)
    _, f_eff, sigma, _, _ = forcing_arrays(cell._operands, np.array([f]))
    assert repr(forcing_strength(cell, f)) == repr((float(f_eff[0]), float(sigma[0])))
