import cmath
import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave import (
    bloch_point,
    cell_matrices,
    chain_profile,
    driving_impedance,
    field_profile,
    flexural_wavevector,
    forcing_strength,
    near_pole,
    parse_config,
    rod_modeshape,
    scatter_coefficients,
    semi_infinite_reflection,
    stopband_report,
    sweep,
    unit_cell,
    wavelength_over_thickness,
)
from rodwave import bloch, cli, workbench
from rodwave.bloch import band_gamma_extrema
from rodwave.errors import NumericError
from rodwave.rod import _impedance_arrays
from test_kernel import _THICKNESS


def _rows(table, start, stop):
    """Rows start..stop-1 of a Sweep table, as a table of views of its columns."""
    return bloch.Sweep(*(getattr(table, f.name)[start:stop] for f in dataclasses.fields(table)))


@pytest.fixture(scope="module")
def default_sweep(default_cell):
    return sweep(default_cell, 0.1e9, 6e9, 800)


@pytest.fixture(scope="module")
def default_report(default_cell, default_sweep):
    return stopband_report(default_sweep, default_cell)


def _assert_transparent_without_coupling(cell, f):
    p = bloch_point(cell, f, force_zero_coupling=True)
    k = flexural_wavevector(cell.trench, f)
    kl = k * cell.cell_length
    expected = {cmath.exp(-1j * kl), cmath.exp(kl), cmath.exp(1j * kl), cmath.exp(-kl)}
    for ev in p.eigenvalues:
        assert min(abs(ev - e) for e in expected) < 1e-9 * max(abs(ev), 1.0)
    assert p.t_coeff == pytest.approx(1.0, abs=1e-12)
    assert p.k_ef.real == pytest.approx(k, rel=1e-9)
    assert p.k_ef.imag == pytest.approx(0.0, abs=1e-9 / cell.cell_length)
    assert not p.in_stopband
    assert p.gamma == 0
    assert semi_infinite_reflection(cell, f, force_zero_coupling=True) == (0, 0)


def test_zero_coupling_point_is_transparent(default_cell):
    _assert_transparent_without_coupling(default_cell, 2.2e9)


@settings(max_examples=40, deadline=None)
@given(
    L_um=st.floats(0.5, 12.0),
    a_frac=st.floats(0.05, 0.95),
    layers=st.fixed_dictionaries({name: st.floats(*r) for name, r in _THICKNESS.items()}),
    f=st.floats(0.1e9, 6e9),
)
def test_zero_coupling_is_transparent_on_drawn_cells(L_um, a_frac, layers, f):
    cell = unit_cell(parse_config({"geometry": dict(layers, L_um=L_um, a_um=a_frac * L_um)}))
    _assert_transparent_without_coupling(cell, f)


def test_eigenvalues_agree_with_lapack(default_cell):
    rng = np.random.default_rng(9)
    for f in rng.uniform(0.15e9, 5.9e9, 15):
        p = bloch_point(default_cell, float(f))
        mats = cell_matrices(default_cell, float(f))
        lapack = np.linalg.eigvals(mats.T)
        for ev in p.eigenvalues:
            rel = min(abs(ev - w) / max(abs(w), 1e-30) for w in lapack)
            assert rel < 1e-6


def test_eigenvalue_reciprocity_across_sweep(default_sweep):
    for p in default_sweep:
        evs = list(p.eigenvalues)
        used = set()
        for i, ev in enumerate(evs):
            if i in used:
                continue
            partners = [
                j
                for j in range(4)
                if j != i and j not in used and abs(ev * evs[j] - 1) < 1e-9
            ]
            assert partners, f"no reciprocal partner at f={p.f}"
            used.add(i)
            used.add(partners[0])
        assert p.reciprocity_defect < 1e-9


def test_unit_circle_pair_count(default_sweep):
    for p in default_sweep:
        on_circle = sum(1 for ev in p.eigenvalues if abs(abs(ev) - 1) < 1e-8)
        if p.in_stopband:
            assert on_circle == 0
        else:
            assert on_circle >= 2


def test_stopband_wavevector_structure(default_sweep, default_cell):
    L = default_cell.cell_length
    collided = 0
    in_gap = 0
    for p in default_sweep:
        if not p.in_stopband:
            continue
        in_gap += 1
        assert p.t_coeff < 1
        assert p.k_ef.imag > 0
        if p.complex_band:
            # hybridized decaying quadruplet: Re(k_ef) legitimately leaves
            # the zone-boundary rays on these narrow segments
            collided += 1
            continue
        resid = (p.k_ef.real * L) % math.pi
        assert min(resid, math.pi - resid) < 1e-3
    assert in_gap > 0
    assert collided <= max(3, in_gap // 20)


def test_passband_kef_tracks_uncoupled_wavevector(default_sweep):
    # branch-continuous Re(k_ef) stays within one zone width of the bare k
    for p in default_sweep:
        if not p.in_stopband:
            assert abs(p.k_ef.real - p.k) < math.pi / 3.8e-6


@pytest.mark.parametrize(
    "f_start, f_stop, points",
    [(1.8e9, 2.6e9, 50), (1.8e9, 2.6e9, 51), (5.2e9, 5.24e9, 40), (2.2e9, 2.2001e9, 2)],
    ids=["1.8-2.6GHz-50", "1.8-2.6GHz-51", "5.2-5.24GHz-40", "2.2-2.2001GHz-2"],
)
def test_sweep_without_passband_takes_the_branch_at_its_midpoint(
    default_cell, f_start, f_stop, points
):
    # the whole table is one run anchored at its midpoint, not on branch 0
    sw = sweep(default_cell, f_start, f_stop, points)
    assert sw.in_stopband.all()
    mid = (points - 1) // 2
    assert sw.k_ef.real[mid] == bloch_point(default_cell, sw.f[mid]).k_ef.real


def test_sweep_detects_multiple_bands(default_report):
    assert len(default_report.bands) >= 3
    lows = [b.f_low for b in default_report.bands]
    highs = [b.f_high for b in default_report.bands]
    assert lows == sorted(lows)
    assert all(h > l for l, h in zip(lows, highs))
    assert all(h < l2 for h, l2 in zip(highs, lows[1:]))  # disjoint


def test_pole_frequency_inside_a_band(default_report, default_cell):
    pole = default_cell.rod.first_pole
    assert any(b.f_low <= pole <= b.f_high for b in default_report.bands)


def test_primary_band_center_near_device_resonance(default_report):
    primary = default_report.primary_band
    assert primary is not None
    assert abs(primary.f_center - 2.35e9) / 2.35e9 < 0.15


def test_measured_resonance_frequency_inside_a_band(default_report):
    assert any(b.f_low <= 2.35e9 <= b.f_high for b in default_report.bands)


def test_all_passband_range_gives_empty_report(default_cell):
    # 0.15-0.30 GHz sits between the two lowest gaps of the default cell
    points = sweep(default_cell, 0.15e9, 0.30e9, 120)
    report = stopband_report(points, default_cell)
    assert report.bands == ()
    assert report.resonance_markers == ()


def test_stopband_runs_at_the_sweep_ends(default_cell):
    base = sweep(default_cell, 1e9, 1.01e9, 11)
    # runs at the first three points, at point 5 alone and at the last three
    stops = [True, True, True, False, False, True, False, False, True, True, True]

    def report(flags):
        flags = np.array(flags)
        table = dataclasses.replace(
            base, f=1e9 + 1e6 * np.arange(11), in_stopband=flags,
            t_coeff=np.where(flags, 0.5, 1.0),
        )
        (r,) = _grid_edge_reports(table, len(table), [default_cell])
        assert r.coarse_grid_warning == _loop_report(table).coarse_grid_warning
        return [(b.f_low, b.f_high) for b in r.bands], r.coarse_grid_warning, table.f.tolist()

    edges, coarse, f = report(stops)
    assert edges == [(f[0], f[2]), (f[5], f[5]), (f[8], f[10])]
    assert coarse
    edges, coarse, f = report(stops[:5] + [False] + stops[6:])
    assert edges == [(f[0], f[2]), (f[8], f[10])]
    assert not coarse


@pytest.mark.parametrize("L_um", [0.5, 1.0, 3.8, 8.0, 12.0])
def test_band_centers_are_left_to_right_sums(L_um):
    # built-in sum() of floats is compensated from Python 3.12 on: the centers
    # must be the same bits on every Python
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    sw = sweep(cell, 0.1e9, 6e9, 800)
    (report,) = _grid_edge_reports(sw, len(sw), [cell])
    assert report.bands
    assert repr(report) == repr(_loop_report(sw))


def test_band_centers_shift_down_with_taller_rod(default_config, default_cell, default_sweep):
    geo = default_config.geometry
    taller = dataclasses.replace(geo, t_aln2=geo.t_aln2 * 1.1)
    cell_tall = unit_cell(default_config, taller)
    base_report = stopband_report(default_sweep, default_cell)
    tall_report = stopband_report(sweep(cell_tall, 0.1e9, 6e9, 800), cell_tall)
    assert tall_report.primary_band.f_center < base_report.primary_band.f_center


def test_gamma_zero_when_coupling_forced_off(default_cell):
    for f in (0.3e9, 1.1e9, 2.4167e9, 5.5e9):
        gamma, gamma_e = semi_infinite_reflection(default_cell, f, force_zero_coupling=True)
        assert gamma == 0
        assert gamma_e == 0


def test_gamma_unimodular_inside_bands(default_sweep):
    checked = 0
    for p in default_sweep:
        if p.in_stopband:
            assert abs(p.gamma) == pytest.approx(1.0, abs=1e-6)
            checked += 1
    assert checked > 50


def test_gamma_subunimodular_in_passbands(default_sweep):
    for p in default_sweep:
        if not p.in_stopband:
            assert abs(p.gamma) <= 1 + 1e-9


def _half_rod_sweep(L_um):
    """The default 2000-point sweep of a cell of pitch L_um with a = L/2."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    return cell, sweep(cell, 0.1e9, 6e9, 2000)


@pytest.mark.parametrize("L_um", [1.0, 8.0, 12.0])
def test_stopband_points_have_no_unit_modulus_factor(L_um):
    _, points = _half_rod_sweep(L_um)
    band = [p for p in points if p.in_stopband]
    assert band
    for p in band:
        assert abs(abs(p.gamma) - 1.0) <= 1e-12, p.f
        assert all(abs(abs(lam) - 1.0) > 1e-8 for lam in p.eigenvalues), p.f


def test_band_decision_agrees_with_long_chain_decay_at_short_pitch():
    # on this grid the shallowest band point decays 0.072 Np/cell and the
    # steepest passband chain slope is 0.009 Np/cell, so -0.03 separates them
    cell, points = _half_rod_sweep(1.0)
    for p in points:
        profile = chain_profile(cell, p.f, 200)
        assert (profile.fitted_slope < -0.03) == p.in_stopband, p.f
        if -profile.eigen_slope > 0.3:
            assert profile.fitted_slope / profile.eigen_slope == pytest.approx(1.0, abs=2e-3)


def _beam_power_flux(psi: np.ndarray, k: float) -> float:
    """Time-averaged flexural power flux of a four-component state.

    Normalized so a unit amplitude in the forward propagating channel carries
    flux +1; x-independent in a uniform lossless span.
    """
    lam = np.array([-1j * k, k, 1j * k, -k])
    v = np.sum(psi)
    v1 = np.sum(psi * lam)
    v2 = np.sum(psi * lam**2)
    v3 = np.sum(psi * lam**3)
    return float(-np.imag(v3 * np.conj(v) - v2 * np.conj(v1)) / (2 * k**3))


def test_gamma_power_bookkeeping(default_sweep):
    # lossless chain: |Gamma|^2 plus the flux transmitted into the chain is 1
    for p in list(default_sweep)[::7]:
        psi = np.array([p.gamma, p.gamma_e, 1.0, 0.0], complex)
        transmitted = _beam_power_flux(psi, p.k)
        assert abs(p.gamma) ** 2 + transmitted == pytest.approx(1.0, abs=1e-8)


def test_gamma_fixed_constraint_signature_at_pole_band(default_report, default_cell):
    pole = default_cell.rod.first_pole
    band = next(b for b in default_report.bands if b.f_low <= pole <= b.f_high)
    (f_max, re_max), (f_min, re_min) = band_gamma_extrema(default_cell, band.f_low, band.f_high)
    assert re_max > 0.99  # virtual fixed constraint: Re(Gamma) reaches +1
    assert re_min < -0.99  # and the opposite edge reaches the stress-free -1


def test_gamma_at_rod_zero_is_transparent(default_cell):
    gamma, _ = semi_infinite_reflection(default_cell, default_cell.rod.first_zero)
    assert abs(gamma) < 1e-4


def test_resonance_markers_reported(default_report):
    assert len(default_report.resonance_markers) >= 3


def test_chain_decay_matches_eigen_slope(default_cell, default_report):
    primary = default_report.primary_band
    profile = chain_profile(default_cell, primary.f_center, 7)
    assert profile.fitted_slope / profile.eigen_slope == pytest.approx(1.0, abs=0.02)


def test_chain_passband_profile_flat(default_cell):
    profile = chain_profile(default_cell, default_cell.rod.first_zero, 7)
    assert np.max(np.abs(profile.magnitudes - 1.0)) < 1e-9
    profile = chain_profile(default_cell, 3.0e9, 9, force_zero_coupling=True)
    assert np.max(np.abs(profile.magnitudes - 1.0)) < 1e-9


def test_chain_long_cascade_stays_finite(default_cell):
    profile = chain_profile(default_cell, default_cell.rod.first_pole, 200)
    assert np.all(np.isfinite(profile.magnitudes))
    assert profile.magnitudes[0] == 1.0
    assert profile.magnitudes[-1] < 1e-12


def test_chain_decay_below_underflow_matches_eigen_slope(default_cell):
    # 7.12 Np/cell over 200 cells decays far below the smallest double; the
    # slope comes from the accumulated logarithms, not underflowed magnitudes
    profile = chain_profile(default_cell, 2.006e9, 200)
    assert profile.eigen_slope < -7.0
    assert np.all(np.isfinite(profile.log_magnitudes))
    assert profile.magnitudes[-1] == 0.0
    assert profile.fitted_slope / profile.eigen_slope == pytest.approx(1.0, abs=0.02)


def test_chain_transmission_consistent_with_gamma(default_cell, default_report):
    # deep in a band the finite-chain entry reflection converges to the
    # semi-infinite coefficient: independent cross-check of both solvers
    primary = default_report.primary_band
    f = primary.f_center
    gamma_inf, _ = semi_infinite_reflection(default_cell, f)
    profile = chain_profile(default_cell, f, 30)
    assert profile.reflection == pytest.approx(gamma_inf, abs=1e-6)


def _mp_chain(kl, sigma, n, digits):
    """(ln|x_j[2]| for j = 0..n, x_0[0]) of the finite-chain boundary-value
    problem x_0[2:4] = (1, 0), x_n[0:2] = 0, x_{j+1} = T x_j, at the given digits.

    T = diag(p) + (sigma/4) u w^T is built from kL and sigma alone; x_0 comes
    from a 2x2 solve on T^n.  The forward powers amplify the rounding of x_0
    by up to (max|lambda| / |decay per cell|)^n, which the digits must cover.
    """
    with mpmath.workdps(digits):
        x, s4 = mpmath.mpf(kl), mpmath.mpf(sigma) / 4
        rates = [mpmath.mpc(0, -1), 1, mpmath.mpc(0, 1), -1]
        w = [mpmath.exp(r * x / 2) for r in rates]
        t = [
            [s4 * ri * wi * wk + (wi * wi if i == k else 0) for k, wk in enumerate(w)]
            for i, (ri, wi) in enumerate(zip(rates, w))
        ]
        tn = mpmath.matrix(t) ** n
        r0, r1 = mpmath.lu_solve(tn[0:2, 0:2], -tn[0:2, 2])
        state = [r0, r1, mpmath.mpf(1), mpmath.mpf(0)]
        logs = [0.0]
        for _ in range(n):
            state = [mpmath.fsum(row[k] * state[k] for k in range(4)) for row in t]
            with mpmath.workdps(20):
                logs.append(float(mpmath.log(abs(state[2]))))
        return np.array(logs), complex(r0)


def _chain_error(cell, f, n):
    """Worst |ln|x_j|| error over j = 0..n and the reflection error of chain_profile."""
    a = bloch._table(cell, np.array([f]), with_gamma=False)
    # digits >= 30 + n log10(max|lambda|), plus the decay of the slower inner factor
    outer, inner = a.eigenvalues[0, ::2], a.eigenvalues[0, 1::2]
    digits = 30 + math.ceil(n * math.log10(np.abs(outer).max() / np.abs(inner).max()))
    logs, reflection = _mp_chain(float(a.k[0] * cell.cell_length), float(a.sigma[0]), n, digits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = chain_profile(cell, f, n)
    assert np.all(np.isfinite(profile.log_magnitudes))
    return np.max(np.abs(profile.log_magnitudes - logs)), abs(profile.reflection - reflection)


def _fabricated_cells(config, seed, count):
    """(cell, frequency) pairs: thicknesses within 5 % of the default,
    L 3.6-4.0 um, a 1.8-2.2 um, f 0.1-6 GHz."""
    rng = np.random.default_rng(seed)
    geo = config.geometry
    layers = ("t_aln1", "t_m1", "t_aln2", "t_m2")
    pairs = []
    for _ in range(count):
        drawn = dataclasses.replace(
            geo,
            **{t: getattr(geo, t) * rng.uniform(0.95, 1.05) for t in layers},
            a=rng.uniform(1.8e-6, 2.2e-6),
            L=rng.uniform(3.6e-6, 4.0e-6),
        )
        pairs.append((unit_cell(config, drawn), float(rng.uniform(0.1e9, 6e9))))
    return pairs


@pytest.mark.parametrize(
    "case", ["rod pole", "2.006 GHz", "fabricated 0", "fabricated 1", "fabricated 2"]
)
def test_chain_matches_mpmath(default_config, default_cell, case):
    # 200 cells: 175 Np at the rod pole, 1424 Np at 2.006 GHz, terminal boundary included
    cells = {
        "rod pole": (default_cell, default_cell.rod.first_pole),
        "2.006 GHz": (default_cell, 2.006e9),
    }
    cells.update(
        (f"fabricated {i}", pair) for i, pair in enumerate(_fabricated_cells(default_config, 8, 3))
    )
    log_err, reflection_err = _chain_error(*cells[case], 200)
    assert log_err <= 1e-7
    assert reflection_err <= 1e-10


def test_chain_at_band_edges_matches_mpmath(default_config, default_cell):
    # the two modes of the flexural pair coalesce at an edge, so the mode
    # basis is ill-conditioned there: measured worst 6e-9 in ln|x| and
    # 2.3e-9 in the reflection on 60 cells
    sw = default_config.sweep
    report = stopband_report(sweep(default_cell, sw.f_start, sw.f_stop, sw.points), default_cell)
    edges = [f for band in report.bands for f in (band.f_low, band.f_high)]
    assert len(edges) >= 10
    for edge in edges:
        for offset in (0.0, 1e-3, -1e-3, 1.0, -1.0):
            log_err, reflection_err = _chain_error(default_cell, edge + offset, 60)
            assert log_err <= 1e-7, (edge, offset)
            assert reflection_err <= 1e-7, (edge, offset)


def test_field_profile_zero_coupling_unit_wave(default_cell):
    f = default_cell.rod.first_zero
    x, v = field_profile(default_cell, f, np.array([0, 0, 1, 0], complex), 101)
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-6


def test_field_profile_continuity_at_piston_faces(default_cell):
    rng = np.random.default_rng(2)
    f = 1.9e9
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = default_cell.rod_width
    L = default_cell.cell_length
    mats = cell_matrices(default_cell, f)
    k = mats.k
    lam = np.array([-1j * k, k, 1j * k, -k])
    t_raw = mats.D @ amps
    w_raw = mats.C @ (mats.D @ amps)

    def val(coeffs, x, order=0):
        return np.sum(coeffs * lam**order * np.exp(lam * x))

    for order in range(3):
        left = val(t_raw, -a / 2, order)
        right = val(w_raw, a / 2, order)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


def test_field_profile_shear_jump_matches_forcing(default_cell):
    rng = np.random.default_rng(4)
    f = 1.9e9
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = default_cell.rod_width
    mats = cell_matrices(default_cell, f)
    k = mats.k
    lam = np.array([-1j * k, k, 1j * k, -k])
    t_raw = mats.D @ amps
    w_raw = mats.C @ (mats.D @ amps)

    def val(coeffs, x, order=0):
        return np.sum(coeffs * lam**order * np.exp(lam * x))

    sigma = forcing_strength(default_cell, f)[1]
    jump = val(w_raw, a / 2, 3) - val(t_raw, -a / 2, 3)
    expected = sigma * k**3 * val(t_raw, -a / 2, 0)
    assert jump == pytest.approx(expected, rel=1e-9)


def test_field_profile_piston_region_uniform(default_cell):
    x, v = field_profile(default_cell, 2.0e9, np.array([0.2, 0.1, 1, 0.05], complex), 400)
    a = default_cell.rod_width
    inside = np.abs(x) <= a / 2 - 1e-9
    assert np.ptp(np.abs(v[inside])) == 0.0


def test_sweep_argument_validation(default_cell):
    with pytest.raises(ValueError):
        sweep(default_cell, 0.0, 1e9, 10)
    with pytest.raises(ValueError):
        sweep(default_cell, 2e9, 1e9, 10)
    with pytest.raises(ValueError):
        sweep(default_cell, 1e9, 2e9, 1)
    with pytest.raises(ValueError):
        chain_profile(default_cell, 1e9, 1)
    # non-finite bounds are refused by name before any evaluation, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in [(1e9, math.inf), (math.nan, 2e9), (1e9, math.nan), (-math.inf, 2e9)]:
            for name, call, bounds in [
                ("sweep", lambda: sweep(default_cell, lo, hi, 10), "f_start < f_stop"),
                ("sweep_cells", lambda: bloch.sweep_cells([default_cell], lo, hi, 10),
                 "f_start < f_stop"),
                ("band_gamma_extrema", lambda: band_gamma_extrema(default_cell, lo, hi),
                 "f_low < f_high"),
            ]:
                with pytest.raises(ValueError, match=rf"^{name}: need 0 < {bounds} < inf$"):
                    call()


_ONE_POINT_CALLS = {
    "bloch_point": bloch_point,
    "semi_infinite_reflection": semi_infinite_reflection,
    "chain_profile": lambda cell, f: chain_profile(cell, f, 7),
    "forcing_strength": forcing_strength,
    "scatter_coefficients": scatter_coefficients,
    "cell_matrices": cell_matrices,
    "field_profile": lambda cell, f: field_profile(cell, f, np.array([1, 0, 0, 0]), 5),
    "flexural_wavevector": lambda cell, f: flexural_wavevector(cell.trench, f),
    "wavelength_over_thickness": lambda cell, f: wavelength_over_thickness(cell.trench, f),
}


@pytest.mark.parametrize("f", [math.inf, math.nan, -1e9])
@pytest.mark.parametrize("name", list(_ONE_POINT_CALLS))
def test_single_frequency_calls_need_finite_positive_f(default_cell, name, f):
    """Each one-point call refuses f outside 0 < f < inf under its own name."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name}: f must be > 0 and finite$"):
            _ONE_POINT_CALLS[name](default_cell, f)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cell, sw: stopband_report(_rows(sw, 0, 1), cell),
         "stopband_report: need at least 2 sweep points"),
        (lambda cell, sw: field_profile(cell, 1e9, np.array([1, 0, 0, 0]), 1),
         "field_profile: x_samples must be >= 2"),
        (lambda cell, sw: field_profile(cell, 1e9, np.array([1, 0, 0]), 5),
         "field_profile: amplitudes must be a 4-vector"),
    ],
    ids=["stopband_report-one-point", "field_profile-one-sample", "field_profile-3-vector"],
)
def test_argument_refusals_name_the_call(default_cell, default_sweep, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(default_cell, default_sweep)


@pytest.mark.parametrize("n_cells", [7.5, 7.0, "7"])
def test_chain_cell_count_must_be_an_integer(default_cell, n_cells):
    with pytest.raises(TypeError, match="integer"):
        chain_profile(default_cell, 1e9, n_cells)


@pytest.mark.parametrize("f", [np.float64(2e9), 2_000_000_000, 2e9])
def test_chain_profile_f_is_the_evaluated_float(default_cell, f):
    # the frequency of the evaluated one-element row, as BlochPoint.f is
    assert type(chain_profile(default_cell, f, 5).f) is float
    assert chain_profile(default_cell, f, 5).f == bloch_point(default_cell, f).f == 2e9


def test_out_of_range_kl_is_a_numeric_error():
    # kL = 359 at 0.5 GHz: su * su of the closed form overflows
    cell = unit_cell(parse_config({"geometry": {"L_um": 200, "a_um": 2}}))
    with pytest.raises(NumericError, match=r"f=500000000\.0 Hz \(kL = 359\.0\)"):
        bloch_point(cell, 0.5e9)


@pytest.mark.parametrize("L_um", [0.5, 3.8, 12.0, 20.0])
def test_one_point_calls_raise_no_runtime_warning(L_um):
    # the passband slope is evaluated at stopband points too, though only
    # passband points read it: no call on the grid may warn
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for f in np.linspace(0.1e9, 6e9, 300).tolist():
            bloch_point(cell, f)
            semi_infinite_reflection(cell, f)
            chain_profile(cell, f, 200)


def _counted_errstates(monkeypatch) -> list:
    """The keyword sets of every numpy.errstate entered from here on."""
    entries = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entries.append(kw) or errstate(**kw))
    return entries


@pytest.mark.parametrize("f, in_stopband", [(1.5e9, False), (2.0e9, True)])
def test_one_point_calls_enter_one_errstate(default_cell, monkeypatch, f, in_stopband):
    # one run of the stage under one block (bloch._quiet), passband slope included
    assert bloch_point(default_cell, f).in_stopband is in_stopband
    entries = _counted_errstates(monkeypatch)
    for call in (bloch_point, semi_infinite_reflection, lambda c, f: chain_profile(c, f, 200)):
        entries.clear()
        call(default_cell, f)
        assert entries == [dict(over="ignore", invalid="ignore", divide="ignore")]


def test_default_sweep_enters_one_errstate_per_stage_call(tmp_path, monkeypatch):
    # the five stage calls of test_default_sweep_and_report_make_at_most_five_stage_calls
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output": {"dir": str(tmp_path)}}))
    entries = _counted_errstates(monkeypatch)
    assert cli.main(["sweep", "--config", str(config)]) == 0
    assert len(entries) == 5


def test_stage_leaves_the_error_state_as_it_found_it(default_cell):
    before = np.geterr()
    bloch_point(default_cell, 2e9)
    assert np.geterr() == before
    with pytest.raises(NumericError, match="f=1e-300 Hz"):
        bloch_point(default_cell, 1e-300)
    assert np.geterr() == before


def test_eigen_check_runs_after_the_stage_block(default_cell, monkeypatch):
    # an overflow in _backward_error is not silenced: sigma = 1e300 overflows s4**2
    check = bloch._backward_error
    monkeypatch.setattr(
        bloch, "_backward_error", lambda kl, sigma, *eig: check(kl, np.full_like(sigma, 1e300), *eig)
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        bloch_point(default_cell, 2e9)


def test_out_of_range_kl_raises_no_runtime_warning():
    # past the finite kL range the slope overflows with the roots: the
    # NumericError comes alone
    cell = unit_cell(parse_config({"geometry": {"L_um": 200, "a_um": 2}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (bloch_point, semi_infinite_reflection, lambda c, f: chain_profile(c, f, 20)):
            with pytest.raises(NumericError):
                call(cell, 0.5e9)


def test_small_kl_raises_no_runtime_warning(default_cell):
    # kL = 1e-5 at 1 mHz: the two Bloch pairs round onto each other and Gamma
    # is 0/0.  The NumericError comes alone and names the small side
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (bloch_point, semi_infinite_reflection):
            with pytest.raises(
                NumericError, match=r"f=0\.001 Hz \(kL = 9\.65e-06\): .* at small kL$"
            ):
                call(default_cell, 1e-3)


def test_uncoupled_below_the_small_kl_floor_raises_as_chain_profile(default_cell):
    # at 1e-30 Hz the uncoupled eigenvectors are 0/0: bloch_point returned a
    # NaN reciprocity defect and semi_infinite_reflection (0j, 0j), both with a
    # RuntimeWarning.  At 1 mHz the eigenvectors are finite but both pairs
    # round to lambda = 1, so Gamma is 0/0: both returned Gamma = 0
    for f, kl in [(1e-30, "3.05e-19"), (1e-3, "9.65e-06")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError) as chain:
                chain_profile(default_cell, f, 20, force_zero_coupling=True)
            for call in (bloch_point, semi_infinite_reflection):
                with pytest.raises(NumericError) as point:
                    call(default_cell, f, force_zero_coupling=True)
                assert str(point.value) == str(chain.value)
        assert str(chain.value).startswith(f"non-finite Gamma at f={f} Hz (kL = {kl}): ")


@pytest.mark.parametrize("f", [1e-10, 1e-3, 0.03, 0.1, 0.3])
def test_chain_below_the_small_kl_floor_raises_as_bloch_point(default_cell, f):
    # both y-roots round to exactly 2 here, so the four modes are one: the
    # chain raised numpy's LinAlgError, or at 0.03 Hz returned |amp| = 522
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError) as point:
            bloch_point(default_cell, f)
        with pytest.raises(NumericError) as chain:
            chain_profile(default_cell, f, 20)
    assert str(chain.value) == str(point.value)
    assert str(chain.value).endswith("at small kL")


@pytest.mark.parametrize("f", [0.5, 1.0])
def test_chain_just_above_the_small_kl_floor_runs(default_cell, f):
    profile = chain_profile(default_cell, f, 20)
    assert np.all(np.isfinite(profile.log_magnitudes))
    assert abs(profile.reflection) < 1


@pytest.mark.xfail(
    strict=True,
    reason="between kL ~ 5e-5 and 2.4e-4 the closed-form discriminant cannot resolve"
    " the two Bloch pairs: a complex-band stopband with T = 0.99988 and no error",
)
def test_uncoupled_just_above_the_small_kl_floor_is_no_silent_stopband(default_cell):
    # kL = 7.4e-5 on the default cell, 1 - T = 1.2e-4
    f = 0.05877938969484743
    try:
        point = bloch_point(default_cell, f, force_zero_coupling=True)
    except NumericError as exc:
        assert str(exc).endswith("at small kL")
        return
    assert not point.in_stopband
    assert abs(point.t_coeff - 1.0) <= 4 * np.finfo(float).eps


def test_kl_far_past_the_range_is_readable(default_cell):
    with pytest.raises(NumericError, match=r"\(kL = 3\.05e\+146\): .* at large kL$"):
        cell_matrices(default_cell, 1e300)


# every public call that takes a frequency, on the default cell: the Bloch-level
# ones, the cell-level ones, then the rod and trench ones
_BLOCH_CALLS = {
    "bloch_point": bloch_point,
    "semi_infinite_reflection": semi_infinite_reflection,
    "chain_profile": lambda cell, f: chain_profile(cell, f, 20),
    "sweep": lambda cell, f: sweep(cell, f / 2, f, 3),
    "sweep_cells": lambda cell, f: bloch.sweep_cells([cell], f / 2, f, 3),
    "band_gamma_extrema": lambda cell, f: band_gamma_extrema(cell, f / 2, f),
}
_CELL_CALLS = {
    "cell_matrices": cell_matrices,
    "scatter_coefficients": scatter_coefficients,
    "forcing_strength": forcing_strength,
    "field_profile": lambda cell, f: field_profile(cell, f, np.ones(4), 5),
}
_LAYER_CALLS = {
    "flexural_wavevector": lambda cell, f: flexural_wavevector(cell.trench, f),
    "wavelength_over_thickness": lambda cell, f: wavelength_over_thickness(cell.trench, f),
    "driving_impedance": lambda cell, f: driving_impedance(cell.rod, f),
    "near_pole": lambda cell, f: near_pole(cell.rod, f),
    "rod_modeshape": lambda cell, f: rod_modeshape(cell.rod, f, 1.0, 5),
}


@pytest.mark.parametrize(
    "f, name", [(1.7e308, name) for name in _BLOCH_CALLS | _CELL_CALLS | _LAYER_CALLS]
    + [(1e300, name) for name in _BLOCH_CALLS | _CELL_CALLS]
    + [(1e-300, name) for name in _BLOCH_CALLS]
)
def test_frequency_at_either_end_of_the_float_range_is_a_numeric_error_naming_f(default_cell, f, name):
    # above about 2.86e307 Hz 2 pi f overflows: the rod layer's math.tan(inf)
    # raised a ValueError, and the trench calls returned k = inf and
    # lambda/h_t = 0.0.  At 1e300 Hz k**3 overflows: forcing_strength returned
    # sigma = -inf/inf = NaN, the others raised behind a RuntimeWarning, as the
    # Bloch-level calls did at 1e-300 Hz, where sigma is 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r" at f=\S+ Hz") as exc:
            (_BLOCH_CALLS | _CELL_CALLS | _LAYER_CALLS)[name](default_cell, f)
    if name == "sweep_cells":  # the error's row is the named frequency's
        assert f"f={np.linspace(f / 2, f, 3)[exc.value.row].item()!r} Hz" in str(exc.value)


def test_rod_zero_raises_no_runtime_warning(default_cell):
    # the Bloch factors round onto the uncoupled phases there; the scaled
    # eigenvectors stay finite without a frequency nudge
    zero = default_cell.rod.first_zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        semi_infinite_reflection(default_cell, zero)
        chain_profile(default_cell, zero, 7)


_GRID = (1.4e9, 3.2e9, 120)
# a and L sweeps cross a = L (3.8 um and 2 um by default), so some of their
# steps are skipped; a thickness sweep keeps a and L, so all its steps run
_GEOM_SPANS_UM = {
    "a": (1.0, 4.6),
    "L": (1.0, 8.0),
    "t_aln1": (0.3, 0.5),
    "t_aln2": (0.54, 0.66),
    "t_m1": (0.2, 0.3),
    "t_m2": (0.28, 0.38),
}


def _mask_table(f, t, in_stopband):
    """A Sweep of the columns sweep_cells returns, every other column 0: the
    stopband report, _rows and _loop_report read only these three."""
    zero = np.zeros(f.size)
    return bloch.Sweep(**{name: zero for name in bloch._SWEEP_FIELDS}
                       | {"f": f, "t_coeff": t, "in_stopband": in_stopband})


@pytest.mark.parametrize("parameter", sorted(_GEOM_SPANS_UM))
def test_geometry_sweep_table_rows_are_the_step_sweeps(tmp_path, monkeypatch, parameter):
    """Each kept step's rows of the one-pass geometry columns are bit for bit
    the frequencies and stopband mask of the stage's table of its own cell and
    grid, and its t_coeff at every stopband point, and its geomsweep.csv row is
    that table's primary band."""
    lo, hi = _GEOM_SPANS_UM[parameter]
    config = parse_config({
        "sweep": dict(zip(("f_start_hz", "f_stop_hz", "points"), _GRID)),
        "geometry_sweep": {"parameter": parameter, "from_um": lo, "to_um": hi, "steps": 9},
        "output": {"dir": str(tmp_path)},
    })
    calls = []

    def recorded(cells, *grid):
        calls.append((cells, grid, bloch.sweep_cells(cells, *grid)))
        return calls[-1][2]

    monkeypatch.setattr(workbench, "sweep_cells", recorded)
    monkeypatch.setattr(workbench, "sweep", None)  # the geometry sweep makes no sweep() call
    rows = workbench.run_geometry_sweep(config)["rows"]
    (cells, grid, (f, t, in_stopband)), = calls
    assert grid == _GRID
    assert len(cells) == len(rows) == f.size // _GRID[2]
    lines = (tmp_path / "geomsweep.csv").read_text().splitlines()
    skipped = sum("skipped" in line for line in lines)
    assert skipped == 9 - len(cells)
    if parameter in ("a", "L"):
        assert skipped > 0
    for i, (cell, row) in enumerate(zip(cells, rows)):
        own = bloch._table(cell, np.linspace(*_GRID), with_gamma=False)
        step = slice(i * _GRID[2], (i + 1) * _GRID[2])
        assert f[step].tobytes() == own.f.tobytes(), i
        assert in_stopband[step].tobytes() == own.in_stopband.tobytes(), i
        stop = own.in_stopband
        assert t[step][stop].tobytes() == own.t_coeff[stop].tobytes(), i
        primary = _grid_edge_reports(own, len(own), [cell])[0].primary_band
        assert row[1:] == [primary.f_center, primary.f_high - primary.f_low,
                           primary.max_attenuation]
        if parameter in ("a", "L"):
            assert row[0] == (cell.rod_width if parameter == "a" else cell.cell_length)


@pytest.mark.parametrize(
    "parameter, on_pole", [(p, False) for p in sorted(_GEOM_SPANS_UM)] + [("t_aln2", True)]
)
def test_geometry_sweep_front_is_the_step_fronts(monkeypatch, parameter, on_pole):
    """The one front of sweep_cells, over per-point cell constants, is bit for bit
    the fronts of its cells laid end to end.  Every step of an a sweep has the
    same rod; with on_pole the grid starts on one step's rod pole, where its
    impedance is the signed-infinite marker and no other step's is."""
    config = parse_config({})
    lo, hi = _GEOM_SPANS_UM[parameter]
    cells = []
    for value in np.linspace(lo, hi, 9) * 1e-6:
        geo = dataclasses.replace(config.geometry, **{parameter: float(value)})
        if geo.a < geo.L:
            cells.append(unit_cell(config, geo))
    grid = _GRID
    if on_pole:
        grid = (cells[4].rod.first_pole,) + _GRID[1:]
        markers = [np.isinf(_impedance_arrays(c.rod, np.array(grid[:1]))[0][0]) for c in cells]
        assert markers == [i == 4 for i in range(len(cells))]
    if parameter == "a":
        assert len({c.rod.first_pole for c in cells}) == 1
    fronts = []
    stage = bloch._pairs
    monkeypatch.setattr(bloch, "_pairs", lambda front: fronts.append(front) or stage(front))
    bloch.sweep_cells(cells, *grid)
    (front,) = fronts
    f = np.linspace(*grid)
    own = [bloch._front(c, f, force_zero_coupling=False) for c in cells]
    for name in ("f", "k", "sigma"):
        expected = np.concatenate([getattr(fr, name) for fr in own])
        assert getattr(front, name).tobytes() == expected.tobytes(), name
    assert front.L.tobytes() == np.repeat([fr.L for fr in own], f.size).tobytes()


def test_geometry_sweep_and_edge_bisection_take_no_passband_step(tmp_path, monkeypatch):
    """The geometry sweep and the edge bisection stop the stage at the stopband
    test: no omega dsigma/domega and no table (bloch._columns), which
    bloch_point, counted the same way, makes one of each at a passband point.
    At a stopband point, where no pair is on the unit circle, it makes the
    table alone."""
    config = parse_config({
        "sweep": dict(zip(("f_start_hz", "f_stop_hz", "points"), _GRID)),
        "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660, "steps": 3},
        "output": {"dir": str(tmp_path)},
    })
    cell = unit_cell(config)
    sw = sweep(cell, *_GRID)
    starts, ends = bloch._runs(sw.in_stopband)
    i, j = starts[starts > 0], ends[ends < sw.f.size - 1]
    brackets = sw.f[np.concatenate([[i, i - 1], [j, j + 1]], axis=1).T]
    calls = []

    def counted(name):
        original = getattr(bloch, name)
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for name in ("sigma_slope_arrays", "_columns"):
        monkeypatch.setattr(bloch, name, counted(name))
    rows = workbench.run_geometry_sweep(config)["rows"]
    edges = bloch._refine_edges(cell, brackets)
    assert calls == []
    assert len(rows) == 3 and all(row[1] > 0 for row in rows)
    assert edges.size == brackets.shape[0] > 0
    assert not bloch_point(cell, 1.5e9).in_stopband
    assert sorted(calls) == ["_columns", "sigma_slope_arrays"]
    calls.clear()
    assert bloch_point(cell, 2.5e9).in_stopband
    assert calls == ["_columns"]


def _loop_report(sw):
    """The stopband report with grid-point edges and no markers, one band at a
    time: runs found point by point, libm logs and left-to-right sums in a
    Python loop."""
    runs, start = [], None
    for i, stop in enumerate(sw.in_stopband.tolist() + [False]):
        if stop and start is None:
            start = i
        elif not stop and start is not None:
            runs.append((start, i - 1))
            start = None
    bands = []
    for i, j in runs:
        f = sw.f[i : j + 1].tolist()
        att = [-math.log(x) if x > 0 else 745.0 for x in sw.t_coeff[i : j + 1].tolist()]
        wsum = fsum = 0.0
        for x, a in zip(f, att):
            wsum, fsum = wsum + a, fsum + x * a
        f_center = fsum / wsum if wsum > 0 else f[0]
        bands.append(bloch.Band(f[0], f[-1], f_center, max(att)))
    coarse = any(j - i < 2 for i, j in runs) or len(sw) < 4
    return bloch.StopbandReport(tuple(bands), (), coarse)


def _grid_edge_reports(table, points, cells):
    """The report of each `points`-row step of a table, with grid-point edges
    and no markers: its bands from the columns of bloch._bands, its coarse
    flag from stopband_report on the step's own rows and cells[i]."""
    starts, ends, centers, peaks = bloch._bands(table.f, table.t_coeff, table.in_stopband, points)
    assert starts.size == ends.size == len(centers) == len(peaks)
    assert len(cells) * points == len(table)
    bands = list(map(bloch.Band, table.f[starts].tolist(), table.f[ends].tolist(), centers, peaks))
    reports = []
    for i, cell in enumerate(cells):
        own = np.flatnonzero(starts // points == i).tolist()
        step = _rows(table, i * points, (i + 1) * points)
        flag = stopband_report(step, cell).coarse_grid_warning
        reports.append(bloch.StopbandReport(tuple(bands[k] for k in own), (), flag))
    assert sum(len(r.bands) for r in reports) == len(bands)
    return reports


def _assert_grid_reports_are_loop_reports(table, points, cells):
    reports = _grid_edge_reports(table, points, cells)
    for i, report in enumerate(reports):
        step = _rows(table, i * points, (i + 1) * points)
        expected = _loop_report(step)
        assert repr(report) == repr(expected), i
        assert repr(report.primary_band) == repr(expected.primary_band), i
    return reports


@pytest.mark.parametrize("parameter", sorted(_GEOM_SPANS_UM))
def test_grid_reports_of_a_geometry_table_are_the_per_step_loop(parameter):
    """One band-summary pass over every step of a geometry sweep's table gives,
    by repr, each step's report from the per-band loop on its own rows."""
    config = parse_config({"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 400}})
    lo, hi = _GEOM_SPANS_UM[parameter]
    cells = []
    for value in np.linspace(lo, hi, 21) * 1e-6:
        geo = dataclasses.replace(config.geometry, **{parameter: float(value)})
        if geo.a < geo.L:
            cells.append(unit_cell(config, geo))
    table = _mask_table(*bloch.sweep_cells(cells, 1.4e9, 3.2e9, 400))
    reports = _assert_grid_reports_are_loop_reports(table, 400, cells)
    assert all(r.bands for r in reports)


def test_grid_reports_on_synthetic_steps():
    """Four 7-point steps: no band; bands on the first and the last point; all
    stopband; a one-point band, the only step whose coarse flag is set.  The
    step boundaries fall inside runs of stopband points, which must not cross
    them, and one point has |lambda_flex| = 0 (the 745.0 stand-in)."""
    stops = [
        [False] * 7,
        [True, True, True, False, True, True, True],
        [True] * 7,
        [True, True, True, False, True, False, False],
    ]
    flags = np.array(stops).ravel()
    rng = np.random.default_rng(3)
    t = np.where(flags, rng.uniform(0.05, 0.95, flags.size), 1.0)
    t[16] = 0.0
    cell = unit_cell(parse_config({}))
    base = sweep(cell, 1e9, 1.1e9, flags.size)
    table = dataclasses.replace(
        base, f=np.tile(np.linspace(1e9, 1.1e9, 7), 4), in_stopband=flags, t_coeff=t
    )
    reports = _assert_grid_reports_are_loop_reports(table, 7, [cell] * 4)
    f = table.f[:7].tolist()
    assert [[(b.f_low, b.f_high) for b in r.bands] for r in reports] == [
        [],
        [(f[0], f[2]), (f[4], f[6])],
        [(f[0], f[6])],
        [(f[0], f[2]), (f[4], f[4])],
    ]
    assert [r.coarse_grid_warning for r in reports] == [False, False, False, True]
    assert reports[0].primary_band is None
    assert reports[2].primary_band.max_attenuation == 745.0


def test_geometry_step_reports_the_first_of_two_tied_bands(tmp_path, monkeypatch):
    """A step whose two bands each hold a |lambda_flex| = 0 point, so both peak at
    745.0: its geomsweep.csv row is the first band, the narrower one with the
    smaller attenuation sum, as StopbandReport.primary_band picks; the second
    step has no band and writes zeros."""
    config = parse_config({
        "sweep": {"f_start_hz": 1e9, "f_stop_hz": 1.1e9, "points": 7},
        "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660, "steps": 2},
        "output": {"dir": str(tmp_path)},
    })
    flags = np.array([False, True, True, False, True, True, True] + [False] * 7)
    t = np.array([1.0, 0.0, 0.5, 1.0, 0.3, 0.0, 0.4] + [1.0] * 7)

    tables = []

    def synthetic(cells, *grid):
        f, _, _ = bloch.sweep_cells(cells, *grid)
        tables.append(_mask_table(f, t, flags))
        return f, t, flags

    monkeypatch.setattr(workbench, "sweep_cells", synthetic)
    rows = workbench.run_geometry_sweep(config)["rows"]
    (table,) = tables
    expected = _loop_report(_rows(table, 0, 7))
    first, second = expected.bands
    assert first.max_attenuation == second.max_attenuation == 745.0
    assert expected.primary_band is first
    assert rows == [
        [540e-9, first.f_center, first.f_high - first.f_low, 745.0],
        [660e-9, 0.0, 0.0, 0.0],
    ]
    lines = (tmp_path / "geomsweep.csv").read_text().splitlines()
    assert lines[-2:] == [",".join(map(repr, row)) for row in rows]


def test_band_center_and_peak_are_libm_logs_summed_left_to_right():
    """A band whose left-to-right sums differ from numpy's pairwise sums, and
    whose smallest |lambda_flex| has a numpy log that differs from libm's where
    the host has such a value: the report must keep the loop's bits, so a swap
    to np.sum, reduceat or np.log fails here."""
    rng = np.random.default_rng(11)
    candidates = rng.uniform(0.05, 0.95, 20000)
    libm = np.array([math.log(x) for x in candidates.tolist()])
    differ = candidates[np.log(candidates) != libm]
    t = rng.uniform(0.5, 0.95, 300)
    if differ.size:  # the band's peak sits where numpy's log is off by an ulp
        t[150] = differ.min()
        t = np.maximum(t, t[150])
    n = t.size + 2
    flags = np.r_[False, np.ones(t.size, dtype=bool), False]
    base = sweep(unit_cell(parse_config({})), 2e9, 2.1e9, n)
    table = dataclasses.replace(base, in_stopband=flags, t_coeff=np.r_[1.0, t, 1.0])
    _, _, (center,), (peak,) = bloch._bands(table.f, table.t_coeff, table.in_stopband, len(table))
    (expected,) = _loop_report(table).bands
    assert repr(center) == repr(expected.f_center)
    assert repr(peak) == repr(expected.max_attenuation)

    att, f = -np.array([math.log(x) for x in t.tolist()]), table.f[1:-1]
    pairwise = [np.sum(f * att) / np.sum(att),
                np.add.reduceat(f * att, [0])[0] / np.add.reduceat(att, [0])[0]]
    assert all(repr(float(c)) != repr(expected.f_center) for c in pairwise)
    if differ.size:
        assert repr(float((-np.log(t)).max())) != repr(expected.max_attenuation)


def _one_level_edges(cell, f_in, f_out):
    """Edge bisection with one level of every bracket per stage call."""
    lo = np.array(f_in, dtype=float)
    hi = np.array(f_out, dtype=float)
    while True:
        active = np.flatnonzero(np.abs(hi - lo) > bloch.EDGE_REFINE_HZ)
        if not active.size:
            return (0.5 * (lo + hi)).tolist()
        mid = 0.5 * (lo[active] + hi[active])
        stop = bloch._table(cell, mid, with_gamma=False).in_stopband
        lo[active] = np.where(stop, mid, lo[active])
        hi[active] = np.where(stop, hi[active], mid)


def _per_band_gamma_extrema(cell, f_low, f_high):
    """Re(Gamma) extrema from one stage call on the band's own 31 samples."""
    width = f_high - f_low
    offsets = [1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2]
    fs = [f_low + width * o for o in offsets]
    fs += [f_high - width * o for o in offsets]
    fs += np.linspace(f_low + 0.05 * width, f_high - 0.05 * width, 17).tolist()
    fs.sort()
    re = bloch._table(cell, np.array(fs), with_gamma=True).gamma.real
    i, j = int(np.argmax(re)), int(np.argmin(re))
    return (fs[i], float(re[i])), (fs[j], float(re[j]))


def _one_call_per_step_report(sw, cell):
    """(bands, markers) of the stopband post-pass run one step per stage call:
    one bisection level per call, then one Gamma call per band."""
    n = len(sw)
    starts, ends, centers, peaks = bloch._bands(sw.f, sw.t_coeff, sw.in_stopband, n)
    runs = list(zip(starts.tolist(), ends.tolist()))
    brackets = [(i, i - 1) for i, _ in runs if i > 0] + [(j, j + 1) for _, j in runs if j < n - 1]
    at = np.array(brackets, dtype=int).reshape(-1, 2)
    edges = dict(zip(brackets, _one_level_edges(cell, sw.f[at[:, 0]], sw.f[at[:, 1]])))
    bands, markers = [], []
    for center, peak, (i, j) in zip(centers, peaks, runs):
        f_low = edges.get((i, i - 1), sw.f[i].item())
        f_high = edges.get((j, j + 1), sw.f[j].item())
        bands.append(bloch.Band(f_low, f_high, center, peak))
        if f_high > f_low:
            high, low = _per_band_gamma_extrema(cell, f_low, f_high)
            assert band_gamma_extrema(cell, f_low, f_high) == (high, low)
            if high[1] >= bloch.MARKER_MIN_REAL:
                markers.append(high[0])
    return bands, markers


def _assert_report_is_one_call_per_step(sw, cell):
    bands, markers = _one_call_per_step_report(sw, cell)
    report = stopband_report(sw, cell)
    fields = [f.name for f in dataclasses.fields(bloch.Band)]
    assert [[repr(getattr(b, name)) for name in fields] for b in report.bands] == [
        [repr(getattr(b, name)) for name in fields] for b in bands
    ]
    assert [repr(m) for m in report.resonance_markers] == [repr(m) for m in markers]
    return report


@pytest.mark.parametrize("points", [2000, 700])
@pytest.mark.parametrize("L_um", [0.5, 1.0, 3.8, 8.0, 12.0])
def test_report_matches_one_stage_call_per_step(L_um, points):
    """Every band field and marker, by repr, against the post-pass with one
    bisection level per stage call and one Gamma call per band.  The default
    2000 points need 12 bisection levels; 700 points need 13, so the last
    round stops a level into its tree."""
    config = parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}})
    cell = unit_cell(config)
    s = config.sweep
    report = _assert_report_is_one_call_per_step(sweep(cell, s.f_start, s.f_stop, points), cell)
    assert report.bands


@pytest.mark.parametrize(
    "f_start, f_stop, points", [(2.3e9, 2.6e9, 51), (2.35e9, 2.35e9 + 500.0, 7)]
)
def test_report_matches_one_stage_call_per_step_without_passband_neighbour(
    default_cell, f_start, f_stop, points
):
    """Windows inside the primary stopband: one band over the whole sweep, no
    edge to refine (the second with a grid step under EDGE_REFINE_HZ), and its
    Gamma samples between the grid ends."""
    sw = sweep(default_cell, f_start, f_stop, points)
    report = _assert_report_is_one_call_per_step(sw, default_cell)
    assert [(b.f_low, b.f_high) for b in report.bands] == [(sw.f[0], sw.f[-1])]


@settings(max_examples=15, deadline=None)
@given(
    L_um=st.floats(0.5, 12.0),
    a_frac=st.floats(0.05, 0.95),
    layers=st.fixed_dictionaries(
        {name: st.floats(*r) for name, r in {
            "t_aln1_nm": (200, 800), "t_m1_nm": (100, 500),
            "t_aln2_nm": (300, 1200), "t_m2_nm": (150, 700),
        }.items()}
    ),
    points=st.integers(50, 2000),
)
def test_report_matches_one_stage_call_per_step_on_drawn_geometries(L_um, a_frac, layers, points):
    config = parse_config({
        "geometry": dict(layers, L_um=L_um, a_um=a_frac * L_um),
        "sweep": {"points": points},
    })
    cell = unit_cell(config)
    s = config.sweep
    _assert_report_is_one_call_per_step(sweep(cell, s.f_start, s.f_stop, s.points), cell)


def test_default_sweep_and_report_make_at_most_five_stage_calls(monkeypatch, default_config):
    # the sweep, three rounds of four bisection levels and one Gamma call, each
    # one call of the shared root stage
    calls = []
    stage = bloch._pairs
    monkeypatch.setattr(bloch, "_pairs", lambda fr: calls.append(fr.f.size) or stage(fr))
    cell = unit_cell(default_config)
    s = default_config.sweep
    report = stopband_report(sweep(cell, s.f_start, s.f_stop, s.points), cell)
    assert len(report.bands) == 6
    assert len(calls) <= 5, calls
