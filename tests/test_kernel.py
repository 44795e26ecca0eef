"""The array kernel of the Bloch pipeline against an mpmath evaluation of the
closed form, of the transmitted-pair rule and of Gamma, and its independence
of batching."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave import bloch_point, parse_config, sweep, unit_cell
from rodwave import bloch
from rodwave.cell import SIGMA_CLAMP, forcing_arrays, transfer_arrays, translation_phases


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
        k, _, sigma = forcing_arrays(cell, f)
        kls.append(k * cell.cell_length)
        sigmas.append(np.clip(sigma, -SIGMA_CLAMP, SIGMA_CLAMP))
    return np.concatenate(kls), np.concatenate(sigmas)


def _mp_roots(x, s):
    """((su + disc)/2, (su - disc)/2) at kL = x and coupling s, in mpmath.

    60 digits survive the cancellation of su - disc, which is about e^{2 kL}
    against the root.
    """
    mpmath.mp.dps = 60 + int(x / 2.3)
    x, s = mpmath.mpf(x), mpmath.mpf(s)
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
    _, _, inner = bloch._bloch_pairs(kl, sigma)
    mismatched = []
    for i, (x, s, lam) in enumerate(zip(kl.tolist(), sigma.tolist(), inner[:, 0].tolist())):
        slowest = max(min(abs(a), abs(b)) for a, b in _mp_pairs(x, s))
        if abs(abs(lam) - slowest) > 1e-12 * slowest:
            mismatched.append(i)
    mpmath.mp.dps = 15
    assert not mismatched, f"{len(mismatched)} of {kl.size} points differ, first {mismatched[:5]}"


def test_closed_form_roots_match_mpmath(random_draw):
    kl, sigma = random_draw
    y1, y2 = bloch._y_closed(bloch._y_parts(kl), sigma)
    worst = 0.0
    for x, s, r1, r2 in zip(kl.tolist(), sigma.tolist(), y1.tolist(), y2.tolist()):
        for y, ref in zip((r1, r2), _mp_roots(x, s)):
            # relative error; a root near 0 (mid-passband) is a difference of
            # terms of size 1 and is resolved only to absolute accuracy
            err = abs(mpmath.mpc(y.real, y.imag) - ref) / max(abs(ref), 1)
            worst = max(worst, float(err))
    mpmath.mp.dps = 15
    assert worst <= 1e-12


def _without_re_kef(p):
    """The point with its branch-dependent Re(k_ef) zeroed; repr shows every bit."""
    return repr(dataclasses.replace(p, k_ef=complex(0.0, p.k_ef.imag)))


@pytest.mark.parametrize("L_um", [3.8, 8.0])
def test_bloch_point_is_the_sweep_point(L_um):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um}}))
    points = list(sweep(cell, 0.1e9, 6e9, 2000))
    for p in points[::9]:
        assert _without_re_kef(bloch_point(cell, p.f)) == _without_re_kef(p), p.f


def test_kernel_chunks_change_no_bit(default_cell):
    """Every column of the default sweep, bit for bit, from the kernel on 7-frequency chunks.

    Re(k_ef) is compared through its inputs: the sweep sets its branch from
    lambda_flex, k and in_stopband, which are compared themselves.
    """
    sw = sweep(default_cell, 0.1e9, 6e9, 2000)
    chunks = [
        bloch._bloch_arrays(default_cell, sw.f[lo : lo + 7], with_gamma=True,
                            force_zero_coupling=False)
        for lo in range(0, len(sw), 7)
    ]
    for field in dataclasses.fields(bloch.Sweep):
        column = getattr(sw, field.name)
        joined = np.concatenate([getattr(c, field.name) for c in chunks])
        if field.name == "k_ef":
            column, joined = column.imag, joined.imag
        assert column.shape == joined.shape, field.name
        assert column.tobytes() == joined.tobytes(), field.name


@pytest.mark.parametrize("L_um", [0.5, 3.8, 8.0, 12.0])
def test_transfer_matrix_is_diagonal_plus_rank_one(L_um):
    """D C D = diag(p) + (sigma/4) u w^T, the form the kernel's eigenvectors use."""
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    k, _, sigma = forcing_arrays(cell, np.random.default_rng(5).uniform(0.1e9, 6e9, 40))
    sigma = np.clip(sigma, -SIGMA_CLAMP, SIGMA_CLAMP)
    kl = k * cell.cell_length
    w = translation_phases(kl / 2)
    u = w * np.array([-1j, 1, 1j, -1])
    expected = (sigma / 4)[:, None, None] * u[:, :, None] * w[:, None, :]
    expected[:, range(4), range(4)] += translation_phases(kl)
    T = transfer_arrays(cell, k, sigma)[3]
    assert np.max(np.abs(T - expected) / np.abs(expected)) < 1e-9


def _mp_gamma(kl, sigma, lam):
    """Gamma at 60 + kL/2.3 digits from the kernel's pair rule.

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
    x = mpmath.mpf(kl)
    rates = [mpmath.mpc(0, -1), 1, mpmath.mpc(0, 1), -1]
    p = [mpmath.exp(r * x) for r in rates]
    u = [r * mpmath.exp(r * x / 2) for r in rates]
    vf = [ui / (lam_f - pi) for ui, pi in zip(u, p)]
    ve = [ui / (lam_e - pi) for ui, pi in zip(u, p)]
    return (vf[0] * ve[3] - ve[0] * vf[3]) / (vf[2] * ve[3] - ve[2] * vf[3])


@pytest.mark.parametrize("L_um", [1.0, 3.8, 8.0, 12.0])
def test_gamma_matches_mpmath(L_um):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    f = np.random.default_rng(31).uniform(0.1e9, 6e9, 300)
    a = bloch._bloch_arrays(cell, f, with_gamma=True, force_zero_coupling=False)
    worst = 0.0
    for kl, s, lam, g in zip(
        (a.k * cell.cell_length).tolist(), a.sigma.tolist(), a.lambda_flex.tolist(),
        a.gamma.tolist(),
    ):
        ref = _mp_gamma(kl, s, lam)
        worst = max(worst, float(abs(mpmath.mpc(g.real, g.imag) - ref) / max(abs(ref), 1)))
    mpmath.mp.dps = 15
    assert worst <= 1e-10


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
        return bloch._bloch_arrays(cell, fs, with_gamma=True, force_zero_coupling=False)

    whole = run(f)
    parts = [run(f[:split]), run(f[split:])]
    for field in dataclasses.fields(bloch.Sweep):
        joined = np.concatenate([getattr(p, field.name) for p in parts])
        assert np.array_equal(getattr(whole, field.name), joined, equal_nan=True), field.name
