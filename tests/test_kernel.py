"""The array kernel of the Bloch pipeline against an mpmath evaluation of the
closed form, of the branch continuation and of Gamma, and its independence
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


def test_kernel_branch_matches_mpmath_continuation(random_draw):
    """The flexural root is the one continued from 2 cos kL as the coupling t
    grows from 0 to sigma: the -disc root, or the +disc one once t has passed
    a zero of the discriminant su^2 - 4 pr, a quadratic in t."""
    kl, sigma = random_draw
    flexural = bloch._flexural_roots(kl, sigma)[:, 0].tolist()
    mismatched = []
    for i, (x, s, y) in enumerate(zip(kl.tolist(), sigma.tolist(), flexural)):
        mpmath.mp.dps = 60 + int(x / 2.3)
        x, s = mpmath.mpf(x), mpmath.mpf(s)
        c, ch, sn, sh = mpmath.cos(x), mpmath.cosh(x), mpmath.sin(x), mpmath.sinh(x)
        # su = su0 + su1 t, pr = pr0 + pr1 t, su^2 - 4 pr = q2 t^2 + q1 t + q0
        su0, su1 = 2 * c + 2 * ch, (sh - sn) / 2
        pr0, pr1 = 4 * c * ch, c * sh - sn * ch
        q2, q1, q0 = su1 * su1, 2 * su0 * su1 - 4 * pr1, su0 * su0 - 4 * pr0
        q = q1 * q1 - 4 * q2 * q0
        zeros = [(-q1 + r) / (2 * q2) for r in (mpmath.sqrt(q), -mpmath.sqrt(q))] if q >= 0 else []
        su = su0 + su1 * s
        disc = mpmath.sqrt(su * su - 4 * (pr0 + pr1 * s))
        ref = (su + disc) / 2 if any(s <= z < 0 for z in zeros) else (su - disc) / 2
        if abs(mpmath.mpc(y.real, y.imag) - ref) > 1e-12 * max(abs(ref), 1):
            mismatched.append(i)
    mpmath.mp.dps = 15
    assert not mismatched, f"{len(mismatched)} of {kl.size} points differ, first {mismatched[:5]}"


def test_closed_form_roots_match_mpmath(random_draw):
    kl, sigma = random_draw
    y1, y2 = bloch._y_closed(bloch._y_parts(kl), sigma)
    worst = 0.0
    for x, s, r1, r2 in zip(kl.tolist(), sigma.tolist(), y1.tolist(), y2.tolist()):
        # 60 digits survive the cancellation of su - disc, which is about
        # e^{2 kL} against the root
        mpmath.mp.dps = 60 + int(x / 2.3)
        x, s = mpmath.mpf(x), mpmath.mpf(s)
        su = 2 * mpmath.cos(x) + 2 * mpmath.cosh(x) + (s / 2) * (mpmath.sinh(x) - mpmath.sin(x))
        pr = 4 * mpmath.cos(x) * mpmath.cosh(x) + s * (
            mpmath.cos(x) * mpmath.sinh(x) - mpmath.sin(x) * mpmath.cosh(x)
        )
        disc = mpmath.sqrt(su * su - 4 * pr)
        for y, ref in ((r1, (su + disc) / 2), (r2, (su - disc) / 2)):
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
    points = sweep(cell, 0.1e9, 6e9, 2000)
    for p in points[::9]:
        assert _without_re_kef(bloch_point(cell, p.f)) == _without_re_kef(p), p.f


def test_block_boundaries_change_no_bit(default_cell, monkeypatch):
    reference = sweep(default_cell, 0.1e9, 6e9, 2000)
    monkeypatch.setattr(bloch, "_BLOCK", 7)
    assert repr(sweep(default_cell, 0.1e9, 6e9, 2000)) == repr(reference)


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
    """Gamma at 40 + kL/2.3 digits from the kernel's pair rule.

    The flexural factor is the exact Bloch factor nearest the kernel's lam,
    the evanescent one the smallest in modulus of the other three; each
    eigenvector is (lambda - p)^-1 u, unscaled.
    """
    mpmath.mp.dps = 40 + int(kl / 2.3)
    x, s4 = mpmath.mpf(kl), mpmath.mpf(sigma) / 4
    if s4 == 0:
        return mpmath.mpc(0)
    rates = [mpmath.mpc(0, -1), 1, mpmath.mpc(0, 1), -1]
    p = [mpmath.exp(r * x) for r in rates]
    u = [r * mpmath.exp(r * x / 2) for r in rates]
    su = 2 * mpmath.cos(x) + 2 * mpmath.cosh(x) + 2 * s4 * (mpmath.sinh(x) - mpmath.sin(x))
    pr = 4 * mpmath.cos(x) * mpmath.cosh(x) + 4 * s4 * (
        mpmath.cos(x) * mpmath.sinh(x) - mpmath.sin(x) * mpmath.cosh(x)
    )
    disc = mpmath.sqrt(su * su - 4 * pr)
    factors = []
    for y in ((su + disc) / 2, (su - disc) / 2):
        root = mpmath.sqrt(y * y - 4)
        factors += [(y + root) / 2, (y - root) / 2]
    lam_f = min(factors, key=lambda z: abs(z - mpmath.mpc(lam.real, lam.imag)))
    factors.remove(lam_f)
    lam_e = min(factors, key=abs)
    vf = [ui / (lam_f - pi) for ui, pi in zip(u, p)]
    ve = [ui / (lam_e - pi) for ui, pi in zip(u, p)]
    return (vf[0] * ve[3] - ve[0] * vf[3]) / (vf[2] * ve[3] - ve[2] * vf[3])


@pytest.mark.parametrize("L_um", [3.8, 8.0])
def test_gamma_matches_mpmath(L_um):
    cell = unit_cell(parse_config({"geometry": {"L_um": L_um, "a_um": L_um / 2}}))
    f = np.random.default_rng(31).uniform(0.1e9, 6e9, 300)
    a = bloch._bloch_arrays(cell, f, with_gamma=True, force_zero_coupling=False)
    worst = 0.0
    for kl, s, lam, g in zip(
        (a.k * cell.cell_length).tolist(), a.sigma.tolist(), a.lam.tolist(), a.gamma.tolist()
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
    for field in ("eigenvalues", "lam", "t", "im_kef", "in_stop", "gamma", "gamma_e", "defect"):
        joined = np.concatenate([getattr(p, field) for p in parts])
        assert np.array_equal(getattr(whole, field), joined, equal_nan=True), field
