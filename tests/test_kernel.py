"""The array kernel of the Bloch pipeline against an mpmath evaluation of the
closed form and of the branch continuation, and its independence of batching."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave import bloch_point, parse_config, sweep, unit_cell
from rodwave import bloch
from rodwave.cell import SIGMA_CLAMP, forcing_arrays


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


def test_singular_matching_is_nan_at_its_point_only(default_cell):
    a = bloch._bloch_arrays(
        default_cell, np.array([2.0e9]), with_gamma=True, force_zero_coupling=False
    )
    T = np.concatenate([a.T, np.zeros((1, 4, 4), complex)])
    gamma, gamma_e = bloch._reflections(T, np.concatenate([a.lam, [0.5]]))
    assert gamma[0] == a.gamma[0] and gamma_e[0] == a.gamma_e[0]
    assert np.isnan(gamma[1]) and np.isnan(gamma_e[1])


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
