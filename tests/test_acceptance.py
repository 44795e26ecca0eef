"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 is expected to fail: the cell dispersion of this model is
provably independent of the rod width (the width enters the transfer matrix
only through phase factors that cancel in every eigenvalue), so no rod-width
tunability of the band centers exists to detect.  See README, "Model notes and
known quirks".
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from rodwave import (
    cell_matrices,
    chain_profile,
    forcing_strength,
    parse_config,
    scatter_coefficients,
    semi_infinite_reflection,
    stopband_report,
    sweep,
    unit_cell,
)
from rodwave.bloch import band_gamma_extrema
from rodwave.cell import _coeffs, coupling_matrix, propagation_matrix, scattering_matrix
from rodwave.cell import ScatterCoeffs
from rodwave.cli import main as cli_main
from rodwave.trench import flexural_wavevector
from rodwave.workbench import run_geometry_sweep, run_matrices, transfer_matrix_reference


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def config():
    return parse_config({})


@pytest.fixture(scope="module")
def cell(config):
    return unit_cell(config)


@pytest.fixture(scope="module")
def full_sweep(cell):
    t0 = time.perf_counter()
    points = sweep(cell, 0.1e9, 6.0e9, 2000)
    elapsed = time.perf_counter() - t0
    return points, elapsed


@pytest.fixture(scope="module")
def full_report(cell, full_sweep):
    return stopband_report(full_sweep[0], cell)


def test_criterion_01_rod_pole_anchor(cell):
    t0 = time.perf_counter()
    pole = cell.rod.first_pole
    quarter_wave = cell.rod.velocity / (4.0 * cell.rod.height)
    elapsed = time.perf_counter() - t0
    ok = (
        pole == pytest.approx(quarter_wave, rel=1e-12)
        and abs(pole - 2.35e9) / 2.35e9 < 0.15
        and elapsed < 1.0
    )
    _report(1, "rod-pole anchor", ok, f"pole={pole/1e9:.4f} GHz, "
            f"{abs(pole-2.35e9)/2.35e9*100:.1f}% from 2.35 GHz")
    assert pole == pytest.approx(quarter_wave, rel=1e-12)
    assert abs(pole - 2.35e9) / 2.35e9 < 0.15
    assert elapsed < 1.0


def test_criterion_02_stopband_existence(cell, full_sweep, full_report):
    points, elapsed = full_sweep
    report = full_report
    pole = cell.rod.first_pole
    pole_in_band = any(b.f_low <= pole <= b.f_high for b in report.bands)
    ok = len(report.bands) >= 3 and pole_in_band and elapsed < 10.0
    _report(2, "stopband existence", ok,
            f"{len(report.bands)} bands, sweep {elapsed:.2f}s, pole in band: {pole_in_band}")
    assert len(report.bands) >= 3
    assert pole_in_band
    assert elapsed < 10.0


def test_criterion_03_energy_conservation(cell):
    rng = np.random.default_rng(2024)
    window = 1e-4 * cell.rod.velocity / cell.rod.height
    worst = 0.0
    count = 0
    while count < 10_000:
        f = float(rng.uniform(0.1e9, 6.0e9))
        from rodwave.rod import near_pole

        if near_pole(cell.rod, f):
            continue
        c = scatter_coefficients(cell, f)
        worst = max(worst, abs(abs(c.r) ** 2 + abs(c.t) ** 2 - 1.0))
        count += 1
    ok = worst < 1e-10
    _report(3, "energy conservation", ok, f"worst |r|^2+|t|^2 deviation {worst:.2e}")
    assert worst < 1e-10


def test_criterion_04_degenerate_limit_exactness(cell):
    k = flexural_wavevector(cell.trench, 2.2e9)
    coeffs = _coeffs(k, cell.rod_width, 0.0)
    sc = ScatterCoeffs(
        r=coeffs[0], t=coeffs[1], r_ef=coeffs[2], t_ef=coeffs[2],
        r_fe=coeffs[3], t_fe=coeffs[3], r_e=coeffs[4], t_e=coeffs[5],
        f_eff=0.0, sigma=0.0,
    )
    G = scattering_matrix(sc)
    C = coupling_matrix(G)
    phi = k * (cell.cell_length + cell.rod_width) / 2.0
    D = propagation_matrix(phi)
    T = D @ C @ D
    kl = k * cell.cell_length
    expected = np.diag(
        [cmath.exp(-1j * kl), cmath.exp(kl), cmath.exp(1j * kl), cmath.exp(-kl)]
    )
    dev = np.abs(T - expected).max() / np.abs(expected).max()
    ok = dev < 1e-14
    _report(4, "zero-coupling transfer matrix", ok, f"max rel deviation {dev:.2e}")
    assert dev < 1e-14


def test_criterion_05_eigen_reciprocity(cell, full_sweep):
    points, _ = full_sweep
    worst_pair = 0.0
    collided = 0
    in_gap = 0
    structure_ok = True
    L = cell.cell_length
    for p in points:
        evs = list(p.eigenvalues)
        for i in range(0, 4, 2):
            worst_pair = max(worst_pair, abs(evs[i] * evs[i + 1] - 1.0))
        if p.in_stopband:
            in_gap += 1
            if abs(p.lambda_flex) >= 1.0:
                structure_ok = False
            if p.k_ef.imag <= 0:
                structure_ok = False
            if p.complex_band:
                collided += 1
                continue
            resid = (p.k_ef.real * L) % math.pi
            if min(resid, math.pi - resid) > 1e-3:
                structure_ok = False
    ok = worst_pair < 1e-9 and structure_ok and in_gap > 0 and collided <= max(3, in_gap // 20)
    _report(5, "eigen-reciprocity + gap wavevector", ok,
            f"worst pair defect {worst_pair:.1e}, {in_gap} gap points, "
            f"{collided} on hybridized complex-band segments (excluded from the "
            f"zone-ray check; see README model notes)")
    assert worst_pair < 1e-9
    assert structure_ok
    assert collided <= max(3, in_gap // 20)


def test_criterion_06_semi_infinite_reflection(cell, full_sweep, full_report):
    points, _ = full_sweep
    report = full_report
    in_band = [p for p in points if p.in_stopband]
    rng = np.random.default_rng(7)
    sample = rng.choice(len(in_band), size=100, replace=len(in_band) < 100)
    worst_mod = max(abs(abs(in_band[i].gamma) - 1.0) for i in sample)

    forced_ok = True
    for f in np.linspace(0.2e9, 5.8e9, 25):
        gamma, _ = semi_infinite_reflection(cell, float(f), force_zero_coupling=True)
        if gamma != 0:
            forced_ok = False

    pole = cell.rod.first_pole
    pole_band = next(b for b in report.bands if b.f_low <= pole <= b.f_high)
    (f_plus, re_plus), _ = band_gamma_extrema(cell, pole_band.f_low, pole_band.f_high)

    zero = cell.rod.first_zero
    zero_band = min(report.bands, key=lambda b: abs(b.f_center - zero))
    _, (f_minus, re_minus) = band_gamma_extrema(cell, zero_band.f_low, zero_band.f_high)

    gamma_zero, _ = semi_infinite_reflection(cell, zero)

    ok = (
        worst_mod < 1e-6
        and forced_ok
        and re_plus > 1 - 0.01
        and re_minus < -(1 - 0.01)
        and abs(gamma_zero) < 1e-3
    )
    _report(6, "semi-infinite reflection", ok,
            f"worst in-band ||G|-1| {worst_mod:.1e}; fixed-constraint marker "
            f"Re(G)={re_plus:.4f} in the pole band; stress-free marker "
            f"Re(G)={re_minus:.4f} in the band nearest the rod zero; "
            f"G(rod zero)={abs(gamma_zero):.1e} (transparent, see README model notes)")
    assert worst_mod < 1e-6
    assert forced_ok
    assert re_plus > 0.99
    assert re_minus < -0.99
    assert abs(gamma_zero) < 1e-3


def test_criterion_07_chain_decay(cell, full_report):
    # a 7-cell chain resolves the eigen-decay only where the per-cell
    # attenuation dominates the matched-end correction: nepers >= 1.3
    compatible = [b for b in full_report.bands if b.max_attenuation >= 1.3]
    assert compatible, "no attenuation-compatible band detected"
    ratios = []
    for band in compatible:
        profile = chain_profile(cell, band.f_center, 7)
        ratios.append(profile.fitted_slope / profile.eigen_slope)
    slope_ok = all(abs(r - 1) < 0.02 for r in ratios)

    flat = chain_profile(cell, cell.rod.first_zero, 7)
    flat_dev = float(np.max(np.abs(flat.magnitudes - 1.0)))
    forced = chain_profile(cell, 3.1e9, 7, force_zero_coupling=True)
    forced_dev = float(np.max(np.abs(forced.magnitudes - 1.0)))
    ok = slope_ok and flat_dev < 1e-9 and forced_dev < 1e-9
    _report(7, "chain decay", ok,
            f"slope/eigen ratios {[f'{r:.4f}' for r in ratios]} over "
            f"{len(compatible)} compatible band(s); passband flatness "
            f"{max(flat_dev, forced_dev):.1e}")
    assert slope_ok
    assert flat_dev < 1e-9
    assert forced_dev < 1e-9


def test_criterion_08_rod_width_tunability(config, tmp_path):
    """EXPECTED FAIL: the transfer-matrix eigenvalues are provably independent
    of the rod width in this model (the width enters only through phase
    factors that cancel in the characteristic polynomial), so the primary-band
    center cannot move by 10 MHz under a rod-width sweep.  The criterion is
    asserted as specified and the analysis is recorded in README, "Model notes
    and known quirks"."""
    doc = {
        "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 400},
        "geometry_sweep": {"parameter": "a", "from_um": 1.5, "to_um": 3.5, "steps": 21},
        "output": {"dir": str(tmp_path)},
    }
    cfg = parse_config(doc)
    result = run_geometry_sweep(cfg)
    centers = [row[1] for row in result["rows"]]
    delta_f = result["delta_f"]
    note_present = "1D analytic model" in (tmp_path / "geomsweep.csv").read_text()
    diffs = np.diff(centers)
    diffs = diffs[np.abs(diffs) > 1.0]  # ignore sub-Hz rounding noise
    if diffs.size == 0:
        monotone, unimodal = True, True  # constant trend
    else:
        monotone = bool(np.all(diffs >= 0) or np.all(diffs <= 0))
        sign_changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
        unimodal = sign_changes <= 1
    ok = delta_f > 10e6 and (monotone or unimodal) and note_present
    _report(8, "rod-width tunability", ok,
            f"delta_f = {delta_f/1e6:.6f} MHz (model-provable ~0; honest failure, "
            f"see README model notes); summary note present: {note_present}")
    assert note_present
    assert monotone or unimodal
    assert delta_f > 10e6, (
        "rod-width tunability is absent from this cell model by construction; "
        "see README, 'Model notes and known quirks', for the proof sketch"
    )


def test_criterion_09_printed_matrix_cross_check(cell, config, tmp_path):
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 20:
        f = float(rng.uniform(0.1e9, 6.0e9))
        sigma = forcing_strength(cell, f)[1]
        if abs(sigma) > 1e7:
            continue
        mats = cell_matrices(cell, f)
        ref = transfer_matrix_reference(
            mats.k, cell.rod_width, cell.cell_length, sigma
        )
        for i in range(4):
            for j in range(4):
                if (i, j) == (2, 3):
                    continue
                worst = max(
                    worst, abs(mats.T[i, j] - ref[i, j]) / max(abs(ref[i, j]), 1e-300)
                )
        checked += 1
    result = run_matrices(config, 1.0e9, out_dir=str(tmp_path))
    check_text = (tmp_path / "matrices_check.csv").read_text()
    artifact_ok = "known_discrepancy" in check_text and "e^{-ak}" in check_text
    ok = worst < 1e-9 and artifact_ok
    _report(9, "printed-matrix cross-check", ok,
            f"worst rel deviation {worst:.2e} over 15 entries x 20 frequencies; "
            f"discrepancy report written: {artifact_ok}")
    assert worst < 1e-9
    assert artifact_ok


def test_criterion_10_determinism(tmp_path):
    doc = {
        "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 300},
        "output": {"dir": str(tmp_path / "a")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    first_bands = (tmp_path / "a" / "stopbands.csv").read_bytes()
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
    same = (
        (tmp_path / "a" / "sweep.csv").read_bytes() == first
        and (tmp_path / "a" / "stopbands.csv").read_bytes() == first_bands
    )
    _report(10, "byte-identical reruns", same)
    assert same
