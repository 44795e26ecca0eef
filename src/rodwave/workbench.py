"""Run orchestration: frequency/geometry sweeps, chain runs, CSV and SVG output.

Every CSV starts with a comment line recording the tool version and the
resolved-config hash, so identical configs reproduce byte-identical files.
All numeric columns are finite; near-pole frequencies are handled upstream
through analytic limits.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import (
    BlochPoint,
    StopbandReport,
    chain_profile,
    stopband_report,
    sweep,
)
from .cell import cell_matrices, forcing_strength
from .config import RunConfig, config_hash, unit_cell
from .errors import ConfigError, NumericError
from .rod import driving_impedance, near_pole
from .svg import line_plot
from .trench import wavelength_over_thickness

RECIPROCITY_FLAG = 1e-9
RECIPROCITY_FAIL = 1e-5


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        raise NumericError(f"refusing to write non-finite value {v!r} to CSV")
    return repr(v)


def _write_csv(
    path: Path,
    header: list[str],
    rows: list[list],
    cfg_hash: str,
    notes: list[str] | None = None,
) -> None:
    lines = [f"# rodwave {__version__} config_sha256={cfg_hash}"]
    for note in notes or []:
        lines.append(f"# {note}")
    lines.append(",".join(header))
    for row in rows:
        try:
            lines.append(",".join(_fmt(v) for v in row))
        except NumericError as exc:
            column = next(
                name for name, v in zip(header, row)
                if not isinstance(v, str) and not math.isfinite(v)
            )
            raise NumericError(
                f"{path.name}: {exc} (column {column}, row {header[0]}={row[0]})"
            ) from None
    path.write_text("\n".join(lines) + "\n")


def _resolve_out(config: RunConfig, out_dir: str | None) -> Path:
    directory = Path(out_dir if out_dir is not None else config.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {directory}: {exc}") from exc
    return directory


def _check_reciprocity(points: list[BlochPoint]) -> int:
    worst = max(p.reciprocity_defect for p in points)
    if worst > RECIPROCITY_FAIL:
        raise NumericError(
            f"eigenvalue reciprocity violated: worst defect {worst:.3e} > {RECIPROCITY_FAIL}"
        )
    return sum(1 for p in points if p.reciprocity_defect > RECIPROCITY_FLAG)


def run_frequency_sweep(
    config: RunConfig, out_dir: str | None = None, plot: bool | None = None
) -> dict:
    """Sweep the configured frequency grid; write sweep.csv and stopbands.csv."""
    directory = _resolve_out(config, out_dir)
    cell = unit_cell(config)
    points = sweep(cell, config.sweep.f_start, config.sweep.f_stop, config.sweep.points)
    flagged = _check_reciprocity(points)
    report = stopband_report(points, cell)
    cfg_hash = config_hash(config)

    rows = []
    for p in points:
        rows.append(
            [
                p.f,
                p.k,
                wavelength_over_thickness(cell.trench, p.f),
                p.sigma,
                p.t_coeff,
                p.r_coeff,
                p.k_ef.real,
                p.k_ef.imag,
                p.gamma.real,
                p.gamma.imag,
                p.gamma_phase,
                p.in_stopband,
            ]
        )
    notes = [f"reciprocity_flagged_points={flagged}"]
    sweep_path = directory / "sweep.csv"
    _write_csv(
        sweep_path,
        [
            "f_hz",
            "k_rad_per_m",
            "lambda_over_ht",
            "re_sigma",
            "T_coeff",
            "R_coeff",
            "re_kef",
            "im_kef",
            "re_gamma",
            "im_gamma",
            "gamma_phase",
            "in_stopband",
        ],
        rows,
        cfg_hash,
        notes,
    )
    bands_path = directory / "stopbands.csv"
    _write_stopbands(bands_path, report, cfg_hash)

    svg_path = None
    if plot if plot is not None else config.output.plot:
        svg_path = directory / "sweep.svg"
        fghz = [p.f / 1e9 for p in points]
        line_plot(
            svg_path,
            fghz,
            [
                ("T", [p.t_coeff for p in points]),
                ("R", [p.r_coeff for p in points]),
                ("Im k_ef (norm)", _normalized([p.k_ef.imag for p in points])),
            ],
            bands=[(b.f_low / 1e9, b.f_high / 1e9) for b in report.bands],
            title="transmission and attenuation per cell",
            xlabel="f (GHz)",
            ylabel="T, R, scaled Im k_ef",
        )
    return {
        "sweep_csv": sweep_path,
        "stopbands_csv": bands_path,
        "svg": svg_path,
        "report": report,
        "points": points,
        "cell": cell,
    }


def _normalized(values: list[float]) -> list[float]:
    top = max((abs(v) for v in values if math.isfinite(v)), default=1.0)
    if top == 0:
        top = 1.0
    return [v / top if math.isfinite(v) else 0.0 for v in values]


def _write_stopbands(path: Path, report: StopbandReport, cfg_hash: str) -> None:
    notes = []
    if report.coarse_grid_warning:
        notes.append("warning: grid too coarse to resolve narrow bands reliably")
    primary = report.primary_band
    if primary is not None:
        notes.append(
            f"primary_band_center_hz={primary.f_center!r} (highest per-cell attenuation)"
        )
    if report.resonance_markers:
        markers = ";".join(repr(m) for m in report.resonance_markers)
        notes.append(f"fixed_constraint_markers_hz={markers}")
    rows = [
        [b.f_low, b.f_high, b.f_center, b.max_attenuation] for b in report.bands
    ]
    _write_csv(
        path,
        ["f_low_hz", "f_high_hz", "f_center_hz", "max_atten_per_cell"],
        rows,
        cfg_hash,
        notes,
    )


def run_geometry_sweep(config: RunConfig, out_dir: str | None = None) -> dict:
    """Sweep one geometry parameter; track the primary-band center per value.

    The per-cell dispersion of this 1D model depends on the rod width a only
    through phase factors that cancel in the transfer-matrix eigenvalues, so
    rod-width tunability of the band centers is not expected to reproduce
    finite-element tunability figures even in order of magnitude; the summary
    carries an explicit note.
    """
    if config.geometry_sweep is None:
        raise ConfigError("geometry_sweep section is required for this run")
    gs = config.geometry_sweep
    directory = _resolve_out(config, out_dir)
    cfg_hash = config_hash(config)
    values = (
        [gs.start]
        if gs.steps == 1
        else list(np.linspace(gs.start, gs.stop, gs.steps))
    )
    rows = []
    skipped: list[str] = []
    centers = []
    for value in values:
        geo = dataclasses.replace(config.geometry, **{gs.parameter: float(value)})
        if not geo.a < geo.L:
            skipped.append(
                f"skipped {gs.parameter}={float(value)!r}: violates a < L"
            )
            continue
        cell = unit_cell(config, geo)
        points = sweep(
            cell,
            config.sweep.f_start,
            config.sweep.f_stop,
            config.sweep.points,
            with_gamma=False,
        )
        report = stopband_report(points)
        primary = report.primary_band
        if primary is None:
            rows.append([float(value), 0.0, 0.0, 0.0])
            continue
        centers.append(primary.f_center)
        rows.append(
            [
                float(value),
                primary.f_center,
                primary.f_high - primary.f_low,
                primary.max_attenuation,
            ]
        )
    delta_f = (max(centers) - min(centers)) if centers else 0.0
    notes = [
        f"parameter={gs.parameter}",
        f"delta_f_hz={delta_f!r} (max-min of primary-band center)",
        "note: 1D analytic model; rod-width tunability is not expected to match "
        "finite-element tunability quantitatively",
    ]
    notes.extend(skipped)
    path = directory / "geomsweep.csv"
    _write_csv(
        path,
        ["param_value", "f_center_first_band", "band_width", "attenuation_peak"],
        rows,
        cfg_hash,
        notes,
    )
    svg_path = None
    if config.output.plot and rows:
        svg_path = directory / "geomsweep.svg"
        line_plot(
            svg_path,
            [r[0] * 1e6 for r in rows],
            [("f_center (GHz)", [r[1] / 1e9 for r in rows])],
            title=f"primary-band center vs {gs.parameter}",
            xlabel=f"{gs.parameter} (um)",
            ylabel="f_center (GHz)",
        )
    return {"geomsweep_csv": path, "svg": svg_path, "delta_f": delta_f, "rows": rows}


def run_chain(
    config: RunConfig,
    freq: float,
    n_cells: int,
    out_dir: str | None = None,
) -> dict:
    """Finite-chain decay profile at one frequency; write chain.csv."""
    if not freq > 0:
        raise ConfigError("chain: --freq must be > 0")
    if not 2 <= n_cells <= 200:
        raise ConfigError("chain: --cells must be in [2, 200]")
    directory = _resolve_out(config, out_dir)
    cell = unit_cell(config)
    profile = chain_profile(cell, freq, n_cells)
    cfg_hash = config_hash(config)
    log10 = (profile.log_magnitudes / math.log(10.0)).tolist()
    rows = [[j, mag, lg] for j, (mag, lg) in enumerate(zip(profile.magnitudes.tolist(), log10))]
    notes = [
        f"f_hz={freq!r}",
        f"fitted_decay_slope_nepers_per_cell={profile.fitted_slope!r}",
        f"ln_lambda_flex={profile.eigen_slope!r}",
    ]
    path = directory / "chain.csv"
    _write_csv(path, ["cell_index", "amplitude_mag", "log10_amplitude"], rows, cfg_hash, notes)
    svg_path = None
    if config.output.plot:
        svg_path = directory / "chain.svg"
        line_plot(
            svg_path,
            [float(r[0]) for r in rows],
            [("log10|amplitude|", [r[2] for r in rows])],
            title=f"chain decay at {freq / 1e9:.4f} GHz",
            xlabel="cell boundary",
            ylabel="log10 amplitude",
        )
    return {"chain_csv": path, "svg": svg_path, "profile": profile}


def run_impedance(
    config: RunConfig,
    f_start: float,
    f_stop: float,
    points: int,
    out_dir: str | None = None,
) -> dict:
    """Rod driving-impedance spectrum; write impedance.csv."""
    if not (0 <= f_start < f_stop):
        raise ConfigError("impedance: need 0 <= f_start < f_stop")
    if points < 2:
        raise ConfigError("impedance: points must be >= 2")
    directory = _resolve_out(config, out_dir)
    rod = unit_cell(config).rod
    cfg_hash = config_hash(config)
    rows = []
    for f in np.linspace(f_start, f_stop, points):
        f = float(f)
        zb = driving_impedance(rod, f)
        flag = near_pole(rod, f)
        im = zb.imag
        if not math.isfinite(im):
            # exact-pole marker: clamp for file finiteness, flag carries the info
            im = math.copysign(1e308, im)
            flag = True
        rows.append([f, im, flag])
    path = directory / "impedance.csv"
    _write_csv(path, ["f_hz", "im_Zb", "flag_near_pole"], rows, cfg_hash)
    return {"impedance_csv": path}


def transfer_matrix_reference(k: float, a: float, L: float, sigma: float) -> np.ndarray:
    """Independent entrywise closed form of the cell transfer matrix.

    Used only as a cross-check table against the assembled D C D product.
    Entry (3,4) of this table is known to carry an extra e^{-ak} factor
    relative to the product and is reported as a discrepancy, not asserted.
    """
    kl = k * L
    s4 = sigma / 4.0

    def e(re_half: int, im_half: int) -> complex:
        # e^{(re_half/2 + i im_half/2) kL} written directly to stay branch-safe
        return cmath.exp(complex(re_half, im_half) * 0.5 * kl)

    return np.array(
        [
            [(1 - 1j * s4) * e(0, -2), -1j * s4 * e(1, -1), -1j * s4, -1j * s4 * e(-1, -1)],
            [s4 * e(1, -1), (1 + s4) * e(2, 0), s4 * e(1, 1), s4],
            [1j * s4, 1j * s4 * e(1, 1), (1 + 1j * s4) * e(0, 2),
             1j * s4 * cmath.exp(-a * k) * e(-1, 1)],
            [-s4 * e(-1, -1), -s4, -s4 * e(-1, 1), (1 - s4) * e(-2, 0)],
        ],
        dtype=complex,
    )


def run_matrices(config: RunConfig, freq: float, out_dir: str | None = None) -> dict:
    """Dump G, C, D, T at one frequency plus the closed-form discrepancy report."""
    if not freq > 0:
        raise ConfigError("matrices: --freq must be > 0")
    directory = _resolve_out(config, out_dir)
    cell = unit_cell(config)
    mats = cell_matrices(cell, freq)
    cfg_hash = config_hash(config)

    rows = []
    for name, M in (("G", mats.G), ("C", mats.C), ("D", mats.D), ("T", mats.T)):
        for i in range(4):
            row: list = [name, i]
            for j in range(4):
                row.extend([M[i, j].real, M[i, j].imag])
            rows.append(row)
    header = ["matrix", "row"]
    for j in range(4):
        header.extend([f"re{j}", f"im{j}"])
    path = directory / "matrices.csv"
    _write_csv(path, header, rows, cfg_hash, [f"f_hz={freq!r}"])

    _, sigma = forcing_strength(cell, freq)
    ref = transfer_matrix_reference(mats.k, cell.rod_width, cell.cell_length, sigma)
    check_rows = []
    for i in range(4):
        for j in range(4):
            denom = max(abs(ref[i, j]), 1e-300)
            rel = abs(mats.T[i, j] - ref[i, j]) / denom
            known = i == 2 and j == 3
            check_rows.append([i + 1, j + 1, rel, known])
    check_path = directory / "matrices_check.csv"
    _write_csv(
        check_path,
        ["row", "col", "rel_deviation", "known_discrepancy"],
        check_rows,
        cfg_hash,
        [
            f"f_hz={freq!r}",
            "entry (3,4) of the reference table carries an extra e^{-ak} factor "
            "relative to the assembled product; the product is trusted",
        ],
    )
    return {"matrices_csv": path, "check_csv": check_path, "matrices": mats}
