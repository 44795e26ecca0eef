"""Run orchestration: frequency/geometry sweeps, chain runs, CSV and SVG output.

Every CSV starts with a comment line recording the tool version and the
resolved-config hash, so identical configs reproduce byte-identical files.
All numeric columns are finite; near-pole frequencies are handled upstream
through analytic limits, and a table with a non-finite value is refused
before its file is opened.
"""

from __future__ import annotations

import cmath
import dataclasses
import logging
import math
from pathlib import Path

import numpy as np

from . import __version__, floatrepr
from .bloch import (
    Band,
    StopbandReport,
    Sweep,
    _bands,
    _primary,
    chain_profile,
    stopband_report,
    sweep,
    sweep_cells,
)
from .cell import UnitCellGeometry, cell_matrices
from .config import RunConfig, config_hash, unit_cell
from .errors import ConfigError, NumericError
from .rod import _impedance_rows
from .svg import line_plot
from .trench import THIN_BEAM_MIN_RATIO, _lambda_over_ht, flexural_wavevectors

log = logging.getLogger("rodwave.workbench")

RECIPROCITY_FLAG = 1e-9
RECIPROCITY_FAIL = 1e-5


# %-format of a column by its dtype kind; any other kind is written with %s
_CSV_FORMATS = {"f": "%r", "i": "%d", "u": "%d", "b": "%d"}
# A table of float64 and bool columns with at least this many values is written
# through floatrepr.  Its numpy calls cost about 0.25 ms a block whatever the
# block's size, so %r is faster below about 700 values (2-vCPU x86 host); at
# the floor floatrepr takes about 0.75 of %r's time.
_VECTOR_MIN_VALUES = 1000
# floats rendered and written at a time, whatever the renderer: a floatrepr
# block's temporaries peak at about 1.2 MB, and larger blocks are no faster
_BLOCK_FLOATS = 8192


def _write_csv(
    path: Path,
    columns: dict[str, list | np.ndarray],
    cfg_hash: str,
    notes: list[str] | None = None,
) -> None:
    """Write named, equally long columns as CSV, streamed in row blocks of
    at most _BLOCK_FLOATS floats, whichever renderer a table takes.

    Floats are written with repr, bools as 0/1, ints and strings as they are.
    Every float column is checked first: a non-finite value refuses the table
    before the file is opened, naming the file, the column and the row (by
    its first-column value).
    """
    header = list(columns)
    cols = [np.asarray(c) for c in columns.values()]
    bad = []  # (row, column) of the first non-finite value of each column
    for j, col in enumerate(cols):
        if col.dtype.kind == "f":
            finite = np.isfinite(col)
            if not finite.all():
                bad.append((int(np.argmin(finite)), j))
    if bad:
        row, j = min(bad)
        raise NumericError(
            f"{path.name}: refusing to write non-finite value {cols[j][row].item()!r} to CSV"
            f" (column {header[j]}, row {header[0]}={cols[0][row].item()})"
        )
    n, width = len(cols[0]), len(cols)
    vector = n * width >= _VECTOR_MIN_VALUES and all(
        col.dtype == np.float64 or col.dtype.kind == "b" for col in cols
    )
    render = _vector_rows if vector else _format_rows
    step = max(1, _BLOCK_FLOATS // max(1, sum(col.dtype.kind == "f" for col in cols)))
    with path.open("w") as fh:
        fh.write(f"# rodwave {__version__} config_sha256={cfg_hash}\n")
        for note in notes or []:
            fh.write(f"# {note}\n")
        fh.write(",".join(header) + "\n")
        # one block's text and arrays are freed before the next block's are made
        for lo in range(0, n, step):
            fh.write(render([col[lo:lo + step] for col in cols]))


def _format_rows(cols: list[np.ndarray]) -> str:
    """The rows of the columns as text: one %-format over the values
    interleaved row by row (%r of a Python float is its str(), %d writes ints
    exactly and bools as 0/1)."""
    row_format = ",".join(_CSV_FORMATS.get(col.dtype.kind, "%s") for col in cols) + "\n"
    n, width = len(cols[0]), len(cols)
    values = [None] * (n * width)
    for j, col in enumerate(cols):
        values[j::width] = col.tolist()
    return row_format * n % tuple(values)


def _vector_rows(cols: list[np.ndarray]) -> str:
    """The rows of float64 and bool columns as text, the same as _format_rows
    writes: a row is a run of uint64 words, 4 a float (floatrepr.repr_words)
    and 1 a bool, with each column's separator in the top byte of its last
    word; the text is their bytes with the NULs removed."""
    floats = [col for col in cols if col.dtype.kind == "f"]
    rows = len(cols[0])
    if floats:
        words = floatrepr.repr_words(np.stack(floats, axis=1)).reshape(4, rows, len(floats))
        float_words = iter(words.transpose(2, 1, 0))  # (rows, 4) of each float column
    parts = []
    for j, col in enumerate(cols):
        sep = ord(",") if j < len(cols) - 1 else ord("\n")
        if col.dtype.kind == "f":
            part = next(float_words)
            part[:, 3] |= np.uint64(sep << 56)
        else:
            part = (col + np.uint64(ord("0") | sep << 8))[:, None]
        parts.append(part)
    block = np.empty((rows, sum(part.shape[1] for part in parts)), np.uint64)
    np.concatenate(parts, axis=1, out=block)
    text = block.astype("<u8", copy=False).view(np.uint8)
    return text[text != 0].tobytes().decode("ascii")


def _resolve_out(config: RunConfig, out_dir: str | None) -> Path:
    directory = Path(out_dir if out_dir is not None else config.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {directory}: {exc}") from exc
    return directory


def _checked_sweep(config: RunConfig) -> tuple[UnitCellGeometry, Sweep, int]:
    """(cell, sweep, eigen-check flagged points) of the configured grid;
    NumericError where a point's eigen-check fails."""
    cell = unit_cell(config)
    sw = sweep(cell, config.sweep.f_start, config.sweep.f_stop, config.sweep.points)
    worst = sw.reciprocity_defect.max()
    if worst > RECIPROCITY_FAIL:
        raise NumericError(
            f"eigenvalue reciprocity violated: worst defect {worst:.3e} > {RECIPROCITY_FAIL}"
        )
    return cell, sw, int(np.count_nonzero(sw.reciprocity_defect > RECIPROCITY_FLAG))


def run_stopbands(config: RunConfig, out_dir: str | None = None) -> dict:
    """Sweep the configured frequency grid; write stopbands.csv only."""
    directory = _resolve_out(config, out_dir)
    cell, sw, _ = _checked_sweep(config)
    report = stopband_report(sw, cell)
    path = directory / "stopbands.csv"
    _write_stopbands(path, report, config_hash(config))
    return {"stopbands_csv": path, "report": report}


def run_frequency_sweep(
    config: RunConfig, out_dir: str | None = None, plot: bool | None = None
) -> dict:
    """Sweep the configured frequency grid; write sweep.csv and stopbands.csv."""
    directory = _resolve_out(config, out_dir)
    cell, sw, flagged = _checked_sweep(config)
    report = stopband_report(sw, cell)
    cfg_hash = config_hash(config)
    lambda_over_ht = _lambda_over_ht(cell.trench, sw.k)
    if log.isEnabledFor(logging.INFO):
        k_centers = flexural_wavevectors(cell.trench, np.array([b.f_center for b in report.bands]))
        strained = np.count_nonzero(_lambda_over_ht(cell.trench, k_centers) < THIN_BEAM_MIN_RATIO)
        log.info(
            "thin-beam range strained (lambda/h_t < %g) at %d of %d sweep points"
            " and %d of %d bands (by center)",
            THIN_BEAM_MIN_RATIO, np.count_nonzero(lambda_over_ht < THIN_BEAM_MIN_RATIO),
            len(sw), strained, len(report.bands),
        )

    columns = {
        "f_hz": sw.f,
        "k_rad_per_m": sw.k,
        "lambda_over_ht": lambda_over_ht,
        "re_sigma": sw.sigma,
        "T_coeff": sw.t_coeff,
        "R_coeff": sw.r_coeff,
        "re_kef": sw.k_ef.real,
        "im_kef": sw.k_ef.imag,
        "re_gamma": sw.gamma.real,
        "im_gamma": sw.gamma.imag,
        "gamma_phase": sw.gamma_phase,
        "in_stopband": sw.in_stopband,
    }
    notes = [f"reciprocity_flagged_points={flagged}"]
    sweep_path = directory / "sweep.csv"
    _write_csv(sweep_path, columns, cfg_hash, notes)
    bands_path = directory / "stopbands.csv"
    _write_stopbands(bands_path, report, cfg_hash)

    if plot if plot is not None else config.output.plot:
        line_plot(
            directory / "sweep.svg",
            (sw.f / 1e9).tolist(),
            [
                ("T", sw.t_coeff.tolist()),
                ("R", sw.r_coeff.tolist()),
                ("Im k_ef (norm)", _normalized(sw.k_ef.imag.tolist())),
            ],
            bands=[(b.f_low / 1e9, b.f_high / 1e9) for b in report.bands],
            title="transmission and attenuation per cell",
            xlabel="f (GHz)",
            ylabel="T, R, scaled Im k_ef",
        )
    return {"sweep_csv": sweep_path, "stopbands_csv": bands_path, "report": report, "points": sw}


def _normalized(values: list[float]) -> list[float]:
    top = max(map(abs, values)) or 1.0
    return [v / top for v in values]


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
    bands = report.bands
    columns = {
        "f_low_hz": [b.f_low for b in bands],
        "f_high_hz": [b.f_high for b in bands],
        "f_center_hz": [b.f_center for b in bands],
        "max_atten_per_cell": [b.max_attenuation for b in bands],
    }
    _write_csv(path, columns, cfg_hash, notes)


def run_geometry_sweep(config: RunConfig, out_dir: str | None = None) -> dict:
    """Sweep one geometry parameter; track the primary-band center per value.

    Steps that violate a < L are skipped and named in the notes.  The kept
    steps run as one: their cells' frequency grids go through the Bloch
    stage in one pass, as far as the stopband test (bloch.sweep_cells), and
    one band-summary pass over its columns gives the bands of every step,
    with grid-point edges (bloch._bands).  Each step reports its primary band
    (bloch._primary, the rule of StopbandReport.primary_band), or zeros
    without a band.  A numeric failure names the first step it occurs in.

    The per-cell dispersion of this 1D model depends on the rod width a only
    through phase factors that cancel in the transfer-matrix eigenvalues, and
    sigma holds no a because the rod's area per unit width is taken as its
    height (RodModel.impedance_scale).  So rod-width tunability of the band
    centers is not expected to reproduce finite-element tunability figures
    even in order of magnitude; the summary carries an explicit note.
    """
    if config.geometry_sweep is None:
        raise ConfigError("geometry_sweep section is required for this run")
    gs = config.geometry_sweep
    directory = _resolve_out(config, out_dir)
    cfg_hash = config_hash(config)
    kept = []  # (value, cell) of the steps that satisfy a < L
    skipped: list[str] = []
    for value in np.linspace(gs.start, gs.stop, gs.steps).tolist():
        geo = dataclasses.replace(config.geometry, **{gs.parameter: value})
        if not geo.a < geo.L:
            skipped.append(f"skipped {gs.parameter}={value!r}: violates a < L")
            continue
        kept.append((value, unit_cell(config, geo)))
    points = config.sweep.points
    steps = []  # the bands of each kept step
    if kept:
        try:
            f, t, in_stopband = sweep_cells(
                [cell for _, cell in kept], config.sweep.f_start, config.sweep.f_stop, points
            )
        except NumericError as exc:
            value = kept[exc.row // points][0]
            raise NumericError(f"geometry step {gs.parameter}={value!r} m: {exc}") from exc
        starts, ends, *summaries = _bands(f, t, in_stopband, points)
        bands = list(map(Band, f[starts].tolist(), f[ends].tolist(), *summaries))
        bounds = np.searchsorted(starts // points, np.arange(len(kept) + 1)).tolist()
        steps = [bands[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    rows = []
    for (value, _), step in zip(kept, steps):
        band = _primary(step) or Band(0.0, 0.0, 0.0, 0.0)
        rows.append([value, band.f_center, band.f_high - band.f_low, band.max_attenuation])
    centers = [row[1] for row, step in zip(rows, steps) if step]
    delta_f = (max(centers) - min(centers)) if centers else 0.0
    notes = [
        f"parameter={gs.parameter}",
        f"delta_f_hz={delta_f!r} (max-min of primary-band center)",
        "note: 1D analytic model; rod-width tunability is not expected to match "
        "finite-element tunability quantitatively",
    ]
    notes.extend(skipped)
    path = directory / "geomsweep.csv"
    header = ["param_value", "f_center_first_band", "band_width", "attenuation_peak"]
    _write_csv(
        path, {name: [r[j] for r in rows] for j, name in enumerate(header)}, cfg_hash, notes
    )
    if config.output.plot and rows:
        line_plot(
            directory / "geomsweep.svg",
            [r[0] * 1e6 for r in rows],
            [("f_center (GHz)", [r[1] / 1e9 for r in rows])],
            title=f"primary-band center vs {gs.parameter}",
            xlabel=f"{gs.parameter} (um)",
            ylabel="f_center (GHz)",
        )
    return {"geomsweep_csv": path, "delta_f": delta_f, "rows": rows}


def run_chain(
    config: RunConfig,
    freq: float,
    n_cells: int,
    out_dir: str | None = None,
) -> dict:
    """Finite-chain decay profile at one frequency; write chain.csv."""
    if not 0 < freq < math.inf:
        raise ConfigError("chain: --freq must be > 0 and finite")
    if not 2 <= n_cells <= 200:
        raise ConfigError("chain: --cells must be in [2, 200]")
    directory = _resolve_out(config, out_dir)
    cell = unit_cell(config)
    profile = chain_profile(cell, freq, n_cells)
    cfg_hash = config_hash(config)
    log10 = profile.log_magnitudes / math.log(10.0)
    notes = [
        f"f_hz={freq!r}",
        f"fitted_decay_slope_nepers_per_cell={profile.fitted_slope!r}",
        f"ln_lambda_flex={profile.eigen_slope!r}",
    ]
    path = directory / "chain.csv"
    _write_csv(
        path,
        {
            "cell_index": np.arange(log10.size),
            "amplitude_mag": profile.magnitudes,
            "log10_amplitude": log10,
        },
        cfg_hash,
        notes,
    )
    if config.output.plot:
        line_plot(
            directory / "chain.svg",
            np.arange(log10.size, dtype=float).tolist(),
            [("log10|amplitude|", log10.tolist())],
            title=f"chain decay at {freq / 1e9:.4f} GHz",
            xlabel="cell boundary",
            ylabel="log10 amplitude",
        )
    return {"chain_csv": path, "profile": profile}


def run_impedance(
    config: RunConfig,
    f_start: float,
    f_stop: float,
    points: int,
    out_dir: str | None = None,
) -> dict:
    """Rod driving-impedance spectrum; write impedance.csv."""
    if not 0 <= f_start < f_stop < math.inf:
        raise ConfigError("impedance: need 0 <= f_start < f_stop, both finite")
    if points < 2:
        raise ConfigError("impedance: points must be >= 2")
    directory = _resolve_out(config, out_dir)
    rod = unit_cell(config).rod
    cfg_hash = config_hash(config)
    f = np.linspace(f_start, f_stop, points)
    im, flag = _impedance_rows(rod, f)
    # exact-pole marker: clamp for file finiteness, the flag carries the info
    pole = np.isinf(im)
    im[pole] = np.copysign(1e308, im[pole])
    path = directory / "impedance.csv"
    _write_csv(
        path, {"f_hz": f, "im_Zb": im, "flag_near_pole": flag | pole}, cfg_hash
    )
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
    if not 0 < freq < math.inf:
        raise ConfigError("matrices: --freq must be > 0 and finite")
    directory = _resolve_out(config, out_dir)
    cell = unit_cell(config)
    mats = cell_matrices(cell, freq)
    cfg_hash = config_hash(config)

    entries = np.stack([mats.G, mats.C, mats.D, mats.T]).reshape(16, 4)
    columns = {"matrix": np.repeat(["G", "C", "D", "T"], 4), "row": np.tile(np.arange(4), 4)}
    for j in range(4):
        columns[f"re{j}"] = entries[:, j].real
        columns[f"im{j}"] = entries[:, j].imag
    path = directory / "matrices.csv"
    _write_csv(path, columns, cfg_hash, [f"f_hz={freq!r}"])

    ref = transfer_matrix_reference(mats.k, cell.rod_width, cell.cell_length, mats.sigma)
    # scalar abs: numpy's array abs of complex differs from it in the last bit
    rel = [abs(d) / max(abs(r), 1e-300) for d, r in zip((mats.T - ref).ravel(), ref.ravel())]
    i, j = np.indices((4, 4)).reshape(2, 16)
    check_path = directory / "matrices_check.csv"
    _write_csv(
        check_path,
        {
            "row": i + 1,
            "col": j + 1,
            "rel_deviation": rel,
            "known_discrepancy": (i == 2) & (j == 3),
        },
        cfg_hash,
        [
            f"f_hz={freq!r}",
            "entry (3,4) of the reference table carries an extra e^{-ak} factor "
            "relative to the assembled product; the product is trusted",
        ],
    )
    return {"matrices_csv": path, "check_csv": check_path}
