"""The four workloads: seeded inputs, one timed unit of work, and its checks.

Each workload draws every input from a numpy Generator seeded with the
workload seed.  The program sees only what a user would hand it: a config
file and a command line (the CLI-shaped workloads) or a cell and a stream of
frequencies (the scalar API).  Each draw is a fresh fabricated-device
geometry, so a cross-call result cache cannot serve a repeat.

Why these four:

* ``sweep-default`` is the user's main run, ``rodwave sweep`` on the default
  grid, and the only workload where the Gamma solve, band-edge bisection and
  the CSV of a full sweep all do real work.
* ``geom-sweep`` runs root extraction and ``cell_matrices`` 8400 times with no
  Gamma solve and no refinement; a Gamma-path or refinement optimisation must
  show no change here.
* ``point-queries`` is the scalar API (one frequency per call) and the only
  workload that runs the finite-chain recursion.  A vectorised kernel could
  make it slower while sweeps get faster.
* ``impedance-spectrum`` is dominated by the rod layer and the CSV writer,
  which stay below 3 % of either sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pickle
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Tally, note_value, read_csv
from spans import Patches

# Handbook constants written into every generated config; the benchmark's own
# reference formulas read the same numbers.
MATERIALS = {
    "AlN": {"youngs_modulus_pa": 345e9, "density_kg_m3": 3260.0},
    "Al": {"youngs_modulus_pa": 70e9, "density_kg_m3": 2700.0},
    "Pt": {"youngs_modulus_pa": 168e9, "density_kg_m3": 21450.0},
}
NOMINAL_NM = {"t_aln1": 400.0, "t_m1": 250.0, "t_aln2": 600.0, "t_m2": 330.0}

# tolerances of the acceptance criteria
PAIR_TOL = 1e-9
# passband lambda is normalised as lam / |lam|, which is exact only to rounding
LAMBDA_TOL = 4 * np.finfo(float).eps
GAMMA_BAND_TOL = 1e-6
GAMMA_PASS_TOL = 1e-9
CHAIN_SLOPE_TOL = 0.02
CHAIN_MIN_NEPERS = 1.3
IMPEDANCE_TOL = 1e-12


def fabricated_geometry(rng: np.random.Generator) -> dict:
    """Thicknesses within 5 % of nominal, L 3.6-4.0 um, a 1.8-2.2 um."""
    geo = {f"{k}_nm": v * rng.uniform(0.95, 1.05) for k, v in NOMINAL_NM.items()}
    geo["a_um"] = rng.uniform(1.8, 2.2)
    geo["L_um"] = rng.uniform(3.6, 4.0)
    return geo


def rod_reference(geo: dict) -> tuple[float, float]:
    """(rho A c, h / c) of the rod stack AlN(t_aln2) over Al(t_m2), per unit width."""
    t1, t2 = geo["t_aln2_nm"] * 1e-9, geo["t_m2_nm"] * 1e-9
    h = t1 + t2
    aln, al = MATERIALS["AlN"], MATERIALS["Al"]
    e = (aln["youngs_modulus_pa"] * t1 + al["youngs_modulus_pa"] * t2) / h
    rho = (aln["density_kg_m3"] * t1 + al["density_kg_m3"] * t2) / h
    c = math.sqrt(e / rho)
    return rho * h * c, h / c


def run_cli(rw, argv: list[str], capture: str | None = None):
    """``rodwave <argv>`` in this process: (exit code, captured run result).

    `capture` names the workbench function whose return value is kept for
    the checks; it is wrapped on the CLI module after any tracing wrappers.
    """
    captured = []
    out = io.StringIO()
    with Patches() as patches:
        if capture is not None:
            inner = getattr(rw.cli, capture)

            def keep(*args, **kwargs):
                captured.append(inner(*args, **kwargs))
                return captured[-1]

            patches.set(rw.cli, capture, keep)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = rw.cli.main(argv)
    if code != 0:
        print(f"perfbench: rodwave {argv[0]} exited {code}: {out.getvalue().strip()}",
              file=sys.stderr)
    return code, (captured[0] if captured else None)


class CliWorkload:
    """A workload whose unit is one ``rodwave`` command on a generated config."""

    name = ""
    command = ""
    # seconds of one full-size unit on the reference host (see bench.py);
    # a run times --seconds / UNIT_REF_S units
    UNIT_REF_S = 1.0
    outputs_csv: tuple[str, ...] = ()
    capture: str | None = None

    def __init__(self, rw, seed: int, workdir: Path, tiny: bool) -> None:
        self.rw = rw
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.draws = 0

    def config_doc(self) -> dict:
        return {
            "materials": MATERIALS,
            "geometry": fabricated_geometry(self.rng),
            "output": {"dir": str(self.out_dir), "plot": False},
        }

    def argv(self, cfg_path: Path) -> list[str]:
        return [self.command, "--config", str(cfg_path)]

    def draw(self) -> dict:
        doc = self.config_doc()
        path = self.workdir / f"{self.name}-{self.draws}.json"
        self.draws += 1
        path.write_text(json.dumps(doc))
        return {"doc": doc, "argv": self.argv(path), "path": path}

    def run(self, unit: dict):
        return run_cli(self.rw, unit["argv"], self.capture)

    def outputs(self, result) -> bytes:
        return b"".join((self.out_dir / name).read_bytes() for name in self.outputs_csv)

    def csv_stats(self) -> tuple[int, int]:
        """(data rows, bytes) over this unit's CSV outputs."""
        rows = size = 0
        for name in self.outputs_csv:
            path = self.out_dir / name
            size += path.stat().st_size
            lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            rows += len(lines) - 1  # minus the header
        return rows, size

    def setup_doc(self, unit: dict) -> dict:
        return unit["doc"]

    def latencies(self, result) -> list[float]:
        return []

    def check(self, unit: dict, result, tally: Tally) -> None:
        code, captured = result
        expected = self.checks_per_unit()
        if code != 0:
            tally.add("exit_ok", expected, expected)
            return
        tally.check("exit_ok", True)
        try:
            tables = {name: read_csv(self.out_dir / name) for name in self.outputs_csv}
        except (OSError, ValueError, IndexError):
            tally.add("csv_finite", expected - 1, expected - 1)
            return
        tally.check("csv_finite", all(np.isfinite(t[2]).all() for t in tables.values()))
        self.check_tables(unit, tables, captured, tally)


class SweepDefault(CliWorkload):
    """``rodwave sweep``: 2000 points over 0.1-6 GHz, Gamma, refined edges, both CSVs."""

    name = "sweep-default"
    command = "sweep"
    UNIT_REF_S = 1.1
    outputs_csv = ("sweep.csv", "stopbands.csv")
    capture = "run_frequency_sweep"

    def __init__(self, rw, seed, workdir, tiny):
        super().__init__(rw, seed, workdir, tiny)
        self.points = 200 if tiny else 2000

    def config_doc(self) -> dict:
        doc = super().config_doc()
        doc["sweep"] = {"f_start_hz": 0.1e9, "f_stop_hz": 6e9, "points": self.points}
        return doc

    def checks_per_unit(self) -> int:
        return 3 * self.points + 5

    def check_tables(self, unit, tables, captured, tally) -> None:
        _, header, rows = tables["sweep.csv"]
        col = {name: i for i, name in enumerate(header)}
        ev = np.array([p.eigenvalues for p in captured["points"]])
        pair = np.maximum(np.abs(ev[:, 0] * ev[:, 1] - 1), np.abs(ev[:, 2] * ev[:, 3] - 1))
        tally.check_all("eigen_pair", pair < PAIR_TOL)
        lam = np.array([abs(p.lambda_flex) for p in captured["points"]])
        tally.check_all("lambda_flex", lam <= 1.0 + LAMBDA_TOL)
        gamma = np.hypot(rows[:, col["re_gamma"]], rows[:, col["im_gamma"]])
        in_band = rows[:, col["in_stopband"]] == 1
        tally.check_all("gamma_in_band", np.abs(gamma[in_band] - 1) < GAMMA_BAND_TOL)
        tally.check_all("gamma_passband", gamma[~in_band] <= 1 + GAMMA_PASS_TOL)

        notes, _, bands = tables["stopbands.csv"]
        tally.check("bands_ge_3", len(bands) >= 3)
        geo = unit["doc"]["geometry"]
        pole = 1.0 / (4.0 * rod_reference(geo)[1])
        edge = self.rw.bloch.EDGE_REFINE_HZ
        hits = [b for b in bands if b[0] - edge <= pole <= b[1] + edge]
        tally.check("pole_in_band", bool(hits))
        markers = note_value(notes, "fixed_constraint_markers_hz")
        marks = [float(m) for m in markers.split(";")] if markers else []
        tally.check("pole_marker", any(b[0] <= m <= b[1] for b in hits for m in marks))


class GeomSweep(CliWorkload):
    """``rodwave geom-sweep``: t_aln2 540-660 nm, 21 steps x 400 points, 1.4-3.2 GHz."""

    name = "geom-sweep"
    command = "geom-sweep"
    UNIT_REF_S = 3.4
    outputs_csv = ("geomsweep.csv",)
    F_START, F_STOP = 1.4e9, 3.2e9

    def __init__(self, rw, seed, workdir, tiny):
        super().__init__(rw, seed, workdir, tiny)
        self.steps, self.step_points = (3, 40) if tiny else (21, 400)
        self.points = self.steps * self.step_points

    def config_doc(self) -> dict:
        doc = super().config_doc()
        doc["sweep"] = {"f_start_hz": self.F_START, "f_stop_hz": self.F_STOP,
                        "points": self.step_points}
        doc["geometry_sweep"] = {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                                 "steps": self.steps}
        return doc

    def checks_per_unit(self) -> int:
        return self.steps + 2

    def check_tables(self, unit, tables, captured, tally) -> None:
        _, _, rows = tables["geomsweep.csv"]
        ok = [
            self.F_START < row[1] < self.F_STOP and row[2] > 0 and row[3] > 0
            for row in rows
        ]
        ok += [False] * (self.steps - len(rows))
        tally.check_all("geom_primary_band", np.array(ok))


class ImpedanceSpectrum(CliWorkload):
    """``rodwave impedance`` over 0-6 GHz with 10^5 points."""

    name = "impedance-spectrum"
    command = "impedance"
    UNIT_REF_S = 0.86
    outputs_csv = ("impedance.csv",)
    F_STOP = 6e9

    def __init__(self, rw, seed, workdir, tiny):
        super().__init__(rw, seed, workdir, tiny)
        self.points = 2000 if tiny else 100_000

    def argv(self, cfg_path: Path) -> list[str]:
        return [self.command, "--config", str(cfg_path), "--f-start", "0",
                "--f-stop", repr(self.F_STOP), "--points", str(self.points)]

    def checks_per_unit(self) -> int:
        return 2 * self.points + 2

    def check_tables(self, unit, tables, captured, tally) -> None:
        _, _, rows = tables["impedance.csv"]
        f, im, flag = rows[:, 0], rows[:, 1], rows[:, 2] == 1
        scale, h_over_c = rod_reference(unit["doc"]["geometry"])
        # Away from poles, compare against -rho A c tan(2 pi f h / c).  The
        # error is measured in units of the tangent's sensitivity
        # scale * (1 + tan^2), i.e. as an error of its argument, so that one
        # rounding step of the argument next to a pole is not a failure.
        ref = -scale * np.tan(2.0 * np.pi * f * h_over_c)
        err = np.abs(im - ref) / (scale * (1.0 + (ref / scale) ** 2))
        tally.check_all("impedance_value", err[~flag] <= IMPEDANCE_TOL)
        rod = self.rw.unit_cell(self.rw.load_config(unit["path"])).rod
        window = self.rw.rod.NEAR_POLE_WINDOW_FRACTION / h_over_c
        poles = [p for p, kind in self.rw.impedance_extrema(rod, self.F_STOP) if kind == "pole"]
        expect = np.zeros_like(flag)
        for pole in poles:
            expect |= np.abs(f - pole) < window
        tally.check_all("near_pole_rows", flag == expect)
        missing = self.points - len(rows)
        if missing:
            tally.add("impedance_value", missing, missing)


class PointQueries:
    """Independent single-frequency calls on one cell, in a seeded mix.

    60 % ``bloch_point``, 30 % ``semi_infinite_reflection``, 10 %
    ``chain_profile`` over 200 cells; frequencies uniform over 0.1-6 GHz.
    The unit is one batch on one freshly drawn cell, shuffled from exact
    per-kind counts.  Building the cell is not timed.
    """

    name = "point-queries"
    UNIT_REF_S = 1.9
    SHARES = (0.6, 0.3, 0.1)
    CHAIN_CELLS = 200

    def __init__(self, rw, seed, workdir, tiny):
        self.rw = rw
        self.rng = np.random.default_rng(seed)
        self.points = 20 if tiny else 2000
        counts = [round(s * self.points) for s in self.SHARES]
        self.kinds = np.repeat(np.arange(3), counts)

    def draw(self) -> dict:
        doc = {"materials": MATERIALS, "geometry": fabricated_geometry(self.rng)}
        kinds = self.rng.permutation(self.kinds)
        freqs = self.rng.uniform(0.1e9, 6e9, len(kinds))
        return {
            "doc": doc,
            "cell": self.rw.unit_cell(self.rw.parse_config(doc)),
            "queries": [(int(k), float(f)) for k, f in zip(kinds, freqs)],
        }

    def run(self, unit: dict):
        rw, cell = self.rw, unit["cell"]
        results, lat = [], []
        for kind, f in unit["queries"]:
            t0 = perf_counter()
            try:
                if kind == 0:
                    res = rw.bloch_point(cell, f)
                elif kind == 1:
                    res = rw.semi_infinite_reflection(cell, f)
                else:
                    res = rw.chain_profile(cell, f, self.CHAIN_CELLS)
            except Exception as exc:  # a failed query fails its checks; the stream goes on
                res = exc
            lat.append(perf_counter() - t0)
            results.append(res)
        return results, lat

    def checks_per_unit(self) -> int:
        return sum((3, 1, 1)[kind] for kind in self.kinds)

    def latencies(self, result) -> list[float]:
        return result[1]

    def outputs(self, result) -> bytes:
        return pickle.dumps(result[0])

    def csv_stats(self) -> tuple[int, int]:
        return 0, 0

    def setup_doc(self, unit: dict) -> dict:
        return unit["doc"]

    def check(self, unit: dict, result, tally: Tally) -> None:
        for (kind, f), res in zip(unit["queries"], result[0]):
            if isinstance(res, Exception):
                tally.add("query_error", 3 if kind == 0 else 1, 3 if kind == 0 else 1)
                continue
            if kind == 0:
                ev = res.eigenvalues
                pair = max(abs(ev[0] * ev[1] - 1), abs(ev[2] * ev[3] - 1))
                tally.check("eigen_pair", pair < PAIR_TOL)
                tally.check("lambda_flex", abs(res.lambda_flex) <= 1.0 + LAMBDA_TOL)
                self._check_gamma(res.gamma, res.in_stopband, tally)
            elif kind == 1:
                in_band = self.rw.bloch_point(unit["cell"], f, with_gamma=False).in_stopband
                self._check_gamma(res[0], in_band, tally)
            elif res.eigen_slope <= -CHAIN_MIN_NEPERS:
                ratio = res.fitted_slope / res.eigen_slope
                tally.check("chain_slope", abs(ratio - 1) < CHAIN_SLOPE_TOL)

    @staticmethod
    def _check_gamma(gamma: complex, in_band: bool, tally: Tally) -> None:
        if in_band:
            tally.check("gamma_in_band", abs(abs(gamma) - 1) < GAMMA_BAND_TOL)
        else:
            tally.check("gamma_passband", abs(gamma) <= 1 + GAMMA_PASS_TOL)


WORKLOADS = {
    wl.name: wl for wl in (SweepDefault, GeomSweep, PointQueries, ImpedanceSpectrum)
}
