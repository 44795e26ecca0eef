import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rodwave
from rodwave import ConfigError, cli, parse_config
from rodwave.cli import main
from rodwave.config import GEOM_PARAMETERS


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


@pytest.fixture()
def small_config(tmp_path):
    # coarse but fast grid covering the principal stopband
    return write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 160},
            "output": {"dir": str(tmp_path / "out")},
        },
    )


def test_sweep_writes_expected_columns(small_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(small_config)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert header == [
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
    ]
    assert len(rows) == 160
    assert comments[0].startswith("# rodwave 0.1.0 config_sha256=")
    for row in rows:
        for valstr in row:
            assert math.isfinite(float(valstr))


def test_stopbands_csv(small_config, tmp_path):
    assert main(["stopbands", "--config", str(small_config)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "stopbands.csv")
    assert header == ["f_low_hz", "f_high_hz", "f_center_hz", "max_atten_per_cell"]
    assert len(rows) >= 1
    lows = [float(r[0]) for r in rows]
    highs = [float(r[1]) for r in rows]
    assert lows == sorted(lows)
    assert all(h > l for l, h in zip(lows, highs))


def test_stopbands_writes_only_the_table_sweep_writes(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["stopbands", "--config", str(small_config)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["stopbands.csv"]
    alone = (out / "stopbands.csv").read_bytes()
    (out / "stopbands.csv").unlink()
    assert main(["sweep", "--config", str(small_config)]) == 0
    assert (out / "stopbands.csv").read_bytes() == alone


def test_stopbands_keeps_the_reciprocity_check(small_config, tmp_path, capsys, monkeypatch):
    from rodwave import workbench

    monkeypatch.setattr(workbench, "RECIPROCITY_FAIL", -1.0)  # every defect fails
    assert main(["stopbands", "--config", str(small_config)]) == 3
    assert "eigenvalue reciprocity violated" in capsys.readouterr().err
    assert not (tmp_path / "out" / "stopbands.csv").exists()


def test_sweep_determinism(small_config, tmp_path):
    assert main(["sweep", "--config", str(small_config)]) == 0
    first = (tmp_path / "out" / "sweep.csv").read_bytes()
    first_bands = (tmp_path / "out" / "stopbands.csv").read_bytes()
    assert main(["sweep", "--config", str(small_config)]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == first
    assert (tmp_path / "out" / "stopbands.csv").read_bytes() == first_bands


def test_two_point_sweep_warns_coarse(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1e9, "f_stop_hz": 2e9, "points": 2},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    comments, _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 2
    band_comments, _, _ = read_csv(tmp_path / "out" / "stopbands.csv")
    assert any("coarse" in c for c in band_comments)


def test_plot_flag_writes_svg(small_config, tmp_path):
    assert main(["sweep", "--config", str(small_config), "--plot"]) == 0
    svg = (tmp_path / "out" / "sweep.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_out_flag_overrides_directory(small_config, tmp_path):
    alt = tmp_path / "alt"
    assert main(["sweep", "--config", str(small_config), "--out", str(alt)]) == 0
    assert (alt / "sweep.csv").exists()


def test_impedance_csv(tmp_path):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(
        ["impedance", "--config", str(cfg), "--f-start", "1e8", "--f-stop", "6e9",
         "--points", "500"]
    ) == 0
    _, header, rows = read_csv(tmp_path / "out" / "impedance.csv")
    assert header == ["f_hz", "im_Zb", "flag_near_pole"]
    assert len(rows) == 500
    flags = [int(r[2]) for r in rows]
    assert any(flags)  # the grid passes near the 2.42 GHz pole
    assert not all(flags)


def test_impedance_csv_pins_dc_and_exact_pole_rows(tmp_path):
    from rodwave import parse_config, unit_cell

    pole = unit_cell(parse_config({})).rod.first_pole
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    path = tmp_path / "out" / "impedance.csv"
    # the middle point of a 3-point grid centred on the pole lies inside the
    # exact-pole window: clamped to -1e308 and flagged
    assert main(
        ["impedance", "--config", str(cfg), "--f-start", repr(pole - 1e6),
         "--f-stop", repr(pole + 1e6), "--points", "3"]
    ) == 0
    assert path.read_text().splitlines()[3] == "2416693844.385006,-1e+308,1"
    assert main(
        ["impedance", "--config", str(cfg), "--f-start", "0", "--f-stop", "1e9",
         "--points", "3"]
    ) == 0
    assert path.read_text().splitlines()[2] == "0.0,0.0,0"


def test_impedance_past_the_rod_top_frequency_exits_3_naming_f(tmp_path, capsys):
    # the exact-pole marker fired on rounding noise there: 3 rows of -1e+308, flagged
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["impedance", "--config", str(cfg), "--f-start", "1e19", "--f-stop", "1e21",
                 "--points", "100000"]) == 3
    err = capsys.readouterr().err
    assert err.endswith("past the rod's top frequency, at f=1e+19 Hz\n"), err
    assert not (tmp_path / "out" / "impedance.csv").exists()


def test_sweep_past_the_rod_top_frequency_exits_3_naming_f(tmp_path, capsys):
    # a 3 cm rod's top frequency is 2^31 Hz: the first sweep point past it is row 694
    doc = {"geometry": {"t_aln2_m": 0.03},
           "sweep": {"f_start_hz": 0.1e9, "f_stop_hz": 6e9, "points": 2000},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 3
    err = capsys.readouterr().err
    assert err.endswith("past the rod's top frequency, at f=2148324162.0810404 Hz\n"), err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_geom_sweep_past_a_rod_top_frequency_exits_3_naming_the_step(tmp_path, capsys):
    # the 1e10 m step's rod tops out at about 4.6 mHz: its rod phase at 1.4 GHz
    # (8.6e15 rad) has a float spacing of 1 rad
    doc = {"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 40},
           "geometry_sweep": {"parameter": "t_aln2", "from_nm": 600, "to_m": 1e10, "steps": 2},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["geom-sweep", "--config", str(write_config(tmp_path, doc))]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: geometry step t_aln2=10000000000.0 m: rod impedance:" in err, err
    assert err.endswith("past the rod's top frequency, at f=1400000000.0 Hz\n"), err
    assert not (tmp_path / "out" / "geomsweep.csv").exists()


def test_chain_csv(tmp_path):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["chain", "--config", str(cfg), "--freq", "2.3e9", "--cells", "7"]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "chain.csv")
    assert header == ["cell_index", "amplitude_mag", "log10_amplitude"]
    assert len(rows) == 8
    assert any("fitted_decay_slope" in c for c in comments)
    assert any("ln_lambda_flex" in c for c in comments)
    mags = [float(r[1]) for r in rows]
    assert mags[0] == 1.0
    assert mags[-1] < 0.1  # 2.3 GHz lies inside the principal stopband


def test_chain_csv_log_column_below_underflow(tmp_path, default_cell, deepest_stop_f):
    # more than 7 Np a cell over 200 cells at the deepest stopband point of the
    # default sweep: the magnitudes underflow to 0 but the log10 column keeps
    # falling by the per-cell decay
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    freq = repr(deepest_stop_f)
    assert main(["chain", "--config", str(cfg), "--freq", freq, "--cells", "200"]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "chain.csv")
    assert float(rows[-1][1]) == 0.0
    log10 = [float(r[2]) for r in rows]
    per_cell = (log10[150] - log10[50]) / 100
    decay = math.log(rodwave.bloch_point(default_cell, deepest_stop_f).t_coeff)
    assert per_cell == pytest.approx(decay / math.log(10), rel=0.02)


def test_chain_below_the_small_kl_floor_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["chain", "--config", str(cfg), "--freq", "0.3", "--cells", "20"]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: non-finite Gamma at f=0.3 Hz (kL = 0.000167):"
        " the closed forms lose all precision at small kL\n"
    )
    assert not (tmp_path / "out" / "chain.csv").exists()


@pytest.mark.parametrize("f_start", [1e-3, 0.45], ids=["below", "above"])
def test_sweep_at_the_small_kl_floor_writes_finite_csvs_or_exits_3_naming_f(
    tmp_path, capsys, f_start
):
    # f_start = 1e-3 Hz passes parse_config; the default cell's kL reaches
    # bloch.KL_FLOOR = 2e-4 at 0.43 Hz, so the first grid starts below it and
    # exits 3 naming its first point, and the second starts just above it
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": f_start, "f_stop_hz": 10.0, "points": 200},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    code = main(["sweep", "--config", str(cfg)])
    if f_start < 0.43:
        assert code == 3
        assert capsys.readouterr().err == (
            f"numeric failure: non-finite Gamma at f={f_start!r} Hz (kL = 9.65e-06):"
            " the closed forms lose all precision at small kL\n"
        )
        assert not (tmp_path / "out" / "sweep.csv").exists()
        return
    assert code == 0
    _, _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 200
    assert np.isfinite(np.array(rows, dtype=float)).all()


def test_chain_cell_count_limits(tmp_path):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["chain", "--config", str(cfg), "--freq", "2.3e9", "--cells", "1"]) == 2
    assert main(["chain", "--config", str(cfg), "--freq", "2.3e9", "--cells", "201"]) == 2


def test_geom_sweep_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 120},
            "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                               "steps": 5},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "geomsweep.csv")
    assert header == ["param_value", "f_center_first_band", "band_width",
                      "attenuation_peak"]
    assert len(rows) == 5
    centers = [float(r[1]) for r in rows]
    # taller rod -> lower quarter-wave frequency -> center strictly decreases
    assert all(a > b for a, b in zip(centers, centers[1:]))
    assert any("delta_f_hz=" in c for c in comments)
    assert any("1D analytic model" in c for c in comments)


def test_geom_sweep_skips_invalid_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 80},
            "geometry_sweep": {"parameter": "a", "from_um": 3.0, "to_um": 4.2,
                               "steps": 4},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    comments, _, rows = read_csv(tmp_path / "out" / "geomsweep.csv")
    assert len(rows) == 3  # a = 4.2 um violates a < L = 3.8 um and is skipped
    assert any("skipped" in c for c in comments)


def test_geom_sweep_with_every_step_skipped(tmp_path, monkeypatch):
    # a relative output directory keeps the config hash independent of tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"points": 40},
            "geometry_sweep": {"parameter": "a", "from_um": 4, "to_um": 5, "steps": 3},
            "output": {"dir": "out"},
        },
    )
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "geomsweep.csv").read_text() == (
        "# rodwave 0.1.0 config_sha256=4ccc168fd16dd7be\n"
        "# parameter=a\n"
        "# delta_f_hz=0.0 (max-min of primary-band center)\n"
        "# note: 1D analytic model; rod-width tunability is not expected to match "
        "finite-element tunability quantitatively\n"
        "# skipped a=4e-06: violates a < L\n"
        "# skipped a=4.499999999999999e-06: violates a < L\n"
        "# skipped a=4.9999999999999996e-06: violates a < L\n"
        "param_value,f_center_first_band,band_width,attenuation_peak\n"
    )


def test_geom_sweep_past_the_finite_kl_range_names_the_step(tmp_path, capsys):
    from rodwave import parse_config, sweep, unit_cell

    doc = {"geometry_sweep": {"parameter": "L", "from_um": 20, "to_um": 200, "steps": 5}}
    cfg = write_config(tmp_path, dict(doc, output={"dir": str(tmp_path / "out")}))
    assert main(["geom-sweep", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    named = re.search(r"geometry step L=(\S+) m: non-finite Bloch roots at f=\S+ Hz", err)
    assert named, err
    # the first failing step of 20, 65, 110, 155, 200 um: the step before it runs
    assert float(named.group(1)) == pytest.approx(65e-6)
    config = parse_config(doc)
    sweep(unit_cell(config, dataclasses.replace(config.geometry, L=20e-6)), 0.1e9, 6e9, 2000)
    assert not (tmp_path / "out" / "geomsweep.csv").exists()


def test_geom_sweep_just_above_the_small_kl_floor_writes_no_spurious_band(tmp_path):
    # with the y-root closed form every step wrote a primary band at
    # 0.16419597989949747 Hz, 1 - T = 1.2e-4
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 0.05, "f_stop_hz": 0.5, "points": 200},
            "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                               "steps": 3},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    # the geometry sweep reads no Gamma, so bloch.KL_FLOOR does not refuse it
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "geomsweep.csv")
    assert [r[1:] for r in rows] == [["0.0", "0.0", "0.0"]] * 3


def test_geom_sweep_single_value(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 80},
            "geometry_sweep": {"parameter": "L", "from_um": 3.8, "to_um": 3.8,
                               "steps": 1},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    comments, _, rows = read_csv(tmp_path / "out" / "geomsweep.csv")
    assert len(rows) == 1
    assert any("delta_f_hz=0.0" in c for c in comments)


def test_geom_sweep_step_without_a_stopband_writes_zeros(tmp_path):
    # 0.15-0.30 GHz sits between the two lowest gaps of the default cell
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 0.15e9, "f_stop_hz": 0.30e9, "points": 120},
            "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                               "steps": 3},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["geom-sweep", "--config", str(cfg)]) == 0
    comments, _, rows = read_csv(tmp_path / "out" / "geomsweep.csv")
    assert [r[1:] for r in rows] == [["0.0", "0.0", "0.0"]] * 3
    assert "# delta_f_hz=0.0 (max-min of primary-band center)" in comments


@pytest.mark.parametrize(
    "doc, argv, name",
    [
        ({"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 40},
          "geometry_sweep": {"parameter": "L", "from_um": 3, "to_um": 5, "steps": 3}},
         ["geom-sweep"], "geomsweep.svg"),
        ({}, ["chain", "--freq", "2.3e9", "--cells", "7"], "chain.svg"),
        # one step: a zero-width x range
        ({"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 40},
          "geometry_sweep": {"parameter": "t_aln2", "from_nm": 600, "to_nm": 600, "steps": 1}},
         ["geom-sweep"], "geomsweep.svg"),
        # a < L keeps only a = 3 um of the three steps
        ({"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 40},
          "geometry_sweep": {"parameter": "a", "from_um": 3, "to_um": 5, "steps": 3}},
         ["geom-sweep"], "geomsweep.svg"),
        # no stopband in the window: every Im k_ef is 0
        ({"sweep": {"f_start_hz": 0.15e9, "f_stop_hz": 0.30e9, "points": 40}},
         ["sweep"], "sweep.svg"),
        # x ranges a few ulps wide: the tick step is below the float spacing there
        ({"sweep": {"f_start_hz": 1e9, "f_stop_hz": 1000000000.0000002, "points": 5}},
         ["sweep", "--plot"], "sweep.svg"),
        ({"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 40},
          "geometry_sweep": {"parameter": "t_aln2", "from_nm": 600,
                             "to_nm": 600.0000000000001, "steps": 3}},
         ["geom-sweep"], "geomsweep.svg"),
    ],
    ids=["geom-sweep", "chain", "geom-sweep-one-step", "geom-sweep-one-kept-step",
         "sweep-without-stopband", "sweep-ulps-wide", "geom-sweep-ulps-wide"],
)
def test_plot_config_writes_svg(tmp_path, doc, argv, name):
    cfg = write_config(tmp_path, dict(doc, output={"dir": str(tmp_path / "out"), "plot": True}))
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 0
    svg = (tmp_path / "out" / name).read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg


def test_sweep_plot_over_a_few_ulps_writes_at_most_seven_x_labels(tmp_path):
    doc = {"sweep": {"f_start_hz": 1e9, "f_stop_hz": 1000000000.000001, "points": 5},
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--plot"]) == 0
    svg = (tmp_path / "out" / "sweep.svg").read_text()
    # x tick labels sit 18 px below the plot's bottom edge (y = 36 + 434)
    assert 1 <= svg.count(' y="488" text-anchor="middle">') <= 7


def test_chain_plot_labels_its_zero_tick_0(tmp_path):
    # a running sum of the tick step left 1.73472e-18 where the zero tick is
    doc = {"output": {"dir": str(tmp_path / "out"), "plot": True}}
    argv = ["chain", "--config", str(write_config(tmp_path, doc)), "--freq", "3.1e9"]
    assert main([*argv, "--cells", "7"]) == 0
    svg = (tmp_path / "out" / "chain.svg").read_text()
    labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    assert "0" in labels
    assert all(label == "0" or abs(float(label)) > 1e-12 for label in labels), labels


def test_matrices_csv(tmp_path):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["matrices", "--config", str(cfg), "--freq", "1.0e9"]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "matrices.csv")
    assert header[:2] == ["matrix", "row"]
    assert len(rows) == 16  # 4 matrices x 4 rows
    names = {r[0] for r in rows}
    assert names == {"G", "C", "D", "T"}
    comments, check_header, check_rows = read_csv(tmp_path / "out" / "matrices_check.csv")
    assert check_header == ["row", "col", "rel_deviation", "known_discrepancy"]
    assert len(check_rows) == 16
    for r in check_rows:
        if r[3] == "1":
            assert (int(r[0]), int(r[1])) == (3, 4)
        else:
            assert float(r[2]) < 1e-9


def test_matrices_at_an_exact_pole(tmp_path):
    from rodwave import parse_config, unit_cell

    pole = unit_cell(parse_config({})).rod.first_pole
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["matrices", "--config", str(cfg), "--freq", repr(pole)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / "matrices_check.csv")
    assert len(rows) == 16
    assert all(math.isfinite(float(r[2])) for r in rows)


def test_matrices_past_the_finite_kl_range_exits_3_naming_the_frequency(tmp_path, capsys):
    geometry = {"L_um": 200, "a_um": 2}
    cfg = write_config(tmp_path, {"geometry": geometry, "output": {"dir": str(tmp_path / "out")}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["matrices", "--config", str(cfg), "--freq", "5e9"]) == 3
    err = capsys.readouterr().err
    assert re.match(
        r"numeric failure: non-finite transfer matrix at f=5000000000\.0 Hz \(kL = \d+\.\d\): ",
        err,
    ), err
    assert not (tmp_path / "out" / "matrices.csv").exists()


def test_sweep_at_long_pitch_writes_finite_csvs(tmp_path):
    cfg = write_config(
        tmp_path, {"geometry": {"L_um": 12}, "output": {"dir": str(tmp_path / "out")}}
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    for name in ("sweep.csv", "stopbands.csv"):
        _, _, rows = read_csv(tmp_path / "out" / name)
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_sweep_past_the_finite_kl_range_exits_3_naming_the_frequency(tmp_path, capsys):
    from rodwave import bloch_point, parse_config, unit_cell

    geometry = {"L_um": 200, "a_um": 2}
    cfg = write_config(tmp_path, {"geometry": geometry, "output": {"dir": str(tmp_path / "out")}})
    assert main(["sweep", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    named = re.search(r"non-finite Bloch roots at f=(\S+) Hz \(kL = ", err)
    assert named, err
    # the first failing point of the default grid: its left neighbour is fine
    grid = np.linspace(0.1e9, 6e9, 2000)
    i = int(np.flatnonzero(grid == float(named.group(1)))[0])
    bloch_point(unit_cell(parse_config({"geometry": geometry})), float(grid[i - 1]))
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "sweep, argv",
    [
        ({"f_stop_hz": 1.7e308}, ["sweep"]),
        ({"f_stop_hz": 1.7e308}, ["stopbands"]),
        ({"f_stop_hz": 1.7e308}, ["geom-sweep"]),
        ({}, ["chain", "--freq", "1.7e308", "--cells", "7"]),
        ({}, ["matrices", "--freq", "1.7e308"]),
        ({}, ["impedance", "--f-start", "0", "--f-stop", "1.7e308", "--points", "3"]),
    ],
    ids=["sweep", "stopbands", "geom-sweep", "chain", "matrices", "impedance"],
)
def test_frequency_past_the_float_range_exits_3_naming_it(tmp_path, capsys, sweep, argv):
    # 2 pi f overflows above about 2.86e307 Hz: every command died with a
    # traceback from the rod layer's math.tan(inf)
    cfg = write_config(tmp_path, {
        "sweep": sweep,
        "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660, "steps": 3},
        "output": {"dir": str(tmp_path / "out")},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric failure: .* range at f=\S+ Hz\n", err), err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": {"a_um": 9.0}}')
    assert main(["sweep", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["sweep", "--config", str(missing)]) == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ('{"output": {"dir": "caf\xe9"}}'.encode("latin-1"),
         "cannot read config file {path}: 'utf-8' codec can't decode byte 0xe9"),
        (b"[" * 100_000 + b"]" * 100_000,
         "config {path} is not valid JSON: maximum recursion depth exceeded"),
        (b'{"output": {"dir": "a\\u0000b"}}',
         "output.dir: must not contain a NUL character\n"),
        (b'{"output": {"dir": "a\\ud800b"}}',
         "output.dir: not a file system path: surrogates not allowed\n"),
    ],
    ids=["not-utf-8", "nested-100000-deep", "nul-in-output-dir", "lone-surrogate-in-output-dir"],
)
def test_config_the_run_cannot_read_or_use_exits_2_naming_it(
    tmp_path, capsys, monkeypatch, data, message
):
    monkeypatch.chdir(tmp_path)  # the default output directory
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["stopbands", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message.format(path=path))
    assert list(tmp_path.iterdir()) == [path]


def test_unwritable_output_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"output": {"dir": "/proc/definitely/not/writable"}})
    assert main(
        ["impedance", "--config", str(cfg), "--f-start", "1e8", "--f-stop", "1e9",
         "--points", "2"]
    ) == 4


@pytest.mark.parametrize(
    "sweep, argv",
    [
        ({}, ["impedance", "--f-start", "0", "--f-stop", "inf", "--points", "3"]),
        ({}, ["chain", "--freq", "inf", "--cells", "7"]),
        ({}, ["matrices", "--freq", "inf"]),
        ({"f_stop_hz": math.inf}, ["sweep"]),
    ],
    ids=["impedance", "chain", "matrices", "sweep"],
)
def test_non_finite_frequency_is_a_config_error(tmp_path, capsys, sweep, argv):
    cfg = write_config(tmp_path, {"sweep": sweep, "output": {"dir": str(tmp_path / "out")}})
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["geom-sweep"], "geometry_sweep section is required for this run"),
        (["impedance", "--f-start", "1e8", "--f-stop", "1e9", "--points", "1"],
         "impedance: points must be >= 2"),
        (["impedance", "--f-start", "2e9", "--f-stop", "1e9", "--points", "5"],
         "impedance: need 0 <= f_start < f_stop, both finite"),
        (["chain", "--freq", "0", "--cells", "10"], "chain: --freq must be > 0 and finite"),
        (["chain", "--freq", "2e9", "--cells", "201"], "chain: --cells must be in [2, 200]"),
        (["matrices", "--freq", "0"], "matrices: --freq must be > 0 and finite"),
    ],
    ids=[
        "geom-sweep-without-section", "impedance-one-point", "impedance-reversed",
        "chain-zero-freq", "chain-201-cells", "matrices-zero-freq",
    ],
)
def test_run_without_what_it_needs_exits_2(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# a run function's argument that is not a real number, or a count that is not
# an integer: each ran on (a True f_start wrote an impedance.csv from 1 Hz), or
# failed with a bare numpy or comparison TypeError, or refused only after the
# output directory was made
_RUN_TYPE_REFUSALS = [
    ("run_impedance", (True, 2e9, 5), "run_impedance: f_start must be a real number, got True"),
    ("run_impedance", (0.0, "2e9", 5), "run_impedance: f_stop must be a real number, got '2e9'"),
    ("run_impedance", (0.0, 2e9, 5.0), "run_impedance: points must be an integer, got 5.0"),
    ("run_chain", (True, 10), "run_chain: freq must be a real number, got True"),
    ("run_chain", (2.0e9, 10.0), "run_chain: n_cells must be an integer, got 10.0"),
    ("run_matrices", ("1e9",), "run_matrices: freq must be a real number, got '1e9'"),
]


@pytest.mark.parametrize(
    "name, args, message", _RUN_TYPE_REFUSALS, ids=[m for _, _, m in _RUN_TYPE_REFUSALS]
)
def test_a_run_refuses_an_argument_of_the_wrong_type_before_its_directory(
    tmp_path, name, args, message
):
    from rodwave import workbench

    out = tmp_path / "out"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        getattr(workbench, name)(rodwave.parse_config({}), *args, out_dir=str(out))
    assert not out.exists()


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    from rodwave import cli
    from rodwave.errors import NumericError

    def boom(config, out_dir=None, plot=False):
        raise NumericError("synthetic invariant violation")

    monkeypatch.setattr(cli, "run_frequency_sweep", boom)
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    assert main(["sweep", "--config", str(cfg)]) == 3


def test_non_finite_csv_value_names_file_column_and_row(tmp_path):
    from rodwave.errors import NumericError
    from rodwave.workbench import _write_csv

    path = tmp_path / "sweep.csv"
    with pytest.raises(NumericError) as info:
        _write_csv(path, {"f_hz": [1.0e9, 2.5e9], "re_gamma": [0.5, math.nan]}, "0" * 64)
    assert str(info.value) == (
        "sweep.csv: refusing to write non-finite value nan to CSV"
        " (column re_gamma, row f_hz=2500000000.0)"
    )
    assert not path.exists()


def test_non_finite_value_past_the_first_block_names_its_row(tmp_path):
    from rodwave.errors import NumericError
    from rodwave.workbench import _BLOCK_FLOATS, _write_csv

    _CSV_BLOCK_ROWS = _BLOCK_FLOATS // 2  # the rows of a block of two float columns

    n = _CSV_BLOCK_ROWS + 10
    f = [float(i) for i in range(n)]
    im = [0.5] * n
    im[_CSV_BLOCK_ROWS + 3] = math.nan
    path = tmp_path / "impedance.csv"
    with pytest.raises(NumericError) as info:
        _write_csv(path, {"f_hz": f, "im_Zb": im, "flag_near_pole": [False] * n}, "0" * 64)
    assert str(info.value) == (
        "impedance.csv: refusing to write non-finite value nan to CSV"
        f" (column im_Zb, row f_hz={float(_CSV_BLOCK_ROWS + 3)})"
    )
    assert not path.exists()


def _join_str_rows(columns):
    """CSV rows as ",".join(map(str, row)), bools through int."""
    cols = [np.asarray(c) for c in columns.values()]
    cols = [c.astype(int) if c.dtype.kind == "b" else c for c in cols]
    return "".join(",".join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in cols)))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_rows_are_the_joined_str_of_each_value(tmp_path, offset):
    from rodwave.workbench import _BLOCK_FLOATS, _write_csv

    _CSV_BLOCK_ROWS = _BLOCK_FLOATS // 2  # the rows of a block of two float columns

    n = _CSV_BLOCK_ROWS + offset
    floats = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, 0.1, -2.5e-300, 1.0]
    ints = [2**53 + 1, -(2**63), 2**63 - 1, 0, -7]
    columns = {
        "matrix": np.repeat(["G", "C", "D", "T"], -(-n // 4))[:n],  # numpy str
        "row": np.arange(n) % 4,
        "x": np.resize(floats, n),
        "big": np.resize(np.array(ints, dtype=np.int64), n),
        "flag": np.arange(n) % 3 == 0,
        "y": [floats[(i * 5) % len(floats)] for i in range(n)],  # a list of Python floats
    }
    path = tmp_path / "t.csv"
    _write_csv(path, columns, "0" * 64, ["note"])
    lines = path.read_text().splitlines(keepends=True)
    assert lines[:3] == [
        f"# rodwave {rodwave.__version__} config_sha256={'0' * 64}\n",
        "# note\n",
        "matrix,row,x,big,flag,y\n",
    ]
    assert "".join(lines[3:]) == _join_str_rows(columns)
    assert len(lines) == 3 + n


def _float_bool_rows():
    """Row counts of a 4-column float/bool table: around the vectorised
    writer's size floor, and around and past one and two of its blocks."""
    from rodwave.workbench import _BLOCK_FLOATS, _VECTOR_MIN_VALUES

    floor, block = _VECTOR_MIN_VALUES // 4, _BLOCK_FLOATS // 3
    return [floor - 1, floor, floor + 1, block - 1, block, block + 1, 2 * block + 1]


@pytest.mark.parametrize("n", _float_bool_rows())
def test_float_and_bool_rows_are_the_joined_str_of_each_value(tmp_path, monkeypatch, n):
    from rodwave import workbench
    from rodwave.workbench import _VECTOR_MIN_VALUES, _write_csv

    calls = []
    repr_words = workbench.floatrepr.repr_words
    monkeypatch.setattr(
        workbench.floatrepr, "repr_words", lambda v: calls.append(v.size) or repr_words(v)
    )
    rng = np.random.default_rng(n)
    floats = [-0.0, 0.0, 5e-324, 1e-5, 0.0001, 1e16, 1.7976931348623157e308, 0.1,
              -2.5e-300, 1.0, 123456789012345678.0, 2.5e9, 1e15]
    columns = {
        "x": np.resize(floats, n),
        "flag": np.arange(n) % 3 == 0,
        "y": [floats[(i * 5) % len(floats)] for i in range(n)],  # a list of Python floats
        "z": rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
    }
    path = tmp_path / "t.csv"
    _write_csv(path, columns, "0" * 64, ["note"])
    lines = path.read_text().splitlines(keepends=True)
    assert lines[:3] == [
        f"# rodwave {rodwave.__version__} config_sha256={'0' * 64}\n",
        "# note\n",
        "x,flag,y,z\n",
    ]
    assert "".join(lines[3:]) == _join_str_rows(columns)
    # the three float columns go through floatrepr from the floor on
    assert sum(calls) == (3 * n if 4 * n >= _VECTOR_MIN_VALUES else 0)


def _sweep_shaped(rng, n):
    """n rows of 11 float columns and a bool, as sweep.csv."""
    columns = {f"x{j}": rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for j in range(11)}
    columns["flag"] = rng.random(n) < 0.1
    return columns


def test_vectorised_writer_keeps_its_temporaries_small(tmp_path):
    import tracemalloc

    from rodwave.workbench import _write_csv

    n = 100_000
    rng = np.random.default_rng(1)
    impedance = {
        "f_hz": np.linspace(0.0, 1e10, n),
        "im_Zb": rng.standard_normal(n) * 1e3,
        "flag_near_pole": rng.random(n) < 0.01,
    }
    for columns in (impedance, _sweep_shaped(rng, 2000)):
        path = tmp_path / "table.csv"
        _write_csv(path, columns, "0" * 64)  # builds the formatter's tables
        tracemalloc.start()
        try:
            _write_csv(path, columns, "0" * 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


@pytest.mark.parametrize("shape", ["impedance", "sweep"])
def test_vectorised_writer_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, shape):
    from rodwave import workbench

    rng = np.random.default_rng(32)
    special = [-0.0, 0.0, 5e-324, 1e16, -1e16, 2.2250738585072009e-308, 1e-310, -4.9e-320, 0.1]
    if shape == "impedance":
        n = 1500
        columns = {"f_hz": np.linspace(0.0, 6e9, n), "im_Zb": rng.standard_normal(n) * 1e3,
                   "flag_near_pole": rng.random(n) < 0.01}
        columns["im_Zb"][:len(special)] = special
    else:
        n = 400
        columns = _sweep_shaped(rng, n)
        for j, name in enumerate(list(columns)[:11]):
            columns[name][j:j + len(special)] = special
    texts = set()
    for block in (1, 7, 2048, workbench._BLOCK_FLOATS):
        monkeypatch.setattr(workbench, "_BLOCK_FLOATS", block)
        path = tmp_path / f"{block}.csv"
        workbench._write_csv(path, columns, "0" * 64)
        texts.add(path.read_bytes())
    assert len(texts) == 1
    body = texts.pop().decode().split("\n", 2)[2]
    assert body == _join_str_rows(columns)


def test_verbose_holds_on_every_call_in_one_process(tmp_path, capsys):
    # the logging setup of one call must not fix that of the next
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    argv = ["chain", "--config", str(cfg), "--freq", "2.3e9", "--cells", "7"]
    logged = []
    for verbose in (False, True, False):
        assert main(["-v"] * verbose + argv) == 0
        err = capsys.readouterr().err
        logged.append(sum(line.startswith("rodwave.config: ") for line in err.splitlines()))
    assert logged[0] == logged[2] == 0
    # one line a substituted default: geometry (6), materials (6), sweep (3), output.plot
    assert logged[1] == 16


def test_back_to_back_commands_write_what_each_writes_alone(tmp_path, monkeypatch):
    # a relative output directory keeps every file's config hash the same
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 160},
            "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                               "steps": 5},
            "output": {"dir": "out"},
        },
    )
    commands = {
        ("sweep.csv", "stopbands.csv"): ["sweep"],
        ("geomsweep.csv",): ["geom-sweep"],
        ("impedance.csv",): ["impedance", "--f-start", "0", "--f-stop", "6e9",
                             "--points", "1000"],
        ("chain.csv",): ["chain", "--freq", "2.9e9", "--cells", "50"],
    }
    commands = {names: [cmd[0], "--config", str(cfg), *cmd[1:]]
                for names, cmd in commands.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(rodwave.__file__).parents[1]))
    alone = {}
    for names, argv in commands.items():
        subprocess.run([sys.executable, "-m", "rodwave.cli", *argv], env=env, check=True,
                       capture_output=True)
        for name in names:
            path = tmp_path / "out" / name
            alone[name] = path.read_bytes()
            path.unlink()
    for _ in range(2):  # the second round reuses the parser of the first
        for argv in commands.values():
            assert main(argv) == 0
        for name, data in alone.items():
            assert (tmp_path / "out" / name).read_bytes() == data, name
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "sweep, line",
    [
        ({"f_start_hz": 1e8, "f_stop_hz": 1.4e8, "points": 50}, "0 of 50 sweep points and 0 of 1"),
        ({}, "1984 of 2000 sweep points and 5 of 6"),
    ],
    ids=["below-0.145GHz", "default"],
)
def test_verbose_sweep_counts_where_the_thin_beam_is_strained(tmp_path, capsys, sweep, line):
    # lambda/h_t of the default cell falls to 10 at about 0.145 GHz
    cfg = write_config(tmp_path, {"sweep": sweep, "output": {"dir": str(tmp_path / "out")}})
    assert main(["-v", "sweep", "--config", str(cfg)]) == 0
    logged = [s for s in capsys.readouterr().err.splitlines() if s.startswith("rodwave.workbench:")]
    assert logged == [
        f"rodwave.workbench: thin-beam range strained (lambda/h_t < 10) at {line} bands (by center)"
    ]


def test_quiet_sweep_does_not_count_thin_beam_strain(small_config, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("thin-beam count computed without -v")

    monkeypatch.setattr(rodwave.workbench, "flexural_wavevectors", refuse)
    assert main(["sweep", "--config", str(small_config)]) == 0
    assert "rodwave.workbench" not in capsys.readouterr().err


def _log_uniform(lo_exp, hi_exp):
    """Floats 10**e, e uniform over [lo_exp, hi_exp]."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _increasing(values):
    """Pairs (lo, hi), lo < hi, of two draws of values: equal draws, which
    parse_config refuses as a rod width or a sweep, are drawn again."""
    return st.tuples(values, values).map(sorted).filter(lambda pair: pair[0] < pair[1])


_LENGTH_M = _log_uniform(-9.0, -3.0)  # 1 nm - 1 mm


@st.composite
def _drawn_documents(draw):
    """A config document over the accepted space: every length log-uniform
    over 1 nm-1 mm (the rod width the smaller and the pitch the larger of two
    draws), moduli over 1e6-1e14 Pa and densities over 1-1e5 kg/m^3, both
    log-uniform, the sweep bounds log-uniform over 1 mHz-1e12 Hz, at most 200
    points and a geometry sweep of at most 5 steps."""
    a, L = draw(_increasing(_LENGTH_M))
    geometry = {"a_m": a, "L_m": L}
    geometry.update({f"{base}_m": draw(_LENGTH_M) for base in GEOM_PARAMETERS[2:]})
    materials = {
        name: {"youngs_modulus_pa": draw(_log_uniform(6.0, 14.0)),
               "density_kg_m3": draw(_log_uniform(0.0, 5.0))}
        for name in ("AlN", "Al", "Pt")
    }
    f_start, f_stop = draw(_increasing(_log_uniform(-3.0, 12.0)))
    return {
        "materials": materials,
        "geometry": geometry,
        "sweep": {"f_start_hz": f_start, "f_stop_hz": f_stop,
                  "points": draw(st.integers(2, 200))},
        "geometry_sweep": {"parameter": draw(st.sampled_from(GEOM_PARAMETERS)),
                           "from_m": draw(_LENGTH_M), "to_m": draw(_LENGTH_M),
                           "steps": draw(st.integers(1, 5))},
    }


_OUTPUTS = {"sweep": ("sweep.csv", "stopbands.csv"), "geom-sweep": ("geomsweep.csv",)}
# what an exit-2 or exit-3 message names: a JSON key, a frequency or a geometry step
_NAMED = re.compile(
    r"\b(?:materials|geometry|sweep|geometry_sweep|output)\.\w|\bf=\S|geometry step \w+="
)


@settings(max_examples=30, deadline=None)
@given(doc=_drawn_documents())
def test_every_accepted_config_writes_finite_csvs_or_exits_with_one_named_line(doc):
    """The CLI contract over drawn configs: each one that parse_config accepts
    runs `sweep` and `geom-sweep` in process, with warnings as errors, and
    each run, in under 10 s, either exits 0 with finite CSVs and nothing on
    stderr, or exits 2 or 3 with one line, `config error: ...` or `numeric
    failure: ...`, that names the key, the frequency (f=) or the geometry
    step, and no traceback."""
    try:
        parse_config(doc)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(dict(doc, output={"dir": str(out)})))
        for command, names in _OUTPUTS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg)])
            elapsed = time.perf_counter() - start
            err = stderr.getvalue()
            assert elapsed < 10.0, (command, elapsed)
            if code == 0:
                assert err == "", (command, err)
                for name in names:
                    _, _, rows = read_csv(out / name)
                    assert all(math.isfinite(float(x)) for row in rows for x in row), name
                continue
            prefix = {2: "config error: ", 3: "numeric failure: "}.get(code)
            assert prefix and err.startswith(prefix), (command, code, err)
            assert err.count("\n") == 1 and err.endswith("\n"), (command, err)
            assert _NAMED.search(err), (command, err)
