"""The names and results that the benchmark in perfbench/ reads from the package.

perfbench traces functions by (module, attribute), calls package functions,
sizes some checks with package constants and checks the rows of the sweep
that ``run_frequency_sweep`` returns; a rename or deletion here would break
the benchmark without failing any other test.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import rodwave
from rodwave import bloch, parse_config
from rodwave.rod import _impedance_arrays, _past_top
from rodwave.workbench import run_frequency_sweep

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for name, (module, attribute) in traced.items():
        assert callable(getattr(importlib.import_module(module), attribute)), name


@pytest.mark.parametrize(
    "module, name",
    [("rodwave.bloch", "EDGE_REFINE_HZ"), ("rodwave.rod", "NEAR_POLE_WINDOW_FRACTION")],
)
def test_constants_read_by_the_checks_resolve(module, name):
    # the sweep-default pole check and the impedance-spectrum near-pole check
    # size their frequency windows with these
    value = getattr(importlib.import_module(module), name)
    assert isinstance(value, float) and math.isfinite(value) and value > 0


@pytest.mark.parametrize(
    "name",
    ["impedance_extrema", "load_config", "parse_config", "unit_cell", "bloch_point",
     "semi_infinite_reflection", "chain_profile"],
)
def test_package_functions_called_by_the_workloads_resolve(name):
    assert callable(getattr(rodwave, name))


def test_cli_names_resolve():
    cli = importlib.import_module("rodwave.cli")
    assert callable(cli.main)
    # sweep-default wraps the CLI's binding to keep the run's result
    assert callable(cli.run_frequency_sweep)


def test_sweep_result_rows_can_be_read_twice(tmp_path):
    config = parse_config(
        {"sweep": {"f_start_hz": 1.4e9, "f_stop_hz": 3.2e9, "points": 50},
         "output": {"dir": str(tmp_path)}}
    )
    points = run_frequency_sweep(config)["points"]
    eigenvalues = [p.eigenvalues for p in points]
    lambda_flex = [p.lambda_flex for p in points]
    assert len(eigenvalues) == len(lambda_flex) == 50
    assert all(len(ev) == 4 for ev in eigenvalues)
    assert all(isinstance(lam, complex) for lam in lambda_flex)


@pytest.mark.parametrize("f, in_stopband", [(2.3e9, True), (2.9e9, False)])
def test_bloch_point_without_gamma_keeps_the_bloch_fields(f, in_stopband):
    # the point-queries check reads bloch_point(cell, f, with_gamma=False).in_stopband
    cell = rodwave.unit_cell(parse_config({}))
    full = rodwave.bloch_point(cell, f)
    bare = rodwave.bloch_point(cell, f, with_gamma=False)
    assert bare.in_stopband == full.in_stopband == in_stopband
    assert bare.t_coeff == full.t_coeff
    assert bare.eigenvalues == full.eigenvalues
    assert bare.gamma == 0


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(_SPANS.parent))
    return importlib.import_module("workloads")


def test_workload_windows_run_on_the_nominal_cell(workloads):
    # the rod kernel refuses f past the rod's top frequency (2^46 Hz on the
    # nominal rod); the workloads' windows, 0.1-6 GHz (sweep-default,
    # point-queries, impedance-spectrum from 0 Hz) and 1.4-3.2 GHz (geom-sweep),
    # sit about 10^4 times below it, so the refusal adds no failed operations
    geo = {f"{name}_nm": t for name, t in workloads.NOMINAL_NM.items()} | {"a_um": 2.0, "L_um": 3.8}
    cell = rodwave.unit_cell(parse_config({"materials": workloads.MATERIALS, "geometry": geo}))
    f_stop = workloads.ImpedanceSpectrum.F_STOP
    assert not _past_top(cell.rod, 1e4 * f_stop) and _past_top(cell.rod, 2.0**46)
    kinds = [kind for _, kind in rodwave.impedance_extrema(cell.rod, f_stop)]
    assert kinds == ["pole", "zero"]
    rodwave.sweep(cell, 0.1e9, f_stop, 50)
    bloch.sweep_cells([cell], workloads.GeomSweep.F_START, workloads.GeomSweep.F_STOP, 50)
    for f in (0.1e9, f_stop):
        rodwave.bloch_point(cell, f)
        rodwave.semi_infinite_reflection(cell, f)
        rodwave.chain_profile(cell, f, 200)
    _impedance_arrays(cell.rod, np.linspace(0.0, f_stop, 50))  # rodwave impedance's kernel
