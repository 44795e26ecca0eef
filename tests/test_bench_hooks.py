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

import pytest

import rodwave
from rodwave import parse_config
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
