"""The argument rules of the public calls, read from their signatures.

Every parameter of a call in rodwave.__all__, or of bloch.sweep_cells or
bloch.band_gamma_extrema, that is a frequency, a frequency bound, a count or
an amplitude goes through its one check in rodwave.errors (frequency_row,
frequency_bounds, count, finite_number): a bad value is refused under the
call's and the parameter's name, before any evaluation and with no numpy
warning, and a good one is read only as the float the check returns.  The
table is built from inspect.signature, so a new call or parameter is covered
without being listed here, and a call the table cannot fill fails it.
"""

import dataclasses
import fractions
import inspect
import math
import re
import warnings

import numpy as np
import pytest

import rodwave
from rodwave import bloch

_CALLS = [
    *(getattr(rodwave, n) for n in rodwave.__all__ if inspect.isfunction(getattr(rodwave, n))),
    bloch.sweep_cells,
    bloch.band_gamma_extrema,
]
_FREQUENCIES = {"f", "f_start", "f_stop", "f_low", "f_high", "f_max_search"}
_COUNTS = {"points", "n_cells", "x_samples", "z_samples"}
_AMPLITUDES = {"f_amp"}
_BOUNDS = [("f_start", "f_stop"), ("f_low", "f_high")]
_DC = {"driving_impedance", "near_pole"}  # Z_b is defined at f = 0


# a value each number parameter of a checked call accepts
_NUMBERS = {
    "f": 1e9, "f_start": 1e9, "f_stop": 5e9, "f_low": 1e9, "f_high": 2e9, "f_max_search": 6e9,
    "points": 3, "n_cells": 7, "x_samples": 5, "z_samples": 5, "f_amp": 1.0,
}


def _valid(cell) -> dict:
    """A value each parameter of a checked call accepts, on the default cell."""
    return {
        "cell": cell, "cells": [cell], "rod": cell.rod, "trench": cell.trench,
        "amplitudes": np.array([1, 0, 0, 0]), **_NUMBERS,
    }


_PAIRS = [
    (call, name)
    for call in _CALLS
    for name in inspect.signature(call).parameters
    if name in _FREQUENCIES | _COUNTS | _AMPLITUDES
]
_CHECKED = list(dict.fromkeys(call for call, _ in _PAIRS))


def _call(call, cell, **given):
    """call with the given arguments and a valid one for every other parameter
    without a default, under the warning filter that makes a warning an error."""
    valid = _valid(cell)
    kwargs = {
        p.name: given[p.name] if p.name in given else valid[p.name]
        for p in inspect.signature(call).parameters.values()
        if p.name in given or p.default is inspect.Parameter.empty
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(**kwargs)


def _refusals(call, name: str) -> list:
    """(value, error, message) of each bad value of the parameter name of call."""
    c, p = call.__name__, name
    if name in _COUNTS:
        return [
            *((x, TypeError, f"{c}: {p} must be an integer, got {x!r}")
              for x in (True, np.True_, 7.5, 7.0, np.float64(5), "7", None)),
            *((x, ValueError, f"{c}: {p} must be >= 2") for x in (1, 0, -1, np.int64(1))),
        ]
    real = [
        (x, TypeError, f"{c}: {p} must be a real number, got {x!r}")
        for x in (True, np.True_, "1e9", None, 1j)
    ]
    if name in _AMPLITUDES:
        not_finite = (math.inf, -math.inf, math.nan)
        return [*real, *((x, ValueError, f"{c}: {p} must be finite") for x in not_finite)]
    dc = c in _DC
    outside = (math.inf, math.nan, -1e9) if dc else (math.inf, math.nan, -1e9, 0.0)
    return [
        *real,
        *((x, ValueError, f"{c}: {p} must be {'>=' if dc else '>'} 0 and finite") for x in outside),
    ]


_CASES = [(call, name, *case) for call, name in _PAIRS for case in _refusals(call, name)]


def test_the_table_finds_every_kind_of_parameter():
    names = {name for _, name in _PAIRS}
    assert names == _FREQUENCIES | _COUNTS | _AMPLITUDES
    assert {bloch.sweep_cells, bloch.band_gamma_extrema, rodwave.sweep} <= set(_CHECKED)


@pytest.mark.parametrize("call", _CALLS, ids=lambda c: c.__name__)
def test_every_number_parameter_of_a_public_call_is_in_the_table(call):
    """A float or int parameter is a frequency, a bound, a count or an
    amplitude, which the table both fills and refuses: a new number parameter
    cannot slip past its check."""
    numbers = [
        p.name for p in inspect.signature(call).parameters.values()
        if p.annotation in ("float", "int") and p.default is inspect.Parameter.empty
    ]
    assert set(numbers) <= set(_NUMBERS)
    assert {(call, name) for name in numbers} <= set(_PAIRS)


@pytest.mark.parametrize("call", _CHECKED, ids=lambda c: c.__name__)
def test_the_table_fills_every_parameter_of_a_checked_call(call, default_cell):
    """Each call with a checked parameter runs on the table's valid values, so
    a refusal below comes from the one value under test."""
    missing = [
        p.name for p in inspect.signature(call).parameters.values()
        if p.default is inspect.Parameter.empty and p.name not in _valid(default_cell)
    ]
    assert not missing, f"{call.__name__} has parameters the table cannot fill: {missing}"
    _call(call, default_cell)


@pytest.mark.parametrize(
    "call, name, value, error, message",
    _CASES,
    ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v, _, _ in _CASES],
)
def test_a_bad_argument_is_refused_by_name(default_cell, call, name, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _call(call, default_cell, **{name: value})


@pytest.mark.parametrize(
    "call, lo, hi",
    [(c, lo, hi) for c in _CHECKED for lo, hi in _BOUNDS if lo in inspect.signature(c).parameters],
    ids=lambda x: getattr(x, "__name__", x),
)
@pytest.mark.parametrize("swap", [False, True], ids=["equal", "reversed"])
def test_frequency_bounds_must_be_in_order(default_cell, call, lo, hi, swap):
    valid = _valid(default_cell)
    bounds = {lo: valid[hi], hi: valid[lo]} if swap else {lo: valid[lo], hi: valid[lo]}
    text = f"{call.__name__}: need 0 < {lo} < {hi} < inf"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        _call(call, default_cell, **bounds)


def _canonical(result):
    """result as nested tuples that compare equal only when bit for bit equal:
    an array by dtype, shape and bytes, a dataclass field by field, a tuple or
    list element by element, anything else by repr."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(
            (field.name, _canonical(getattr(result, field.name)))
            for field in dataclasses.fields(result)
        )
    if isinstance(result, (tuple, list)):
        return type(result).__name__, tuple(map(_canonical, result))
    return repr(result)


_CONVERSIONS = [np.float32, int, np.int64, fractions.Fraction]
_FREQUENCY_PAIRS = [(call, name) for call, name in _PAIRS if name in _FREQUENCIES]


@pytest.mark.parametrize(
    "call, name, convert",
    [(call, name, convert) for call, name in _FREQUENCY_PAIRS for convert in _CONVERSIONS],
    ids=[f"{c.__name__}-{n}-{t.__name__}" for c, n in _FREQUENCY_PAIRS for t in _CONVERSIONS],
)
def test_a_frequency_is_read_as_the_float_its_check_returns(default_cell, call, name, convert):
    """Every call evaluates, stores and names the float64 of its frequency
    check: the table's value as another real type gives the float call's
    result, bit for bit.  The table's frequencies are whole numbers that
    float32 holds exactly, so only arithmetic in the other type could differ."""
    value = _NUMBERS[name]
    assert float(convert(value)) == value
    expected = _canonical(_call(call, default_cell))
    assert _canonical(_call(call, default_cell, **{name: convert(value)})) == expected
