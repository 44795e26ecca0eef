"""Exception types shared across the package, the one check of each kind of
argument (a frequency, a frequency range, a count, an amplitude), the
immutable numeric operands and tables the formulas share, and the libm maps
and mask counts that take a numpy scalar as they take an array."""

import math
import numbers

import numpy as np


class RodwaveError(Exception):
    """Base class for all rodwave errors."""


class ConfigError(RodwaveError):
    """Invalid configuration input (bad JSON, unknown keys, violated invariants)."""


class SingularFrequencyError(RodwaveError):
    """Requested evaluation at a frequency where the model diverges (rod_modeshape
    near a zero of Z_b)."""


class NumericError(RodwaveError):
    """A numerical invariant (reciprocity, finiteness) was violated beyond tolerance."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row  # the failing entry of an array evaluation, where there is one


def non_finite_error(what: str, f: float, kl: float, row: int | None = None) -> NumericError:
    """The NumericError of a closed form that failed at frequency f, naming f, its
    kL and the end of the working kL range that kL lies past: at small kL the
    Bloch factors round together, at large kL the closed forms overflow."""
    if kl < 1:
        cause = "lose all precision at small kL"
    else:
        cause = "leave the floating-point range at large kL"
    shown = f"{kl:.1f}" if 0.1 <= kl < 1e6 else f"{kl:.3g}"
    return NumericError(
        f"non-finite {what} at f={f!r} Hz (kL = {shown}): the closed forms {cause}", row=row
    )


def frequency_row(f: float, caller: str, name: str = "f", *, dc: bool = False) -> np.float64:
    """f as the numpy float64 scalar a one-point call hands the array formulas,
    which then run numpy's scalar math: the front and the Bloch stage take a
    scalar as they take a 1-D array.  The one check of a frequency argument,
    before any evaluation, with an error naming the caller and the argument: a
    TypeError unless f is a real number (a bool is not one, nor a numeric
    string), a ValueError unless 0 < f < inf (0 <= f < inf with dc)."""
    f = _real(f, caller, name)
    if not (0 <= f < math.inf if dc else 0 < f < math.inf):
        raise ValueError(f"{caller}: {name} must be {'>=' if dc else '>'} 0 and finite")
    return np.float64(f)


def _real(x, caller: str, name: str) -> float:
    """x as a float: a TypeError naming the caller and the argument unless x is
    a real number (a bool is not one, nor a numeric string)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{caller}: {name} must be a real number, got {x!r}")
    return float(x)


def finite_number(x, caller: str, name: str) -> float:
    """x as a float, the one check of an amplitude: frequency_row's TypeError
    unless a real number, a ValueError naming the caller and the argument
    unless finite."""
    x = _real(x, caller, name)
    if not math.isfinite(x):
        raise ValueError(f"{caller}: {name} must be finite")
    return x


def frequency_bounds(lo, hi, caller: str, names: tuple[str, str]) -> tuple[np.float64, np.float64]:
    """The bounds (lo, hi) of a frequency range, each through frequency_row
    under its name, then a ValueError naming the caller unless lo < hi."""
    lo, hi = (frequency_row(x, caller, name) for x, name in zip((lo, hi), names))
    if not lo < hi:
        raise ValueError(f"{caller}: need 0 < {names[0]} < {names[1]} < inf")
    return lo, hi


def count(n, caller: str, name: str) -> int:
    """n as an int, a count of points or cells: _integer's TypeError unless n
    is an integer, a ValueError naming the caller and the argument below 2."""
    n = _integer(n, caller, name)
    if n < 2:
        raise ValueError(f"{caller}: {name} must be >= 2")
    return n


def _integer(n, caller: str, name: str) -> int:
    """n as an int: a TypeError naming the caller and the argument unless n is
    an integer (a bool is not one, nor a whole float)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise TypeError(f"{caller}: {name} must be an integer, got {n!r}")
    return int(n)


def constant(value, dtype=None):
    """value as an immutable numpy operand, of dtype or the one numpy infers: a
    number as a numpy scalar, a table as a read-only array (not copied if it is
    one already).  numpy converts a Python-number ufunc operand on every call
    (NEP 50), and a scalar of the other operand's dtype gives the same bits."""
    a = np.asarray(value, dtype)
    if a.ndim == 0:
        return a[()]
    a.flags.writeable = False
    return a


def libm(func, x):
    """func, a function of the math module, over a 1-D float array or a numpy
    scalar x, as the same: libm's value, where numpy's own ufunc may differ from
    it in the last bit on some hosts."""
    if x.ndim == 0:
        return np.float64(func(x))
    return np.fromiter(map(func, x.tolist()), float, x.size)


def count_true(mask) -> int:
    """np.count_nonzero of a boolean array or numpy bool mask, the latter
    without the conversion to an array (about 1 us) np.count_nonzero makes."""
    return int(mask) if mask.ndim == 0 else np.count_nonzero(mask)


ZERO, ONE, TWO, THREE, FOUR, TWO_PI = map(constant, (0.0, 1.0, 2.0, 3.0, 4.0, 2.0 * np.pi))
