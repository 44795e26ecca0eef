"""Exception types shared across the package, the one-point frequency check and
the read-only numeric operands and tables the array formulas share."""

import numbers

import numpy as np


class RodwaveError(Exception):
    """Base class for all rodwave errors."""


class ConfigError(RodwaveError):
    """Invalid configuration input (bad JSON, unknown keys, violated invariants)."""


class SingularFrequencyError(RodwaveError):
    """Requested evaluation exactly at a resonance pole where the model diverges."""


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


def frequency_row(f: float, caller: str, *, dc: bool = False) -> np.ndarray:
    """f as the one-element float array the array forms take.  Before any
    evaluation, an error naming the caller: a TypeError unless f is a real
    number (a bool is not one), a ValueError unless 0 < f < inf (0 <= f < inf
    with dc)."""
    if isinstance(f, bool) or not isinstance(f, numbers.Real):
        raise TypeError(f"{caller}: f must be a real number, got {f!r}")
    if not (0 <= f < np.inf if dc else 0 < f < np.inf):
        raise ValueError(f"{caller}: f must be {'>=' if dc else '>'} 0 and finite")
    return np.array([float(f)])


def constant(value, dtype=None) -> np.ndarray:
    """value as a read-only array, of dtype or the one numpy infers, and not
    copied if it is one already: a table the package shares, or a 0-d ufunc
    operand, since numpy converts a Python number on every call (NEP 50) and a
    0-d array of the other operand's dtype gives the same bits."""
    a = np.asarray(value, dtype)
    a.flags.writeable = False
    return a


ZERO, ONE, TWO, THREE, FOUR, TWO_PI = map(constant, (0.0, 1.0, 2.0, 3.0, 4.0, 2.0 * np.pi))
