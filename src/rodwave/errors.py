"""Exception types shared across the package, and the one-point frequency check."""

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
    """f as the one-element float array the array forms take; a ValueError naming
    the caller, before any evaluation, unless 0 < f < inf (0 <= f < inf with dc)."""
    if not (0 <= f < np.inf if dc else 0 < f < np.inf):
        raise ValueError(f"{caller}: f must be {'>=' if dc else '>'} 0 and finite")
    return np.array([float(f)])
