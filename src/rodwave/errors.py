"""Exception types shared across the package."""


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
    """The NumericError of a closed form that left the floating-point range at
    frequency f, naming f and its kL."""
    return NumericError(
        f"non-finite {what} at f={f!r} Hz (kL = {kl:.1f}): "
        "the closed forms leave the floating-point range at large kL",
        row=row,
    )
