"""Bookkeeping for the correctness checks behind ``failed`` and ``fail_frac``.

Every check belongs to a named class and is counted once per point, per
geometry step, per query or per unit, as the workload defines it.  The
integrity classes (the run completed, its CSVs parse and are finite, tracing
changed nothing) decide ``correct``.  The accuracy classes only count into
``failed``: several of them fail on the current code for the causes listed
below, and a change that fixes one shows as a drop in ``failed``.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

INTEGRITY = ("exit_ok", "csv_finite", "query_error", "trace_transparent", "trace_counts_repeat")

# accuracy classes with failures on the current code, and why
KNOWN_CAUSES = {
    "gamma_in_band": (
        "in-band |Gamma| drifts from 1 in the deepest bands (about 17 Np/cell "
        "and more): the semi-infinite Gamma solve works in the unscaled e^{kL} basis"
    ),
    "gamma_passband": (
        "|Gamma| > 1 in part of a passband on short-L cells: the same Gamma solve "
        "breaks energy conservation there"
    ),
    "chain_slope": (
        "chain_profile magnitudes underflow to 0 in bands deeper than about "
        "3.7 Np/cell on 200 cells, and the slope fit then includes the "
        "clamped 1e-300 boundaries"
    ),
    "pole_in_band": (
        "on short-L cells the rod pole falls in a passband, so no band edge "
        "sits on it"
    ),
    "pole_marker": "no marker where there is no pole band (see pole_in_band)",
    "geom_primary_band": (
        "a single grid point flagged in-band (zero width) is taken as the "
        "primary band on some short-L steps"
    ),
}


class Tally:
    """Checks attempted and failed, per class, in first-seen order."""

    def __init__(self) -> None:
        self.classes: dict[str, list[int]] = {}

    def add(self, name: str, attempted: int, failed: int) -> None:
        entry = self.classes.setdefault(name, [0, 0])
        entry[0] += int(attempted)
        entry[1] += int(failed)

    def check(self, name: str, ok: bool) -> None:
        self.add(name, 1, 0 if ok else 1)

    def check_all(self, name: str, ok: np.ndarray) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.add(name, ok.size, ok.size - int(ok.sum()))

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.classes.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.classes.values())

    @property
    def integrity_failures(self) -> int:
        return sum(f for name, (_, f) in self.classes.items() if name in INTEGRITY)


def read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a rodwave CSV into (comment notes, header, float rows).

    Boolean columns are written as 0/1 and parse as floats.  Raises
    ValueError when a data field is not a number.
    """
    text = path.read_text()
    notes: list[str] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        notes.append(lines[i][1:].strip())
        i += 1
    header = lines[i].split(",")
    body = "\n".join(lines[i + 1 :])
    if not body:
        return notes, header, np.empty((0, len(header)))
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return notes, header, data


def note_value(notes: list[str], key: str) -> str | None:
    """Value of a ``key=value`` comment line, or None when absent."""
    prefix = f"{key}="
    for note in notes:
        if note.startswith(prefix):
            return note[len(prefix):].split(" ", 1)[0]
    return None
