"""Per-layer tracing from outside the package.

The benchmark never edits ``src/rodwave``.  Instead it replaces the
cross-module names that callers resolve at call time (for example
``rodwave.bloch.cell_matrices`` or ``numpy.linalg.eig``) with timing
wrappers, and puts the originals back afterwards.  Because every rodwave
module looks its collaborators up as module globals, one wrapper per
function object catches intra-module calls too (``bloch.sweep`` ->
``bloch.bloch_point``).

Spans are aggregated in memory by (name, parent) edge: calls, inclusive
seconds and self seconds, where self time is a span's duration minus the
durations of its traced children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> (module, attribute).  The prefix names the layer the
# function belongs to; numpy.linalg is traced because its eig/solve/det/inv
# calls are where the Gamma solve and the reciprocity guard spend time.
TRACED = {
    "config.load_config": ("rodwave.config", "load_config"),
    "config.unit_cell": ("rodwave.config", "unit_cell"),
    "materials.effective_properties": ("rodwave.materials", "effective_properties"),
    "rod.driving_impedance": ("rodwave.rod", "driving_impedance"),
    "rod.near_pole": ("rodwave.rod", "near_pole"),
    "trench.flexural_wavevector": ("rodwave.trench", "flexural_wavevector"),
    "cell.forcing_strength": ("rodwave.cell", "forcing_strength"),
    "cell.cell_matrices": ("rodwave.cell", "cell_matrices"),
    "bloch.sweep": ("rodwave.bloch", "sweep"),
    "bloch.bloch_point": ("rodwave.bloch", "bloch_point"),
    "bloch.stopband_report": ("rodwave.bloch", "stopband_report"),
    "bloch.band_gamma_extrema": ("rodwave.bloch", "band_gamma_extrema"),
    "bloch.semi_infinite_reflection": ("rodwave.bloch", "semi_infinite_reflection"),
    "bloch.chain_profile": ("rodwave.bloch", "chain_profile"),
    "workbench.run_frequency_sweep": ("rodwave.workbench", "run_frequency_sweep"),
    "workbench.run_geometry_sweep": ("rodwave.workbench", "run_geometry_sweep"),
    "workbench.run_impedance": ("rodwave.workbench", "run_impedance"),
    "cli.main": ("rodwave.cli", "main"),
    "numpy.linalg.eig": ("numpy.linalg", "eig"),
    "numpy.linalg.solve": ("numpy.linalg", "solve"),
    "numpy.linalg.det": ("numpy.linalg", "det"),
    "numpy.linalg.inv": ("numpy.linalg", "inv"),
}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj: object, attr: str, value: object) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Aggregated span statistics for one traced unit of work."""

    def __init__(self) -> None:
        # (name, parent name or None) -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []  # [name, seconds covered by children]

    def wrap(self, name: str, fn):
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                st = edges[(name, parent[0] if parent else None)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]

        return traced

    def install(self, patches: Patches) -> None:
        """Replace every binding of each traced function with its wrapper."""
        rodwave_modules = [
            mod for key, mod in sys.modules.items()
            if key == "rodwave" or key.startswith("rodwave.")
        ]
        for name, (modname, attr) in TRACED.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, orig)
            # numpy is patched only on its public namespace, so numpy's own
            # internal calls stay untraced
            owners = [sys.modules[modname]] if modname == "numpy.linalg" else rodwave_modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.set(mod, key, wrapper)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per-name (calls, inclusive s, self s), summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), (calls, s, self_s) in self.edges.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += s
            acc[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of `name` whose nearest traced caller is `parent`."""
        return self.edges.get((name, parent), [0])[0]
