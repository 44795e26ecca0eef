"""JSON run configuration: schema, defaults, validation, cell construction.

The config is a single JSON document.  Unknown keys are rejected with the
offending JSON path.  Lengths are given with an explicit unit suffix
(``_nm``, ``_um`` or ``_m``); frequencies are plain Hz.  Any omitted entry is
filled from the documented defaults below and the substitution is logged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .cell import UnitCellGeometry
from .errors import ConfigError
from .materials import LaminateSection, Layer, Material, effective_properties
from .rod import RodModel
from .trench import TrenchModel

log = logging.getLogger("rodwave.config")

# handbook constants for sputtered films; overridable through the config
DEFAULT_MATERIALS = {
    "AlN": Material("AlN", youngs_modulus=345e9, density=3260.0),
    "Al": Material("Al", youngs_modulus=70e9, density=2700.0),
    "Pt": Material("Pt", youngs_modulus=168e9, density=21450.0),
}

# fabricated-device layer stack; rod pitch chosen so that the principal
# stopband brackets the rod quarter-wave frequency
DEFAULT_GEOMETRY = {
    "t_aln1": 400e-9,
    "t_aln2": 600e-9,
    "t_m1": 250e-9,
    "t_m2": 330e-9,
    "a": 2.0e-6,
    "L": 3.8e-6,
}

DEFAULT_SWEEP = {"f_start": 0.1e9, "f_stop": 6.0e9, "points": 2000}

GEOM_PARAMETERS = ("a", "L", "t_aln1", "t_aln2", "t_m1", "t_m2")

_UNIT_SCALE = {"nm": 1e-9, "um": 1e-6, "m": 1.0}


@dataclass(frozen=True)
class GeometryConfig:
    t_aln1: float
    t_aln2: float
    t_m1: float
    t_m2: float
    a: float
    L: float


@dataclass(frozen=True)
class SweepConfig:
    f_start: float
    f_stop: float
    points: int


@dataclass(frozen=True)
class GeomSweepConfig:
    parameter: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    plot: bool


@dataclass(frozen=True)
class RunConfig:
    materials: dict[str, Material]
    geometry: GeometryConfig
    sweep: SweepConfig
    geometry_sweep: GeomSweepConfig | None
    output: OutputConfig


def _reject_unknown(obj, allowed: set[str], path: str) -> None:
    """Refuse a value at path that is not an object, or holds a key outside allowed."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key!r}")


def _read_number(obj: dict, key: str, default, path: str, integral: bool = False) -> float:
    """obj[key] (default if absent) as a finite float, or an int where integral;
    anything else, bools and strings included, is a ConfigError naming path.key."""
    raw = obj.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json reads Infinity, NaN and 1e400
        raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    if integral and not value.is_integer():
        raise ConfigError(f"{path}.{key}: expected an integer, got {raw!r}")
    return int(raw) if integral else value


def _read_length(obj: dict, base: str, default: float | None, path: str) -> float:
    """Read a length given as <base>_nm / <base>_um / <base>_m; a default of
    None makes it required."""
    found = [suffix for suffix in _UNIT_SCALE if f"{base}_{suffix}" in obj]
    if len(found) > 1:
        raise ConfigError(f"{path}: give {base!r} in exactly one unit, got {found}")
    if not found:
        if default is None:
            raise ConfigError(f"{path}: {base}_nm, {base}_um or {base}_m is required")
        log.info("config default: %s.%s = %g m", path, base, default)
        return default
    key = f"{base}_{found[0]}"
    value = _read_number(obj, key, None, path) * _UNIT_SCALE[found[0]]
    if not value > 0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return value


def _length_keys(base: str) -> set[str]:
    return {f"{base}_{suffix}" for suffix in _UNIT_SCALE}


def _parse_materials(obj: dict | None) -> dict[str, Material]:
    """The stack's three materials, each constant overridable; any other name is refused."""
    materials = dict(DEFAULT_MATERIALS)
    if obj is None:
        log.info("config default: materials = built-in AlN/Al/Pt constants")
        return materials
    _reject_unknown(obj, set(DEFAULT_MATERIALS), "materials")
    for name, entry in obj.items():
        _reject_unknown(entry, {"youngs_modulus_pa", "density_kg_m3"}, f"materials.{name}")
        base = materials[name]
        e = _read_number(entry, "youngs_modulus_pa", base.youngs_modulus, f"materials.{name}")
        rho = _read_number(entry, "density_kg_m3", base.density, f"materials.{name}")
        for key, value in (("youngs_modulus_pa", e), ("density_kg_m3", rho)):
            if not value > 0:
                raise ConfigError(f"materials.{name}.{key}: must be positive")
        materials[name] = Material(name, youngs_modulus=e, density=rho)
    return materials


def _parse_geometry(obj: dict | None) -> GeometryConfig:
    if obj is None:
        obj = {}
        log.info("config default: geometry = fabricated-device stack")
    allowed: set[str] = set()
    for base in GEOM_PARAMETERS:
        allowed |= _length_keys(base)
    _reject_unknown(obj, allowed, "geometry")
    values = {
        base: _read_length(obj, base, DEFAULT_GEOMETRY[base], "geometry")
        for base in GEOM_PARAMETERS
    }
    geo = GeometryConfig(**values)
    if not geo.a < geo.L:
        raise ConfigError(
            f"geometry: rod width a ({geo.a} m) must be smaller than cell length L ({geo.L} m)"
        )
    return geo


def _parse_sweep(obj: dict | None) -> SweepConfig:
    if obj is None:
        obj = {}
        log.info("config default: sweep = 0.1-6 GHz, 2000 points")
    _reject_unknown(obj, {"f_start_hz", "f_stop_hz", "points"}, "sweep")
    f_start = _read_number(obj, "f_start_hz", DEFAULT_SWEEP["f_start"], "sweep")
    f_stop = _read_number(obj, "f_stop_hz", DEFAULT_SWEEP["f_stop"], "sweep")
    points = _read_number(obj, "points", DEFAULT_SWEEP["points"], "sweep", integral=True)
    if not 0 < f_start < f_stop:
        raise ConfigError("sweep: need 0 < f_start_hz < f_stop_hz")
    if points < 2:
        raise ConfigError("sweep.points: must be >= 2")
    return SweepConfig(f_start=f_start, f_stop=f_stop, points=points)


def _parse_geom_sweep(obj: dict | None) -> GeomSweepConfig | None:
    if obj is None:
        return None
    allowed = {"parameter", "steps"} | _length_keys("from") | _length_keys("to")
    _reject_unknown(obj, allowed, "geometry_sweep")
    parameter = obj.get("parameter")
    if parameter not in GEOM_PARAMETERS:
        raise ConfigError(
            f"geometry_sweep.parameter: must be one of {GEOM_PARAMETERS}, got {parameter!r}"
        )
    start = _read_length(obj, "from", None, "geometry_sweep")
    stop = _read_length(obj, "to", None, "geometry_sweep")
    steps = _read_number(obj, "steps", 11, "geometry_sweep", integral=True)
    if steps < 1:
        raise ConfigError("geometry_sweep.steps: must be >= 1")
    return GeomSweepConfig(parameter=parameter, start=start, stop=stop, steps=steps)


def _parse_output(obj: dict | None) -> OutputConfig:
    if obj is None:
        obj = {}
        log.info("config default: output = current directory, no plots")
    _reject_unknown(obj, {"dir", "plot"}, "output")
    directory = obj.get("dir", ".")
    if not isinstance(directory, str):
        raise ConfigError("output.dir: expected a string path")
    plot = obj.get("plot", False)
    if not isinstance(plot, bool):
        raise ConfigError("output.plot: expected a boolean")
    return OutputConfig(directory=directory, plot=plot)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _reject_unknown(
        doc, {"materials", "geometry", "sweep", "geometry_sweep", "output"}, "config"
    )
    return RunConfig(
        geometry=_parse_geometry(doc.get("geometry")),
        materials=_parse_materials(doc.get("materials")),
        sweep=_parse_sweep(doc.get("sweep")),
        geometry_sweep=_parse_geom_sweep(doc.get("geometry_sweep")),
        output=_parse_output(doc.get("output")),
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _aln_stack(config: RunConfig, t_aln: float, metal: str, t_metal: float) -> LaminateSection:
    """The section of an AlN film of thickness t_aln over a metal film of thickness t_metal."""
    mats = config.materials
    return effective_properties([Layer(mats["AlN"], t_aln), Layer(mats[metal], t_metal)])


def unit_cell(config: RunConfig, geometry: GeometryConfig | None = None) -> UnitCellGeometry:
    """The unit cell of a geometry, by default the config's."""
    geo = geometry or config.geometry
    return UnitCellGeometry(
        rod_width=geo.a,
        cell_length=geo.L,
        trench=TrenchModel(_aln_stack(config, geo.t_aln1, "Pt", geo.t_m1)),
        rod=RodModel(_aln_stack(config, geo.t_aln2, "Al", geo.t_m2)),
    )


def canonical_document(config: RunConfig) -> dict:
    """Fully resolved config as a plain dict (units: m, Hz)."""
    doc: dict = {
        "materials": {
            name: {
                "youngs_modulus_pa": mat.youngs_modulus,
                "density_kg_m3": mat.density,
            }
            for name, mat in sorted(config.materials.items())
        },
        "geometry": {
            f"{base}_m": getattr(config.geometry, base) for base in GEOM_PARAMETERS
        },
        "sweep": {
            "f_start_hz": config.sweep.f_start,
            "f_stop_hz": config.sweep.f_stop,
            "points": config.sweep.points,
        },
        "output": {"dir": config.output.directory, "plot": config.output.plot},
    }
    if config.geometry_sweep is not None:
        doc["geometry_sweep"] = {
            "parameter": config.geometry_sweep.parameter,
            "from_m": config.geometry_sweep.start,
            "to_m": config.geometry_sweep.stop,
            "steps": config.geometry_sweep.steps,
        }
    return doc


def config_hash(config: RunConfig) -> str:
    """Deterministic short hash of the resolved configuration."""
    blob = json.dumps(canonical_document(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
