"""JSON run configuration: schema, defaults, validation, cell construction.

The config is a single JSON document.  Unknown keys are rejected with the
offending JSON path.  Lengths are given with an explicit unit suffix
(``_nm``, ``_um`` or ``_m``); frequencies are plain Hz.  Any omitted entry is
filled from the default of its field on the section's dataclass below (the
materials from DEFAULT_MATERIALS) and the substitution is logged.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, fields
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

_UNIT_SCALE = {"nm": 1e-9, "um": 1e-6, "m": 1.0}


@dataclass(frozen=True)
class GeometryConfig:
    # fabricated-device layer stack; rod pitch chosen so that the principal
    # stopband brackets the rod quarter-wave frequency
    a: float = 2.0e-6
    L: float = 3.8e-6
    t_aln1: float = 400e-9
    t_aln2: float = 600e-9
    t_m1: float = 250e-9
    t_m2: float = 330e-9


GEOM_PARAMETERS = tuple(field.name for field in fields(GeometryConfig))


@dataclass(frozen=True)
class SweepConfig:
    f_start: float = 0.1e9
    f_stop: float = 6.0e9
    points: int = 2000


@dataclass(frozen=True)
class GeomSweepConfig:
    parameter: str
    start: float
    stop: float
    steps: int = 11


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    plot: bool = False


@dataclass(frozen=True)
class RunConfig:
    materials: dict[str, Material]
    geometry: GeometryConfig
    sweep: SweepConfig
    geometry_sweep: GeomSweepConfig | None
    output: OutputConfig


# field -> JSON key of each flat section, for its allowed keys, reads and canonical_document
_SWEEP_KEYS = {"f_start": "f_start_hz", "f_stop": "f_stop_hz", "points": "points"}
_OUTPUT_KEYS = {"directory": "dir", "plot": "plot"}
_MATERIAL_KEYS = {"youngs_modulus": "youngs_modulus_pa", "density": "density_kg_m3"}


def _section(obj, allowed, path: str) -> dict:
    """obj as a section, {} where it is absent (None); a ConfigError naming path
    where it is not an object or holds a key outside allowed."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key!r}")
    return obj


def _entry(obj: dict, key: str, default, path: str):
    """obj[key], or default, logged under its JSON path, where the key is absent."""
    if key not in obj:
        log.info("config default: %s.%s = %r", path, key, default)
    return obj.get(key, default)


def _read_number(obj: dict, key: str, default, path: str) -> float:
    """obj[key] (default if absent) as a finite float, or an int where the default is
    one; anything else, bools and strings included, is a ConfigError naming path.key."""
    raw = _entry(obj, key, default, path)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json reads Infinity, NaN and 1e400
        raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    integral = isinstance(default, int)
    if integral and not value.is_integer():
        raise ConfigError(f"{path}.{key}: expected an integer, got {raw!r}")
    return int(raw) if integral else value


def _read_keys(obj: dict, keys: dict[str, str], defaults, path: str, read=_read_number) -> dict:
    """{field: read(obj, key, default, path)} over a key table, each default that
    field of defaults."""
    return {field: read(obj, key, getattr(defaults, field), path) for field, key in keys.items()}


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


def _length_keys(*bases: str) -> set[str]:
    return {f"{base}_{suffix}" for base in bases for suffix in _UNIT_SCALE}


def _parse_materials(obj: dict | None) -> dict[str, Material]:
    """The stack's three materials, each constant overridable; any other name is refused."""
    obj = _section(obj, DEFAULT_MATERIALS, "materials")
    materials = dict.fromkeys(DEFAULT_MATERIALS)
    for name in dict.fromkeys([*obj, *materials]):  # the document's order first
        path = f"materials.{name}"
        if name in obj and obj[name] is None:  # a null section is absent; a null entry is not
            raise ConfigError(f"{path}: expected an object")
        entry = _section(obj.get(name), _MATERIAL_KEYS.values(), path)
        values = _read_keys(entry, _MATERIAL_KEYS, DEFAULT_MATERIALS[name], path)
        for field, key in _MATERIAL_KEYS.items():
            if not values[field] > 0:
                raise ConfigError(f"{path}.{key}: must be positive")
        materials[name] = Material(name, **values)
    return materials


def _parse_geometry(obj: dict | None) -> GeometryConfig:
    obj = _section(obj, _length_keys(*GEOM_PARAMETERS), "geometry")
    geo = GeometryConfig(
        *(_read_length(obj, fd.name, fd.default, "geometry") for fd in fields(GeometryConfig))
    )
    if not geo.a < geo.L:
        raise ConfigError(
            f"geometry: rod width a ({geo.a} m) must be smaller than cell length L ({geo.L} m)"
        )
    return geo


def _parse_sweep(obj: dict | None) -> SweepConfig:
    obj = _section(obj, _SWEEP_KEYS.values(), "sweep")
    config = SweepConfig(**_read_keys(obj, _SWEEP_KEYS, SweepConfig, "sweep"))
    if not 0 < config.f_start < config.f_stop:
        raise ConfigError("sweep: need 0 < f_start_hz < f_stop_hz")
    if config.points < 2:
        raise ConfigError("sweep.points: must be >= 2")
    return config


def _parse_geom_sweep(obj: dict | None) -> GeomSweepConfig | None:
    if obj is None:
        return None
    obj = _section(obj, {"parameter", "steps", *_length_keys("from", "to")}, "geometry_sweep")
    parameter = obj.get("parameter")
    if parameter not in GEOM_PARAMETERS:
        raise ConfigError(
            f"geometry_sweep.parameter: must be one of {GEOM_PARAMETERS}, got {parameter!r}"
        )
    start = _read_length(obj, "from", None, "geometry_sweep")
    stop = _read_length(obj, "to", None, "geometry_sweep")
    steps = _read_number(obj, "steps", GeomSweepConfig.steps, "geometry_sweep")
    if steps < 1:
        raise ConfigError("geometry_sweep.steps: must be >= 1")
    return GeomSweepConfig(parameter=parameter, start=start, stop=stop, steps=steps)


def _parse_output(obj: dict | None) -> OutputConfig:
    obj = _section(obj, _OUTPUT_KEYS.values(), "output")
    directory, plot = _read_keys(obj, _OUTPUT_KEYS, OutputConfig, "output", _entry).values()
    if not isinstance(directory, str):
        raise ConfigError("output.dir: expected a string path")
    try:
        if b"\0" in os.fsencode(directory):  # no file system path holds one
            raise ConfigError("output.dir: must not contain a NUL character")
    except UnicodeEncodeError as exc:  # a lone surrogate, as JSON's "\ud800"
        raise ConfigError(f"output.dir: not a file system path: {exc.reason}") from exc
    if not isinstance(plot, bool):
        raise ConfigError("output.plot: expected a boolean")
    return OutputConfig(directory=directory, plot=plot)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _section(doc, {field.name for field in fields(RunConfig)}, "config")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
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


def _keyed(section, keys: dict[str, str]) -> dict:
    """{JSON key: value} of a section's fields through its key table."""
    return {key: getattr(section, name) for name, key in keys.items()}


def canonical_document(config: RunConfig) -> dict:
    """Fully resolved config as a plain dict (units: m, Hz)."""
    doc: dict = {
        "materials": {
            name: _keyed(mat, _MATERIAL_KEYS) for name, mat in sorted(config.materials.items())
        },
        "geometry": {f"{base}_m": getattr(config.geometry, base) for base in GEOM_PARAMETERS},
        "sweep": _keyed(config.sweep, _SWEEP_KEYS),
        "output": _keyed(config.output, _OUTPUT_KEYS),
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
