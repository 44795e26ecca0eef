"""rodwave: 1D transfer-matrix analysis of locally resonant rod-on-beam cells."""

__version__ = "0.1.0"

from .bloch import (
    Band,
    BlochPoint,
    ChainProfile,
    StopbandReport,
    Sweep,
    bloch_point,
    chain_profile,
    field_profile,
    semi_infinite_reflection,
    stopband_report,
    sweep,
)
from .cell import (
    CellMatrices,
    ScatterCoeffs,
    UnitCellGeometry,
    cell_matrices,
    forcing_strength,
    scatter_coefficients,
)
from .config import RunConfig, load_config, parse_config, unit_cell
from .errors import ConfigError, NumericError, RodwaveError, SingularFrequencyError
from .materials import (
    Layer,
    LaminateSection,
    Material,
    effective_properties,
    longitudinal_velocity,
)
from .rod import RodModel, driving_impedance, impedance_extrema, near_pole, rod_modeshape
from .trench import TrenchModel, flexural_wavevector, wavelength_over_thickness

__all__ = [
    "__version__",
    "Band",
    "BlochPoint",
    "CellMatrices",
    "ChainProfile",
    "ConfigError",
    "Layer",
    "LaminateSection",
    "Material",
    "NumericError",
    "RodModel",
    "RodwaveError",
    "RunConfig",
    "ScatterCoeffs",
    "SingularFrequencyError",
    "StopbandReport",
    "Sweep",
    "TrenchModel",
    "UnitCellGeometry",
    "bloch_point",
    "cell_matrices",
    "chain_profile",
    "driving_impedance",
    "effective_properties",
    "field_profile",
    "flexural_wavevector",
    "forcing_strength",
    "impedance_extrema",
    "load_config",
    "longitudinal_velocity",
    "near_pole",
    "parse_config",
    "rod_modeshape",
    "scatter_coefficients",
    "semi_infinite_reflection",
    "stopband_report",
    "sweep",
    "unit_cell",
    "wavelength_over_thickness",
]
