"""Materials and effective properties of stacked beam sections.

All cross-section quantities use a per-unit-out-of-plane-width convention:
the width multiplies forces, areas and impedances identically and cancels in
every dimensionless output, so it is fixed to 1 m throughout.  Area per unit
width is therefore the stack thickness h, and the bending inertia per unit
width is h^3/12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class Material:
    """Isotropic elastic film material."""

    name: str
    youngs_modulus: float  # Pa
    density: float  # kg/m^3

    def __post_init__(self) -> None:
        if not 0 < self.youngs_modulus < math.inf:
            raise ConfigError(f"material {self.name!r}: youngs_modulus must be > 0 and finite")
        if not 0 < self.density < math.inf:
            raise ConfigError(f"material {self.name!r}: density must be > 0 and finite")


@dataclass(frozen=True)
class Layer:
    """One film of a stack."""

    material: Material
    thickness: float  # m

    def __post_init__(self) -> None:
        if not self.thickness > 0:
            raise ConfigError(
                f"layer of {self.material.name!r}: thickness must be > 0"
            )


@dataclass(frozen=True)
class LaminateSection:
    """Thickness-weighted effective properties of a layer stack.

    Attributes:
        effective_E: effective Young's modulus (Pa)
        effective_rho: effective mass density (kg/m^3)
        thickness: total stack thickness h (m)
    """

    effective_E: float
    effective_rho: float
    thickness: float

    @property
    def area_per_width(self) -> float:
        """Cross-section area per unit width, equal to the thickness (m)."""
        return self.thickness

    @property
    def inertia_per_width(self) -> float:
        """Bending moment of inertia per unit width, h^3/12 (m^3)."""
        return self.thickness**3 / 12.0


def effective_properties(layers: Sequence[Layer]) -> LaminateSection:
    """Collapse a layer stack into a LaminateSection via thickness-weighted means.

    sum() of floats is compensated from Python 3.12 on, but over two layers,
    the stacks config builds, it still gives the plainly rounded sum: the
    compensation term is the rounding error of the one addition.
    """
    if not layers:
        raise ConfigError("effective_properties: layer list is empty")
    h = sum(layer.thickness for layer in layers)
    e_eff = sum(layer.material.youngs_modulus * layer.thickness for layer in layers) / h
    rho_eff = sum(layer.material.density * layer.thickness for layer in layers) / h
    return LaminateSection(effective_E=e_eff, effective_rho=rho_eff, thickness=h)


def longitudinal_velocity(section: LaminateSection) -> float:
    """Nondispersive longitudinal phase velocity sqrt(E/rho) of the section (m/s)."""
    return math.sqrt(section.effective_E / section.effective_rho)
