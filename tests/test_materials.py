import math

import numpy as np
import pytest

from rodwave import (
    ConfigError,
    Layer,
    Material,
    effective_properties,
    longitudinal_velocity,
)

ALN = Material("AlN", youngs_modulus=345e9, density=3260.0)
AL = Material("Al", youngs_modulus=70e9, density=2700.0)
PT = Material("Pt", youngs_modulus=168e9, density=21450.0)


def test_single_layer_identity():
    sec = effective_properties([Layer(Material("x", 300e9, 3000.0), 1e-6)])
    assert sec.effective_E == 300e9
    assert sec.effective_rho == 3000.0
    assert sec.thickness == 1e-6


def test_rod_stack_weighted_means():
    sec = effective_properties([Layer(ALN, 600e-9), Layer(AL, 330e-9)])
    # thickness-weighted means evaluated by hand
    assert sec.effective_E == pytest.approx(247.4e9, rel=1e-3)
    assert sec.effective_rho == pytest.approx(3061.0, rel=1e-3)
    assert sec.thickness == pytest.approx(930e-9, rel=1e-12)


def test_trench_stack_weighted_means():
    sec = effective_properties([Layer(ALN, 400e-9), Layer(PT, 250e-9)])
    assert sec.effective_E == pytest.approx(276.9e9, rel=1e-3)
    assert sec.effective_rho == pytest.approx(10256.0, rel=1e-3)
    assert sec.thickness == pytest.approx(650e-9, rel=1e-12)


def test_section_geometry_per_unit_width():
    sec = effective_properties([Layer(ALN, 400e-9), Layer(PT, 250e-9)])
    assert sec.area_per_width == sec.thickness
    assert sec.inertia_per_width == pytest.approx(sec.thickness**3 / 12.0, rel=1e-15)


def test_velocity_unit_identity():
    sec = effective_properties([Layer(Material("unit", 1.0, 1.0), 1.0)])
    assert longitudinal_velocity(sec) == 1.0


def test_velocity_default_rod():
    sec = effective_properties([Layer(ALN, 600e-9), Layer(AL, 330e-9)])
    assert longitudinal_velocity(sec) == pytest.approx(8990.0, abs=5.0)


def test_velocity_sqrt_scaling():
    sec = effective_properties([Layer(Material("m", 200e9, 5000.0), 1e-6)])
    sec4 = effective_properties([Layer(Material("m4", 800e9, 5000.0), 1e-6)])
    assert longitudinal_velocity(sec4) == pytest.approx(
        2.0 * longitudinal_velocity(sec), rel=1e-14
    )


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    mats = [
        Material(f"m{i}", float(rng.uniform(50e9, 500e9)), float(rng.uniform(1e3, 2e4)))
        for i in range(5)
    ]
    layers = [Layer(m, float(rng.uniform(50e-9, 900e-9))) for m in mats]
    base = effective_properties(layers)
    for _ in range(10):
        perm = list(rng.permutation(len(layers)))
        sec = effective_properties([layers[i] for i in perm])
        assert sec.effective_E == pytest.approx(base.effective_E, rel=1e-14)
        assert sec.effective_rho == pytest.approx(base.effective_rho, rel=1e-14)
        assert sec.thickness == pytest.approx(base.thickness, rel=1e-14)


def test_layer_splitting_invariance():
    layers = [Layer(ALN, 600e-9), Layer(AL, 330e-9)]
    split = [Layer(ALN, 250e-9), Layer(ALN, 350e-9), Layer(AL, 330e-9)]
    a, b = effective_properties(layers), effective_properties(split)
    assert b.effective_E == pytest.approx(a.effective_E, rel=1e-14)
    assert b.effective_rho == pytest.approx(a.effective_rho, rel=1e-14)


def test_effective_values_bounded_by_constituents():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        layers = [
            Layer(
                Material(f"m{i}", float(rng.uniform(10e9, 900e9)), float(rng.uniform(500, 3e4))),
                float(rng.uniform(10e-9, 2e-6)),
            )
            for i in range(n)
        ]
        sec = effective_properties(layers)
        es = [l.material.youngs_modulus for l in layers]
        rhos = [l.material.density for l in layers]
        assert min(es) * (1 - 1e-12) <= sec.effective_E <= max(es) * (1 + 1e-12)
        assert min(rhos) * (1 - 1e-12) <= sec.effective_rho <= max(rhos) * (1 + 1e-12)


def test_empty_layer_list_rejected():
    with pytest.raises(ConfigError):
        effective_properties([])


@pytest.mark.parametrize(
    "e,rho",
    [(-1.0, 1000.0), (0.0, 1000.0), (1e9, -5.0), (1e9, 0.0), (math.inf, 1000.0),
     (1e9, math.inf), (math.nan, 1000.0), (1e9, math.nan)],
)
def test_invalid_material_rejected(e, rho):
    with pytest.raises(ConfigError):
        Material("bad", youngs_modulus=e, density=rho)


def test_invalid_layer_thickness_rejected():
    with pytest.raises(ConfigError):
        Layer(ALN, 0.0)
