import numpy as np
import pytest

from rodwave import parse_config, sweep, unit_cell


@pytest.fixture(scope="session")
def default_config():
    return parse_config({})


@pytest.fixture(scope="session")
def default_cell(default_config):
    return unit_cell(default_config)


@pytest.fixture(scope="session")
def default_rod(default_cell):
    return default_cell.rod


@pytest.fixture(scope="session")
def default_trench(default_cell):
    return default_cell.trench


@pytest.fixture(scope="session")
def deepest_stop_f(default_config, default_cell):
    """The frequency of the default config's sweep grid where the transmitted
    factor decays fastest, deep in the strongest stopband: taken from the
    model, not from a band layout read off it."""
    s = default_config.sweep
    sw = sweep(default_cell, s.f_start, s.f_stop, s.points)
    return float(sw.f[np.argmin(sw.t_coeff)])
