import json

import pytest

from rodwave import ConfigError, load_config, parse_config, sweep, unit_cell
from rodwave.bloch import stopband_report
from rodwave.config import config_hash


def test_empty_document_gives_full_defaults():
    cfg = parse_config({})
    geo = cfg.geometry
    assert geo.t_aln1 == pytest.approx(400e-9)
    assert geo.t_aln2 == pytest.approx(600e-9)
    assert geo.t_m1 == pytest.approx(250e-9)
    assert geo.t_m2 == pytest.approx(330e-9)
    assert geo.a == pytest.approx(2.0e-6)
    assert geo.L == pytest.approx(3.8e-6)
    assert cfg.sweep.points == 2000
    assert set(cfg.materials) == {"AlN", "Al", "Pt"}
    assert cfg.geometry_sweep is None


def test_empty_file_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(path)
    assert cfg.geometry.a == pytest.approx(2.0e-6)


def test_rod_wider_than_cell_rejected():
    with pytest.raises(ConfigError, match="a.*L|L.*a"):
        parse_config({"geometry": {"a_um": 5.0, "L_um": 4.0}})


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="config.'bogus'"):
        parse_config({"bogus": 1})
    with pytest.raises(ConfigError, match="geometry"):
        parse_config({"geometry": {"a_furlong": 1.0}})
    with pytest.raises(ConfigError, match="sweep"):
        parse_config({"sweep": {"n": 5}})


def test_conflicting_units_rejected():
    with pytest.raises(ConfigError, match="exactly one unit"):
        parse_config({"geometry": {"a_um": 2.0, "a_nm": 2000.0}})


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_material_override_shifts_primary_band_up():
    # stiffer film -> faster rod -> higher quarter-wave frequency
    base = parse_config({})
    stiff = parse_config({"materials": {"AlN": {"youngs_modulus_pa": 395e9}}})
    assert stiff.materials["AlN"].youngs_modulus == 395e9
    assert stiff.materials["AlN"].density == base.materials["AlN"].density
    rep_base = stopband_report(sweep(unit_cell(base), 0.5e9, 6e9, 500))
    rep_stiff = stopband_report(sweep(unit_cell(stiff), 0.5e9, 6e9, 500))
    assert rep_stiff.primary_band.f_center > rep_base.primary_band.f_center


def test_non_finite_sweep_bound_rejected(tmp_path):
    # json reads 1e400 as inf
    path = tmp_path / "cfg.json"
    path.write_text('{"sweep": {"f_stop_hz": 1e400}}')
    with pytest.raises(ConfigError, match="finite"):
        load_config(path)


def test_new_material_requires_both_properties():
    with pytest.raises(ConfigError, match="both"):
        parse_config({"materials": {"W": {"density_kg_m3": 19300.0}}})


def test_geometry_sweep_parsing():
    cfg = parse_config(
        {
            "geometry_sweep": {
                "parameter": "a",
                "from_um": 1.5,
                "to_um": 3.5,
                "steps": 21,
            }
        }
    )
    gs = cfg.geometry_sweep
    assert gs.parameter == "a"
    assert gs.start == pytest.approx(1.5e-6)
    assert gs.stop == pytest.approx(3.5e-6)
    assert gs.steps == 21


def test_geometry_sweep_bad_parameter():
    with pytest.raises(ConfigError, match="parameter"):
        parse_config({"geometry_sweep": {"parameter": "w", "from_um": 1, "to_um": 2}})


def test_config_hash_deterministic_and_sensitive():
    a = parse_config({})
    b = parse_config({})
    c = parse_config({"geometry": {"a_um": 2.1}})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_defaults_are_logged(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="rodwave.config"):
        parse_config({})
    assert any("default" in message for message in caplog.messages)


def test_canonical_roundtrip_is_json():
    from rodwave.config import canonical_document

    doc = canonical_document(parse_config({}))
    json.dumps(doc)  # must be serializable
    assert doc["geometry"]["a_m"] == pytest.approx(2.0e-6)
