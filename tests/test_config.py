import json
import re

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


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"sweep": {"points": "300"}}, "sweep.points"),
        ({"sweep": {"points": 300.9}}, "sweep.points"),
        ({"sweep": {"f_start_hz": True}}, "sweep.f_start_hz"),
        ({"sweep": {"f_stop_hz": "6e9"}}, "sweep.f_stop_hz"),
        ({"geometry_sweep": {"parameter": "a", "from_um": 1, "to_um": 2, "steps": 2.5}},
         "geometry_sweep.steps"),
        ({"geometry_sweep": {"parameter": "a", "from_um": 1, "to_um": 2, "steps": True}},
         "geometry_sweep.steps"),
        ({"materials": {"AlN": {"youngs_modulus_pa": "345e9"}}},
         "materials.AlN.youngs_modulus_pa"),
        ({"materials": {"W": {"youngs_modulus_pa": 411e9, "density_kg_m3": True}}},
         "materials.W.density_kg_m3"),
        ({"geometry": {"a_um": 10**400}}, "geometry.a_um"),
    ],
)
def test_numeric_fields_reject_bools_strings_fractions_and_overflow(doc, where):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: "):
        parse_config(doc)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_material_property_exits_2_naming_its_path(tmp_path, capsys, text):
    from rodwave.cli import main

    path = tmp_path / "cfg.json"
    path.write_text('{"materials": {"AlN": {"density_kg_m3": %s}}, "output": {"dir": "%s"}}'
                    % (text, tmp_path / "out"))
    with pytest.raises(ConfigError, match=r"^materials\.AlN\.density_kg_m3: must be finite"):
        load_config(path)
    assert main(["sweep", "--config", str(path)]) == 2
    assert "materials.AlN.density_kg_m3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["youngs_modulus_pa", "density_kg_m3"])
@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_material_property_names_its_path(key, value):
    with pytest.raises(ConfigError, match=rf"^materials\.AlN\.{key}: must be positive$"):
        parse_config({"materials": {"AlN": {key: value}}})


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "config root: expected a JSON object"),
        ({"materials": []}, "materials: expected an object"),
        ({"materials": {"AlN": 1}}, "materials.AlN: expected an object"),
        ({"geometry": []}, "geometry: expected an object"),
        ({"sweep": "x"}, "sweep: expected an object"),
        ({"geometry_sweep": 3}, "geometry_sweep: expected an object"),
        ({"output": 0}, "output: expected an object"),
    ],
)
def test_non_object_sections_are_refused_naming_their_path(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    from rodwave.cli import main

    # past the interpreter's int-string digit limit json.loads raises a plain
    # ValueError; without a limit the count is too large for a float
    path = tmp_path / "cfg.json"
    path.write_text('{"sweep": {"points": %s}}' % ("1" * 5000))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["stopbands", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_integral_counts_keep_their_config_hash():
    # JSON has one number type: 300.0 is the count 300
    whole = parse_config({"sweep": {"points": 300}, "geometry_sweep": {
        "parameter": "a", "from_um": 1, "to_um": 2, "steps": 4}})
    point_zero = parse_config({"sweep": {"points": 300.0}, "geometry_sweep": {
        "parameter": "a", "from_um": 1, "to_um": 2, "steps": 4.0}})
    assert point_zero.sweep.points == 300 and type(point_zero.sweep.points) is int
    assert point_zero.geometry_sweep.steps == 4 and type(point_zero.geometry_sweep.steps) is int
    assert config_hash(point_zero) == config_hash(whole)
    assert config_hash(parse_config({})) == "0301bbd033bd8eab"
