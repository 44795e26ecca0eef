import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodwave import ConfigError, load_config, parse_config, sweep, unit_cell
from rodwave.bloch import stopband_report
from rodwave.config import GEOM_PARAMETERS, canonical_document, config_hash


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
    cell_base, cell_stiff = unit_cell(base), unit_cell(stiff)
    rep_base = stopband_report(sweep(cell_base, 0.5e9, 6e9, 500), cell_base)
    rep_stiff = stopband_report(sweep(cell_stiff, 0.5e9, 6e9, 500), cell_stiff)
    assert rep_stiff.primary_band.f_center > rep_base.primary_band.f_center


def test_non_finite_sweep_bound_rejected(tmp_path):
    # json reads 1e400 as inf
    path = tmp_path / "cfg.json"
    path.write_text('{"sweep": {"f_stop_hz": 1e400}}')
    with pytest.raises(ConfigError, match="finite"):
        load_config(path)


def test_unknown_material_name_is_refused_naming_its_path(tmp_path, capsys):
    from rodwave.cli import main

    # the layer stack reads AlN, Al and Pt only: another name, even with both
    # constants, is an unknown key like any other
    doc = {"materials": {"W": {"youngs_modulus_pa": 411e9, "density_kg_m3": 19300.0}}}
    with pytest.raises(ConfigError, match=r"^unknown key materials\.'W'$"):
        parse_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"materials": {"ALN": {"youngs_modulus_pa": 395e9}},
                                "output": {"dir": str(tmp_path / "out")}}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "unknown key materials.'ALN'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("given_key, missing", [("from_um", "to"), ("to_nm", "from")])
def test_geometry_sweep_missing_bound_is_named_and_not_defaulted(caplog, given_key, missing):
    with caplog.at_level(logging.INFO, logger="rodwave.config"):
        with pytest.raises(ConfigError) as refused:
            parse_config({"geometry_sweep": {"parameter": "L", given_key: 1}})
    assert str(refused.value) == (
        f"geometry_sweep: {missing}_nm, {missing}_um or {missing}_m is required"
    )
    assert not any("nan" in message for message in caplog.messages)
    assert not any(f"geometry_sweep.{missing}" in message for message in caplog.messages)


def test_config_hash_deterministic_and_sensitive():
    a = parse_config({})
    b = parse_config({})
    c = parse_config({"geometry": {"a_um": 2.1}})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_defaults_are_logged(caplog):
    with caplog.at_level(logging.INFO, logger="rodwave.config"):
        parse_config({})
    assert any("default" in message for message in caplog.messages)


def test_every_substituted_default_is_logged_once_by_its_path(caplog):
    doc = {"sweep": {"f_start_hz": 2e8}, "output": {"dir": "x"},
           "materials": {"AlN": {"density_kg_m3": 3000}},
           "geometry_sweep": {"parameter": "a", "from_um": 1, "to_um": 2}}
    with caplog.at_level(logging.INFO, logger="rodwave.config"):
        parse_config(doc)
    logged = [re.fullmatch(r"config default: (\S+) = .+", m).group(1) for m in caplog.messages]
    assert logged == [
        *(f"geometry.{base}" for base in GEOM_PARAMETERS),
        "materials.AlN.youngs_modulus_pa",
        *(f"materials.{name}.{key}" for name in ("Al", "Pt")
          for key in ("youngs_modulus_pa", "density_kg_m3")),
        "sweep.f_stop_hz", "sweep.points", "geometry_sweep.steps", "output.plot",
    ]


def test_canonical_roundtrip_is_json():
    doc = canonical_document(parse_config({}))
    json.dumps(doc)  # must be serializable
    assert doc["geometry"]["a_m"] == pytest.approx(2.0e-6)


_UNITS = {"nm": 1e-9, "um": 1e-6, "m": 1.0}


@st.composite
def _lengths(draw, bases, lo_um, hi_um):
    """{<base>_<unit>: length} for each base, lo_um to hi_um in a unit drawn per base."""
    keys = {}
    for base in bases:
        unit = draw(st.sampled_from(sorted(_UNITS)))
        keys[f"{base}_{unit}"] = draw(st.floats(lo_um, hi_um)) * 1e-6 / _UNITS[unit]
    return keys


@st.composite
def _valid_documents(draw):
    doc = {}
    if draw(st.booleans()):
        constants = st.fixed_dictionaries({}, optional={
            "youngs_modulus_pa": st.floats(1e9, 1e12) | st.integers(10**9, 10**12),
            "density_kg_m3": st.floats(1e2, 3e4) | st.integers(100, 30000),
        })
        names = draw(st.lists(st.sampled_from(["AlN", "Al", "Pt"]), unique=True))
        doc["materials"] = {name: draw(constants) for name in names}
    if draw(st.booleans()):
        # a < 2 um < L keeps the rod narrower than the cell
        thickness = [b for b in GEOM_PARAMETERS if b.startswith("t_")]
        geometry = draw(_lengths(draw(st.lists(st.sampled_from(thickness), unique=True)),
                                 0.05, 2.0))
        for base, lo, hi in (("a", 0.1, 1.9), ("L", 2.1, 20.0)):
            if draw(st.booleans()):
                geometry.update(draw(_lengths([base], lo, hi)))
        doc["geometry"] = geometry
    if draw(st.booleans()):
        # either bound may fall back to its default, 0.1 or 6 GHz
        doc["sweep"] = draw(st.fixed_dictionaries({}, optional={
            "f_start_hz": st.floats(1e6, 5e9),
            "f_stop_hz": st.floats(6e9, 1e11),
            "points": st.integers(2, 10**5) | st.integers(2, 10**5).map(float),
        }))
    if draw(st.booleans()):
        section = {"parameter": draw(st.sampled_from(GEOM_PARAMETERS))}
        section.update(draw(_lengths(["from", "to"], 0.05, 20.0)))
        if draw(st.booleans()):
            section["steps"] = draw(st.integers(1, 100))
        doc["geometry_sweep"] = section
    if draw(st.booleans()):
        # a path holds no NUL and no lone surrogate (both refused)
        path_chars = st.characters(exclude_characters="\0", exclude_categories=("Cs",))
        doc["output"] = draw(st.fixed_dictionaries({}, optional={
            "dir": st.text(path_chars, max_size=12), "plot": st.booleans(),
        }))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_valid_documents())
def test_canonical_document_parses_back_to_the_same_config(doc):
    config = parse_config(doc)
    canonical = json.loads(json.dumps(canonical_document(config)))
    again = parse_config(canonical)
    assert again == config
    assert config_hash(again) == config_hash(config)
    assert canonical_document(again) == canonical


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
        ({"materials": {"Pt": {"youngs_modulus_pa": 168e9, "density_kg_m3": True}}},
         "materials.Pt.density_kg_m3"),
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
        ({"materials": {"AlN": None}}, "materials.AlN: expected an object"),
        ({"geometry": []}, "geometry: expected an object"),
        ({"sweep": "x"}, "sweep: expected an object"),
        ({"geometry_sweep": 3}, "geometry_sweep: expected an object"),
        ({"output": 0}, "output: expected an object"),
    ],
)
def test_non_object_sections_are_refused_naming_their_path(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"geometry": {"t_m1_nm": 0}}, "geometry.t_m1_nm: must be positive"),
        ({"geometry_sweep": {"parameter": "L", "from_um": -1, "to_um": 2}},
         "geometry_sweep.from_um: must be positive"),
        ({"sweep": {"f_start_hz": 2e9, "f_stop_hz": 2e9}},
         "sweep: need 0 < f_start_hz < f_stop_hz"),
        ({"sweep": {"points": 1}}, "sweep.points: must be >= 2"),
        ({"geometry_sweep": {"parameter": "a", "from_um": 1, "to_um": 2, "steps": 0}},
         "geometry_sweep.steps: must be >= 1"),
        ({"output": {"dir": 3}}, "output.dir: expected a string path"),
        ({"output": {"plot": 1}}, "output.plot: expected a boolean"),
    ],
)
def test_out_of_range_and_mistyped_entries_are_refused_naming_their_path(doc, message):
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
