"""The README's examples run: every JSON config parses, and the library
example executes as written; every rodwave name it qualifies by module
exists."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import rodwave
from rodwave import parse_config, unit_cell, wavelength_over_thickness

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_every_json_block_is_an_accepted_config():
    blocks = _blocks(README, "json")
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_library_use_example_runs():
    section = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = _blocks(section, "python")
    exec(compile(block, "README.md (Library use)", "exec"), {})


def test_thin_beam_figures_are_the_default_cells():
    section = README.split("\n## Model notes and known quirks\n", 1)[1].split("\n## ", 1)[0]
    (bullet,) = [b for b in section.split("\n- ") if "Euler-Bernoulli" in b]
    figures = re.findall(r"(\d+\.(\d+)) at (\d+(?:\.\d+)?) GHz", " ".join(bullet.split()))
    assert len(figures) == 6
    trench = unit_cell(parse_config({})).trench
    for text, decimals, f_ghz in figures:
        value = wavelength_over_thickness(trench, float(f_ghz) * 1e9)
        assert f"{value:.{len(decimals)}f}" == text, f_ghz


def test_every_module_qualified_name_resolves():
    """Every backticked `module.name` with a rodwave module on the left names an
    attribute of that module, so a rename or deletion cannot leave the text
    stale."""
    modules = {m.name for m in pkgutil.iter_modules(rodwave.__path__)}
    names = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", README) if m in modules]
    assert names
    missing = [f"{m}.{n}" for m, n in names
               if not hasattr(importlib.import_module(f"rodwave.{m}"), n)]
    assert not missing


def test_every_named_timing_file_exists_and_parses():
    """Every BENCH_<n>.json the README names is a committed JSON file."""
    root = Path(__file__).resolve().parents[1]
    names = set(re.findall(r"`(BENCH_\d+\.json)`", README))
    assert {"BENCH_28.json", "BENCH_32.json", "BENCH_36.json"} <= names
    for name in sorted(names):
        assert isinstance(json.loads((root / name).read_text()), dict), name


def test_every_all_caps_name_is_a_module_level_name():
    """Every all-caps identifier with an underscore inside a backticked span
    (BENCH_<n>, a timing file, aside) is a module-level name of some rodwave
    module, so a deleted constant cannot linger in the text."""
    modules = [importlib.import_module(f"rodwave.{m.name}")
               for m in pkgutil.iter_modules(rodwave.__path__)]
    names = {name for span in re.findall(r"`([^`\n]+)`", README)
             for name in re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", span)
             if not re.fullmatch(r"BENCH_\d+", name)}
    assert {"EDGE_REFINE_HZ", "KL_FLOOR", "SIGMA_CLAMP"} <= names
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert not missing
