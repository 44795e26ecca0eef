"""Six source rules for src/rodwave.  Five read the sources with ast (no
linter is a dependency): every import is used, every module-level private
name is referenced somewhere in the package besides its definition, so a
deleted helper does not live on as a name that only the tests call, no `**`
is left where a one-point call runs numpy's scalar math, every refusal of an
argument names its call, and a checked argument is read only as the value
its check returns.  The sixth imports the package: every array it shares
between calls is read-only, so no in-place write can change a later
result."""

import ast
import importlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rodwave import parse_config, unit_cell
from rodwave.cell import constants_table, stacked_cells

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rodwave").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level __all__ list."""
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in node.value.elts
    }


def _read_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare, as an attribute or by import."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    """Names a module binds at its top level by def, class or assignment that
    start with one underscore (dunders excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_the_package_sources_are_found():
    assert "cell.py" in TREES and "__init__.py" in TREES


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _read_names(tree) | _exported(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert unused == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_module_name_is_referenced_in_the_package(module):
    referenced = set().union(*map(_references, TREES.values()))
    unreferenced = [n for n in _private_definitions(TREES[module]) if n not in referenced]
    assert unreferenced == []


# the stage, and the front functions that run on a one-point call's numpy
# scalars: there `**` runs libm pow, which differs in the last bit from the
# array loop of np.power or np.square that a sweep runs
_SCALAR_MATH = {
    "bloch.py": None,
    "cell.py": {"forcing_arrays", "sigma_slope_arrays"},
    "rod.py": {"_pole_impedance"},
    "trench.py": {"_omega_wavevectors"},
}


def _functions(tree: ast.Module, names):
    """The module (names None) or its top-level functions of those names."""
    if names is None:
        return [tree]
    found = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert {n.name for n in found} == names
    return found


@pytest.mark.parametrize("module", sorted(_SCALAR_MATH))
def test_no_power_operator_where_one_point_calls_run_scalar_math(module):
    powers = [
        node.lineno
        for scope in _functions(TREES[module], _SCALAR_MATH[module])
        for node in ast.walk(scope)
        if isinstance(node, ast.Pow)
    ]
    assert powers == []


def _refusals(tree: ast.AST, function: str | None = None):
    """(enclosing function, message node or None) of each raise of a
    ValueError or TypeError under tree, the innermost function's name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _refusals(node, node.name)
            continue
        if isinstance(node, ast.Raise):
            exc = node.exc
            call = exc if isinstance(exc, ast.Call) else None
            name = call.func if call else exc
            if isinstance(name, ast.Name) and name.id in ("ValueError", "TypeError"):
                yield function, call.args[0] if call and call.args else None
        yield from _refusals(node, function)


def _opening(message) -> str | None:
    """The literal text a message node starts with: a string constant's, or
    an f-string's leading constant part."""
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    return None


# errors.py states the argument checks, which name the caller they are given
_REFUSING = sorted(set(TREES) - {"errors.py"})


@pytest.mark.parametrize("module", _REFUSING)
def test_every_refusal_names_its_call(module):
    """Outside errors.py, each raise ValueError(...) or TypeError(...) has a
    message that starts with its enclosing function's name and a colon."""
    unnamed = [
        (function, ast.unparse(message) if message else None)
        for function, message in _refusals(TREES[module])
        if function is None or not (_opening(message) or "").startswith(f"{function}: ")
    ]
    assert unnamed == []


def test_the_refusal_rule_finds_the_refusals():
    found = {(m, f) for m in _REFUSING for f, _ in _refusals(TREES[m])}
    assert {("bloch.py", "field_profile"), ("svg.py", "line_plot")} <= found


# the argument checks of errors, each with the number of leading arguments it checks
_CHECKS = {
    "frequency_row": 1, "count": 1, "finite_number": 1, "frequency_bounds": 2,
    "_real": 1, "_integer": 1,
}


def _checked_parameters(function: ast.FunctionDef):
    """(parameter, check call) of each of the function's own parameters that
    it passes as a checked argument of one of _CHECKS."""
    parameters = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    for call in ast.walk(function):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            for arg in call.args[: _CHECKS.get(call.func.id, 0)]:
                if isinstance(arg, ast.Name) and arg.id in parameters:
                    yield arg.id, call


def _rebinds(function: ast.FunctionDef, name: str, call: ast.Call) -> bool:
    """Whether an assignment in the function binds name to a value holding call."""
    return any(
        isinstance(node, ast.Assign)
        and any(call is n for n in ast.walk(node.value))
        and any(isinstance(n, ast.Name) and n.id == name for t in node.targets for n in ast.walk(t))
        for node in ast.walk(function)
    )


def _raw_reads(tree: ast.Module):
    """(function, parameter, line) of each read of a checked parameter after
    its check, in a function that did not rebind it to the check's result."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for name, call in _checked_parameters(function):
            if _rebinds(function, name, call):
                continue
            end = (call.end_lineno, call.end_col_offset)
            yield from (
                (function.name, name, node.lineno)
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id == name and (node.lineno, node.col_offset) >= end
            )


@pytest.mark.parametrize("module", sorted(TREES))
def test_a_checked_argument_is_read_only_as_its_checks_value(module):
    """A function that passes its own parameter to an errors check either
    rebinds the parameter to the check's result or reads it no more: every
    later statement sees the one value the check returns."""
    assert list(_raw_reads(TREES[module])) == []


def test_the_check_rule_finds_the_checked_parameters():
    found = {
        (m, f.name, name)
        for m, tree in TREES.items()
        for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
        for name, _ in _checked_parameters(f)
    }
    assert {
        ("bloch.py", "field_profile", "f"), ("bloch.py", "_grid", "f_stop"),
        ("bloch.py", "_grid", "points"), ("cell.py", "_forcing_at", "f"),
        ("rod.py", "rod_modeshape", "f_amp"), ("trench.py", "_wavevector_at", "f"),
        ("workbench.py", "run_chain", "n_cells"), ("workbench.py", "run_impedance", "f_start"),
        ("workbench.py", "run_matrices", "freq"),
    } <= found


def _leaves(namespace, prefix):
    """(name, value) of every value in a namespace, nested namespaces walked."""
    for name, value in vars(namespace).items():
        if isinstance(value, SimpleNamespace):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def _arrays(namespace, prefix):
    """(name, array) of every np.ndarray in a namespace, nested namespaces included."""
    return ((name, v) for name, v in _leaves(namespace, prefix) if isinstance(v, np.ndarray))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_shared_array_is_read_only(module):
    """The module-level arrays, and for cell.py the constants a cell keeps in
    its _operands and hands to every later call: each of those is a numpy
    scalar, which is immutable, or a read-only array; and the constants_table
    of several cells and every leaf of its stacked_cells, which a geometry
    sweep shares between its chunks and the front."""
    name = "rodwave" if module == "__init__.py" else f"rodwave.{module[:-3]}"
    shared = list(_arrays(importlib.import_module(name), ""))
    if module == "cell.py":
        config = parse_config({})
        operands = list(_leaves(unit_cell(config)._operands, "_operands."))
        assert operands
        mutable = [label for label, v in operands if not isinstance(v, (np.generic, np.ndarray))]
        assert mutable == []
        shared += [(label, v) for label, v in operands if isinstance(v, np.ndarray)]
        cells = [unit_cell(config, replace(config.geometry, L=L)) for L in (3.8e-6, 4e-6)]
        table = constants_table(cells)
        stacked = list(_leaves(stacked_cells(table, np.array([0, 1, 1])), "stacked."))
        assert len(stacked) == len(table) and all(isinstance(v, np.ndarray) for _, v in stacked)
        shared += [("constants_table", table), *stacked]
    writable = [label for label, array in shared if array.flags.writeable]
    assert writable == []
