"""The export lists: each name resolves and appears once, and the package
re-exports exactly the names that its library modules export.

A name deleted from a module but left in an ``__all__`` would break
``from mosquito_allee import *``.

An AST guard keeps the names few: every name that a module of the
package, of the tests or of ``scripts/`` imports is used in that module,
and every exported name is read somewhere in ``src/``, ``bench/`` or
``scripts/`` outside its own definition, unless the source paper
defines it.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import mosquito_allee

# the modules the package re-exports; cli is imported only by the command
LIBRARY = ("errors", "model", "stability", "dynamics")
MODULES = (*LIBRARY, "cli")


def _module(name: str):
    return importlib.import_module(f"mosquito_allee.{name}")


@pytest.mark.parametrize("name", [None, *MODULES], ids=["package", *MODULES])
def test_every_exported_name_resolves_once(name):
    module = mosquito_allee if name is None else _module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_module_exports():
    # exactly the library modules' names, so the derived list cannot drop a module
    owners = {n: _module(m) for m in LIBRARY for n in _module(m).__all__}
    assert sorted(mosquito_allee.__all__) == sorted([*owners, "__version__"])
    for name, owner in owners.items():
        assert getattr(mosquito_allee, name) is getattr(owner, name)


CALL_TIME = {
    "EXTINCTION_RADIUS": "dynamics",
    "DIVERGENCE_X": "dynamics",
    "Y_LIMIT_TOL": "dynamics",
    "STEP_TOL": "dynamics",
    "TRAJECTORY_WINDOW": "dynamics",
    "MAX_GRID_CELLS": "dynamics",
    "MAX_SAMPLES": "dynamics",
    "UNIT_MODULUS_TOL": "stability",
}


@pytest.mark.parametrize("name", list(CALL_TIME))
def test_setting_a_call_time_constant_on_the_package_is_refused(name, monkeypatch):
    # the package's copy is read by nothing, so setting it would change nothing
    owner = _module(CALL_TIME[name])
    value = getattr(owner, name)
    with pytest.raises(AttributeError, match=rf"set mosquito_allee\.{CALL_TIME[name]}\.{name} instead$"):
        setattr(mosquito_allee, name, 2 * value)
    assert getattr(mosquito_allee, name) == value  # still read from the package
    monkeypatch.setattr(owner, name, 2 * value)  # and set on its module
    assert getattr(owner, name) == 2 * value


def test_other_package_attributes_can_still_be_set(monkeypatch):
    monkeypatch.setattr(mosquito_allee, "DEFAULT_BUDGET", 5)
    assert mosquito_allee.DEFAULT_BUDGET == 5


def test_import_loads_neither_numpy_nor_the_cli():
    # a fresh interpreter, with any import of numpy made to fail
    probe = (
        "import sys; sys.modules['numpy'] = None; import mosquito_allee; "
        "print(sys.modules['numpy'] is None, 'mosquito_allee.cli' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"


def test_cli_runs_load_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: a CLI start needs
    # none of them.  numpy loads inspect itself, so after basin and check
    # only dataclasses is asked about
    showcase = "--alpha 0.8 --beta 0.9 --gamma 2 --mu 0.4".split()
    numpy_free = ("simulate --x0 0.2 --y0 5 --budget 1000", "fixed-points")
    with_numpy = ("basin --x-min 0 --x-max 7 --y-min 0 --y-max 5 --nx 3 --ny 3 --budget 1000", "check --samples 100")
    probe = f"""
import contextlib, io, sys
import mosquito_allee, mosquito_allee.cli
def loaded(*names):
    return [name for name in names if name in sys.modules]
def run(*commands):
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert mosquito_allee.cli.main([*command.split(), *{showcase!r}]) == 0, command
print(loaded("dataclasses", "inspect"))
run(*{numpy_free!r})
print(loaded("dataclasses", "inspect"))
run(*{with_numpy!r})
print(loaded("dataclasses"))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mosquito_allee").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# where a public name's reader may live
READERS = [*SOURCES, *sorted((ROOT / "bench").glob("*.py")), *SCRIPTS]
# the modules whose every import must be used; a package module goes by its file name
IMPORTERS = {
    **{p.name: p for p in SOURCES},
    **{str(p.relative_to(ROOT)): p for p in [*sorted((ROOT / "tests").glob("*.py")), *SCRIPTS]},
}
# names the source paper defines, kept for a library user though the
# package itself does not read them: the Jacobian at a state
PAPER_DEFINED = {"jacobian_at"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loads(node: ast.AST) -> set[str]:
    """The names ``node`` reads: bare names loaded and attributes taken."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


@pytest.mark.parametrize("path", IMPORTERS.values(), ids=IMPORTERS.keys())
def test_every_import_is_used(path):
    tree = _tree(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    assert sorted(bound - _loads(tree)) == []


def _statements(path: Path) -> list[tuple[set[str], set[str]]]:
    """``(defined, read)`` for each top-level statement of ``path``.

    ``defined`` holds the names a ``def``, ``class`` or assignment binds,
    whose reads inside it do not count; an ``__all__`` list reads nothing.
    """
    statements = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            defined = set()
        if "__all__" not in defined:
            statements.append((defined, _loads(node)))
    return statements


def test_every_exported_name_has_a_reader():
    statements = [s for path in READERS for s in _statements(path)]
    unread = [
        f"{name}.{exported}"
        for name in MODULES
        for exported in _module(name).__all__
        if exported not in PAPER_DEFINED
        and not any(exported in read and exported not in defined for defined, read in statements)
    ]
    assert unread == []
