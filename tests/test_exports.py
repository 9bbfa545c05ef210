"""The export lists: each name resolves and appears once, and the package
re-exports exactly the names that its library modules export.

A name deleted from a module but left in an ``__all__`` would break
``from mosquito_allee import *``.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

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


def test_import_loads_neither_numpy_nor_the_cli():
    # a fresh interpreter, with any import of numpy made to fail
    probe = (
        "import sys; sys.modules['numpy'] = None; import mosquito_allee; "
        "print(sys.modules['numpy'] is None, 'mosquito_allee.cli' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"
