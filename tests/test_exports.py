"""The export lists: each name resolves and appears once, and the package
re-exports only names that its modules export.

A name deleted from a module but left in an ``__all__`` would break
``from mosquito_allee import *``.
"""

from __future__ import annotations

import importlib

import pytest

import mosquito_allee

MODULES = ("model", "stability", "dynamics", "cli", "errors")


def _module(name: str):
    return importlib.import_module(f"mosquito_allee.{name}")


@pytest.mark.parametrize("name", [None, *MODULES], ids=["package", *MODULES])
def test_every_exported_name_resolves_once(name):
    module = mosquito_allee if name is None else _module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_module_exports():
    owners = {n: _module(m) for m in MODULES for n in _module(m).__all__}
    for name in mosquito_allee.__all__:
        if name == "__version__":  # the package's own
            continue
        assert name in owners, f"{name} is in no module's __all__"
        assert getattr(mosquito_allee, name) is getattr(owners[name], name)
