"""The public names: each module's __all__ and the package's re-exports.

A name removed from a module but left in its __all__, or left re-exported
by the package after it left every __all__, fails here rather than at a
user's import.
"""

import importlib
import pkgutil
import types

import pytest

import lmmlasso

MODULES = sorted(m.name for m in pkgutil.iter_modules(lmmlasso.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"lmmlasso.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), "a name is listed twice"
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_reexports_only_names_listed_in_a_modules_all():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"lmmlasso.{name}")
        for attr in getattr(module, "__all__", []):
            owners.setdefault(attr, getattr(module, attr))
    exported = {n: v for n, v in vars(lmmlasso).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported
    assert sorted(set(exported) - set(owners)) == []
    for n, value in exported.items():
        assert value is owners[n], n
