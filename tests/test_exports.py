"""Each veclisp module's ``__all__`` names only what the module defines."""
import importlib
import pkgutil

import pytest

import veclisp

# __main__ only runs the CLI and exports nothing.
MODULES = ["veclisp"] + [
    f"veclisp.{m.name}" for m in pkgutil.iter_modules(veclisp.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
