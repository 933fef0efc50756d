"""Each veclisp module's ``__all__`` names only what the module defines, and it
imports no name that it never uses."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import veclisp

# __main__ only runs the CLI and exports nothing.
MODULES = ["veclisp"] + [
    f"veclisp.{m.name}" for m in pkgutil.iter_modules(veclisp.__path__) if m.name != "__main__"
]
SOURCES = Path(veclisp.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _names_imported_and_used(tree):
    """The names a module's imports bind, the names it reads, and its ``__all__``."""
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return imported, used, exported


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    imported, used, exported = _names_imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(imported - used - exported) == []
