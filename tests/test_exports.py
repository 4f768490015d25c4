import ast
import importlib
import inspect
import pkgutil

import pytest

import distill_lab

MODULES = ["distill_lab"] + sorted(
    f"distill_lab.{m.name}" for m in pkgutil.iter_modules(distill_lab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [n for n in exports if not hasattr(mod, n)] == []


def test_package_exports_what_it_imports():
    tree = ast.parse(inspect.getsource(distill_lab))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(distill_lab.__all__) == imported | {"__version__"}
