"""The public names: each module's __all__ and what the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kanto

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(kanto.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"kanto.{name}")
    assert hasattr(module, "__all__"), f"kanto.{name} has no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from kanto.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(kanto.__file__).read_text())
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"kanto.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"kanto.{node.module}.{alias.name}"


def test_every_error_is_missing_data_or_a_value_error():
    # cli.main maps MissingData to exit 3 and every ValueError to exit 2; a
    # class outside both would end in a traceback
    errors = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"kanto.{name}")).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__.startswith("kanto.")
    }
    assert kanto.MissingData in errors
    stray = [e for e in errors if not issubclass(e, (kanto.MissingData, ValueError))]
    assert stray == []
