"""Export guard: the package's public names and the modules' ``__all__`` lists agree."""

import ast
import importlib
from pathlib import Path

import causalsde

INIT = Path(causalsde.__file__)


def package_imports():
    """(module, name) for every ``from .module import name`` in ``causalsde/__init__.py``."""
    tree = ast.parse(INIT.read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_package_name_resolves_and_is_in_its_module_all():
    pairs = package_imports()
    assert pairs
    for module, name in pairs:
        assert hasattr(causalsde, name), name
        assert name in importlib.import_module(f"causalsde.{module}").__all__, (module, name)


def test_every_module_all_entry_resolves():
    for module in {module for module, _ in package_imports()}:
        mod = importlib.import_module(f"causalsde.{module}")
        for name in mod.__all__:
            assert hasattr(mod, name), (module, name)
