"""Every public name resolves: each ``__all__`` entry of the tilefp modules,
and each name the benchmark harness under ``perfbench/`` imports from them."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tilefp

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(tilefp.__path__, prefix="tilefp.")
)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def perfbench_imports():
    """``(file, module, name)`` of every ``from tilefp... import name`` in
    ``perfbench/*.py``, read with ``ast`` so nothing there is run."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tilefp"):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    assert {module for _, module, _ in imports} >= {"tilefp.place", "tilefp.tessellation"}
    missing = [
        (file, module, name)
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
