"""Every public name resolves: each ``__all__`` entry of the tilefp modules,
and each name the benchmark harness under ``perfbench/`` imports from them.
The README's Library snippet runs as written on the bundled fixtures."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tilefp
from tilefp.design import parse_design
from tilefp.fabric import Rect, parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.tessellation import CandidateList, generate_placements

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(tilefp.__path__, prefix="tilefp.")
)
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_readme_library_snippet_places_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for placeholder, fixture in (("F.fabric", "fx70t.fabric"), ("D.design", "sdr.design")):
        assert f'"{placeholder}"' in snippet
        snippet = snippet.replace(f'"{placeholder}"', repr(str(fixture_path(fixture))))
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert set(namespace["rects"]) == {m.id for m in namespace["design"].modules}


def test_tessellation_lists_carry_their_summaries():
    """Every list ``generate_placements`` returns is a ``CandidateList`` of
    plain ``Rect``s with an int wastage per rect, no per-candidate record,
    holding the summaries that the anchor passes and scoring read in place
    of their own walks, which are no longer public."""
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    design = parse_design(fixture_path("sdr.design").read_text())
    for options in generate_placements(fabric, design, None).values():
        assert type(options) is CandidateList
        assert all(type(rect) is Rect for rect in options)
        assert len(options.wastage) == len(options)
        assert all(type(w) is int for w in options.wastage)
        assert set(options.groups) == {"vertical", "horizontal"}
        assert len(options.ties) == len(options)
        assert options.max_waste == max(options.wastage)
        assert len(options.sums) == 2
    assert "span_groups" not in importlib.import_module("tilefp.bipartition").__all__
    assert "PlacementCandidate" not in importlib.import_module("tilefp.tessellation").__all__
