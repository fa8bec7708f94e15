"""Every public name resolves: each ``__all__`` entry of the tilefp modules,
and each name the benchmark harness under ``perfbench/`` imports from them.
The ``__all__`` lists are exactly the documented library, the README's
Library snippet runs as written on the bundled fixtures, and the test
oracles in ``helpers.py`` import no pipeline logic."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tilefp
from tilefp.design import parse_design
from tilefp.fabric import parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.tessellation import CandidateList, generate_placements

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(tilefp.__path__, prefix="tilefp.")
)
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# The documented surface: one entry point per stage, the data types and
# parsers around them, their errors, and what the CLI, perfbench/ and
# tools/ import.
PUBLIC = {
    "tilefp.bipartition": {"InfeasibleModelError", "compute_anchors"},
    "tilefp.cli": {"main"},
    "tilefp.design": {
        "Connection", "Design", "DesignError", "GenerationError", "ModuleSpec",
        "generate_random_design", "parse_design", "write_design",
    },
    "tilefp.fabric": {
        "DEFAULT_FRAMES", "Fabric", "FabricError", "Rect", "ResourceKind", "ResourceVector",
        "parse_fabric",
    },
    "tilefp.fixtures": {"fixture_path"},
    "tilefp.place": {
        "FAIL_FIRST_NODES", "FORWARD_CHECK_NODES", "Floorplan", "PlacementInfeasibleError",
        "PlacementTimeoutError", "TIME_BUDGET", "floorplan_wastage", "floorplan_wirelength",
        "normalize_candidates", "order_modules", "run_floorplan", "trial_and_error_place",
        "write_floorplan",
    },
    "tilefp.render": {"render_ascii", "render_svg"},
    "tilefp.tessellation": {"CandidateList", "InfeasibleModuleError", "generate_placements"},
    "tilefp.validate": {
        "FloorplanDocument", "PlacementRecord", "parse_floorplan", "validate_floorplan",
    },
}
# Names that were public only for tests or sibling modules; they stay private.
INTERNAL = {
    "Axis", "BqpModel", "SideData", "SpanGroup", "assignment_feasible", "build_bqp",
    "objective_of", "recursive_bipartition", "side_data", "solve_bqp", "split_partition",
    "base_kernels_for_row", "expand_horizontal", "generate_module_placements", "kind_order",
    "merge_row_kernels", "per_list", "read_directives",
}
# What the oracles may take from tilefp: data types, parsers, exceptions
# and, through the ``place`` module so that tests can patch them, the
# placer's node budgets.
ORACLE_IMPORTS = {
    "tilefp.bipartition": {"InfeasibleModelError", "_BqpModel", "_SideData"},
    "tilefp.design": {"Connection", "Design", "DesignError", "ModuleSpec", "parse_design"},
    "tilefp.fabric": {
        "Fabric", "FabricError", "Rect", "ResourceKind", "ResourceVector", "parse_fabric",
    },
    "tilefp.place": {"PlacementInfeasibleError", "PlacementTimeoutError"},
    "tilefp.tessellation": {"CandidateList", "InfeasibleModuleError"},
    "tilefp.validate": {"parse_floorplan"},
}
ORACLE_MODULES = {"place": {"FAIL_FIRST_NODES", "FORWARD_CHECK_NODES"}}


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
    plain ``(row0, col0, row1, col1)`` tuples of ints, not ``Rect``s, with
    an int wastage per rect, no per-candidate record,
    holding the summaries that the anchor passes and scoring read in place
    of their own walks, which are no longer public."""
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    design = parse_design(fixture_path("sdr.design").read_text())
    for options in generate_placements(fabric, design, None).values():
        assert type(options) is CandidateList
        assert all(
            type(rect) is tuple and len(rect) == 4 and all(type(v) is int for v in rect)
            for rect in options
        )
        assert len(options.wastage) == len(options)
        assert all(type(w) is int for w in options.wastage)
        assert set(options.groups) == {"vertical", "horizontal"}
        assert len(options.ties) == len(options)
        assert options.max_waste == max(options.wastage)
        assert len(options.sums) == 2
    assert "span_groups" not in importlib.import_module("tilefp.bipartition").__all__
    assert "PlacementCandidate" not in importlib.import_module("tilefp.tessellation").__all__


def test_all_lists_are_the_documented_surface():
    assert {name: set(importlib.import_module(name).__all__) for name in MODULES} == PUBLIC
    for name in MODULES:
        assert INTERNAL.isdisjoint(importlib.import_module(name).__all__)


def oracle_imports_outside_allow_list(source):
    """``(module, name)`` of each tilefp import in ``source`` that the
    allow-list does not hold, and ``(module, attribute)`` of each attribute
    read from an imported module beyond its node budgets."""
    tree = ast.parse(source)
    bad = []
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [(alias.name, "") for alias in node.names if alias.name.startswith("tilefp")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tilefp"):
            for alias in node.names:
                if node.module == "tilefp" and alias.name in ORACLE_MODULES:
                    modules[alias.asname or alias.name] = ORACLE_MODULES[alias.name]
                elif alias.name not in ORACLE_IMPORTS.get(node.module, ()):
                    bad.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            allowed = modules.get(node.value.id)
            if allowed is not None and node.attr not in allowed:
                bad.append((node.value.id, node.attr))
    return bad


def test_oracles_import_no_pipeline_logic():
    """``helpers.py`` transcribes every rule it checks, so a fault in a
    pipeline function cannot reach the oracle it is compared with."""
    assert oracle_imports_outside_allow_list((ROOT / "tests" / "helpers.py").read_text()) == []
    assert oracle_imports_outside_allow_list(
        "import tilefp.place\n"
        "from tilefp import place\n"
        "from tilefp.tessellation import _paired_kernels\n"
        "from tilefp.bipartition import _objective_of, _BqpModel\n"
        "place.FAIL_FIRST_NODES, place._rank\n"
    ) == [
        ("tilefp.place", ""),
        ("tilefp.tessellation", "_paired_kernels"),
        ("tilefp.bipartition", "_objective_of"),
        ("place", "_rank"),
    ]
