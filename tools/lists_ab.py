"""Identity check of two tilefp source trees' candidate lists.

    python3 tools/lists_ab.py A B [--fabrics N]

A and B are repository roots, each holding ``src/tilefp``. Both trees are
imported into one process under distinct package names (``tilefp_a`` and
``tilefp_b``), as ``tools/stage_ab.py`` imports them, and each tree's
``tessellation._generate_module_placements`` runs on every case:

- the distinct requirements of the benchmark corpus: the SDR design on
  ``fx70t``, the dense designs (``fx70t``, n = 16, occupancy 0.8/0.5/0.5)
  of design seeds 0 to 11, and every ``scaling.cfg`` size on ``xc7k410t``
  with design seed n, generated by tree A from the fixtures of the
  checkout that holds this script;
- ``N`` random fabrics (default 400) of up to 6 rows and 24 columns with 0
  to 3 reserved rects, each with one requirement per kind mix: CLB alone,
  BRAM and CLB, DSP and CLB, and all three;

each under no aspect-ratio window and under (0.2, 0.7), (0.5, 2) and
(0.9, 1.1). The random cases come from a fixed seed, so a run repeats.

Per case both lists must have equal rects, ``wastage``, ``groups``,
``ties``, ``max_waste`` and ``sums``, or both calls must raise the same
error text. The script prints the number of cases compared and exits 0,
or names the first case that differs, and how, and exits 1.

Only the standard library is used, and ``perfbench/`` is not touched.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

from stage_ab import ROOT, load_module

WINDOWS = (None, (0.2, 0.7), (0.5, 2.0), (0.9, 1.1))
DENSE_SEEDS = range(12)
MAX_ROWS, MAX_COLS, MAX_RESERVED = 6, 24, 3


def load_tree(root: Path, label: str) -> SimpleNamespace:
    """One source tree's ``fabric``, ``design`` and ``tessellation``
    modules, imported under the package ``tilefp_<label>``."""
    package_dir = root.resolve() / "src" / "tilefp"
    if not (package_dir / "tessellation.py").is_file():
        raise SystemExit(f"lists_ab: no src/tilefp under {root}")
    package = f"tilefp_{label.lower()}"
    load_module(package, package_dir / "__init__.py", package_dir)
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}")
        for name in ("fabric", "design", "tessellation")
    })


def corpus_cases(a: SimpleNamespace) -> list[tuple[str, str, tuple[int, int, int]]]:
    """(name, fabric text, requirement) per distinct requirement of each
    corpus design, the designs parsed or generated by tree ``a``."""
    fixtures = ROOT / "src" / "tilefp" / "fixtures"
    fx70t, k410t = ((fixtures / f).read_text() for f in ("fx70t.fabric", "xc7k410t.fabric"))
    designs = [("sdr", fx70t, a.design.parse_design((fixtures / "sdr.design").read_text()))]
    fabric = a.fabric.parse_fabric(fx70t)
    for seed in DENSE_SEEDS:
        design = a.design.generate_random_design(16, fabric, (0.8, 0.5, 0.5), seed)
        designs.append((f"dense seed {seed}", fx70t, design))
    fabric = a.fabric.parse_fabric(k410t)
    for line in (fixtures / "scaling.cfg").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            n, *occupancy = line.split()
            occ = tuple(map(float, occupancy))
            design = a.design.generate_random_design(int(n), fabric, occ, int(n))
            designs.append((f"scaling n = {n}", k410t, design))
    return [
        (f"{name}, req {req}", text, req)
        for name, text, design in designs
        for req in dict.fromkeys((m.req.clb, m.req.bram, m.req.dsp) for m in design.modules)
    ]


def random_cases(count: int) -> list[tuple[str, str, tuple[int, int, int]]]:
    """(name, fabric text, requirement) for ``count`` random fabrics, four
    requirements each."""
    rng = random.Random(0)
    cases = []
    for i in range(count):
        rows = rng.randint(1, MAX_ROWS)
        kinds = "".join(rng.choice("CCCBD") for _ in range(rng.randint(1, MAX_COLS)))
        lines = [f"rows {rows}", f"columns {kinds}"]
        for _ in range(rng.randint(0, MAX_RESERVED)):
            r0, r1 = sorted(rng.randrange(rows) for _ in range(2))
            c0, c1 = sorted(rng.randrange(len(kinds)) for _ in range(2))
            lines.append(f"reserved {r0} {c0} {r1} {min(c1, c0 + 2)}")
        name, text = f"random fabric {i} ({'; '.join(lines)})", "\n".join(lines)
        bram, dsp = (rng.randint(1, kinds.count(kind) + 2) for kind in "BD")
        for req in (
            (rng.randint(1, 3 * len(kinds)), 0, 0),
            (rng.randint(0, 3 * len(kinds)), bram, 0),
            (rng.randint(0, 3 * len(kinds)), 0, dsp),
            (rng.randint(0, 3 * len(kinds)), bram, dsp),
        ):
            cases.append((f"{name}, req {req}", text, req))
    return cases


def candidate_list(tree: SimpleNamespace, fabric, req: tuple[int, int, int], ar_bounds) -> dict:
    """The list's rects, wastages and summaries, or its error text."""
    module = tree.design.ModuleSpec("m", tree.fabric.ResourceVector(*req))
    try:
        cands = tree.tessellation._generate_module_placements(fabric, module, ar_bounds)
    except Exception as exc:  # an infeasible module is compared by its error
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "rects": list(cands), "wastage": cands.wastage, "groups": cands.groups,
        "ties": list(cands.ties), "max_waste": cands.max_waste, "sums": cands.sums,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="repository root of side A")
    parser.add_argument("b", type=Path, help="repository root of side B")
    parser.add_argument("--fabrics", type=int, default=400, help="random fabrics")
    opts = parser.parse_args(argv)
    if opts.fabrics < 0:
        parser.error("--fabrics must not be negative")

    sides = load_tree(opts.a, "A"), load_tree(opts.b, "B")
    cases = corpus_cases(sides[0]) + random_cases(opts.fabrics)
    fabrics: dict[str, list] = {}  # fabric text -> each side's parsed fabric
    for name, text, req in cases:
        if text not in fabrics:
            fabrics[text] = [tree.fabric.parse_fabric(text) for tree in sides]
        for ar_bounds in WINDOWS:
            got_a, got_b = (
                candidate_list(tree, fabric, req, ar_bounds)
                for tree, fabric in zip(sides, fabrics[text])
            )
            if got_a != got_b:
                keys = dict.fromkeys([*got_a, *got_b])
                fields = [key for key in keys if got_a.get(key) != got_b.get(key)]
                print(f"lists differ on {name}, window {ar_bounds}: {', '.join(fields)}")
                return 1
    print(
        f"candidate lists identical on {len(cases) * len(WINDOWS)} cases: "
        f"{len(cases)} requirements, each under {len(WINDOWS)} windows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
