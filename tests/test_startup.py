"""Start-up cost: what ``import tilefp.cli`` and a ``floorplan`` run load.

The checks compare module sets in a fresh interpreter, not times, so they
hold on a loaded machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tilefp.fixtures import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"

# Stdlib packages a floorplan never needs: ``xml.sax.saxutils`` alone pulls
# in the HTTP, mail and socket stack.
HEAVY = ("xml", "urllib.request", "http", "email", "ssl", "socket")

PROBE = """
import json, sys

before = set(sys.modules)
from tilefp.cli import main
after_import = set(sys.modules)
fabric, design, out = sys.argv[1:]
main(["floorplan", "--fabric", fabric, "--design", design, "--no-ar", "--out", out])
after_floorplan = set(sys.modules)
main(["floorplan", "--fabric", fabric, "--design", design, "--no-ar", "--out", out,
      "--render", "svg"])
after_render = set(sys.modules)
main(["validate", "--fabric", fabric, "--plan", out])
after_validate = set(sys.modules)
print(json.dumps({
    "import": sorted(after_import - before),
    "floorplan": sorted(after_floorplan - before),
    "render": sorted(after_render - before),
    "validate": sorted(after_validate - before),
}))
"""


def within(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_floorplan_path_loads_only_what_it_runs(tmp_path):
    out = tmp_path / "plan.fp"
    done = subprocess.run(
        [sys.executable, "-c", PROBE,
         str(fixture_path("fx70t.fabric")), str(fixture_path("sdr.design")), str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    new = json.loads(done.stdout.splitlines()[-1])
    lazy = ("tilefp.render", "tilefp.validate")
    assert [m for m in new["import"] if within(m, HEAVY + lazy)] == []
    assert "tilefp.cli" in new["import"]
    assert [m for m in new["floorplan"] if within(m, lazy)] == []
    assert "tilefp.render" in new["render"]
    assert (tmp_path / "plan.fp.svg").read_text().startswith("<svg ")
    assert "tilefp.validate" in new["validate"]
    assert [m for m in new["validate"] if within(m, HEAVY)] == []
