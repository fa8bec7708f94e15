"""Set-up probe: import ``tilefp.cli`` and generate one workload's designs.

run.py starts this script as a fresh process several times and reports the
median as ``setup_s``, because an import can only be timed once per process.

    python3 perfbench/prepare.py --workload scaling --seed 0 --out DIR

Run it from the repository root. It writes the workload's design files into
DIR and prints one JSON line: ``{"import_s": ..., "generate_s": ...}``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from workloads import WORKLOADS, build_workload, generate_designs, tilefp_src


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    fixtures = tilefp_src(Path.cwd()) / "tilefp" / "fixtures"

    started = time.perf_counter()
    import tilefp.cli  # noqa: F401  the import is what is being timed

    imported = time.perf_counter()
    generate_designs(build_workload(args.workload, args.seed, fixtures), fixtures, args.out)
    generated = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "generate_s": generated - imported}))


if __name__ == "__main__":
    main()
