"""Golden outputs: the SDR variants must keep writing the same bytes.

The pinned hashes in ``data/sdr_documents.sha256`` were taken from the
documents the pipeline wrote before its hot loops were rewritten. A speed
change that alters any candidate, anchor or placement shows up here as a
different document. ``data/sdr_candidates.sha256`` pins the SDR candidate
sets themselves, ignoring their order, so a change that only reorders a
module's list still passes. Regenerate a file only for a change that is
meant to move what it pins, and say why in CHANGES.md.

``data/dense_place_lines.sha256`` pins the ``place`` lines of two dense
generated designs that need the placer to back up, so a change to the
search that picks another floorplan shows up here.
``data/dense_documents.sha256`` pins the whole documents of the three
dense designs, ``total`` line and backtrack count included, so a search
that reaches the same floorplan through other nodes shows up too.

``data/ordered_candidates.sha256`` pins the candidate lists, order
included, of the generated designs behind the benchmark's ``scaling``
(n=50 on xc7k410t) and ``dense`` (fx70t, n=16, seeds 0-2) cases. The
hashes were taken from the tessellation that priced every rect and
generated every module's list on its own, before it shared lists between
equal requirements and skipped rects already seen.

``data/solver_log.sha256`` pins the ``--solver-log`` records, timings
dropped, of SDR with and without the aspect-ratio window and of the
generated scaling design, so every halving's model size and objective is
held. The hashes were taken from the halving that applied the 75% rule to
each candidate, before it worked on span groups.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from tilefp.cli import main
from tilefp.design import generate_random_design, parse_design, write_design
from tilefp.fabric import parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.tessellation import generate_placements
from tilefp.validate import validate_floorplan

DATA = Path(__file__).parent / "data"


def golden_cases(name):
    cases = []
    for line in (DATA / name).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            case, digest, *options = line.split()
            cases.append(pytest.param(digest, options, id=case))
    return cases


def candidate_digest(candidates):
    """sha256 over every module's sorted (rect, resources, wastage) triples."""
    lines = []
    for module_id in sorted(candidates):
        triples = sorted((c.rect, c.resources, c.wastage_frames) for c in candidates[module_id])
        for rect, resources, wastage in triples:
            lines.append(f"{module_id} {' '.join(map(str, rect + resources))} {wastage}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def ordered_candidate_digest(candidates):
    """sha256 over every module's (rect, resources, wastage) triples, modules
    in design order and candidates in list order."""
    lines = [
        f"{module_id} {' '.join(map(str, c.rect + c.resources))} {c.wastage_frames}"
        for module_id, cands in candidates.items()
        for c in cands
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("digest, options", golden_cases("ordered_candidates.sha256"))
def test_generated_candidate_lists_are_pinned_in_order(digest, options):
    fabric_name, n, clb, bram, dsp, seed = options
    fabric = parse_fabric(fixture_path(fabric_name).read_text())
    occupancy = (float(clb), float(bram), float(dsp))
    design = generate_random_design(int(n), fabric, occupancy, int(seed))
    candidates = generate_placements(fabric, design, None)
    assert list(candidates) == [m.id for m in design.modules]
    assert ordered_candidate_digest(candidates) == digest


@pytest.mark.parametrize("digest, options", golden_cases("sdr_candidates.sha256"))
def test_sdr_candidate_sets_are_pinned(digest, options):
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    design = parse_design(fixture_path("sdr.design").read_text())
    ar_bounds = tuple(map(float, options)) if options else None
    assert candidate_digest(generate_placements(fabric, design, ar_bounds)) == digest


@pytest.mark.parametrize("digest, options", golden_cases("sdr_documents.sha256"))
def test_sdr_document_bytes_are_pinned(tmp_path, digest, options):
    out = tmp_path / "plan.fp"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "floorplan", "--fabric", str(fixture_path("fx70t.fabric")),
            "--design", str(fixture_path("sdr.design")), "--out", str(out), *options,
        ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def dense_runs(tmp_path_factory):
    """Exit code and document (None on failure) of the generated fx70t
    designs n=16 at occupancy 0.8/0.5/0.5, design seeds 0-2, run with
    --no-ar and the default time budget, so node budgets decide."""
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    work = tmp_path_factory.mktemp("dense")
    runs = {}
    for seed in (0, 1, 2):
        design = work / f"s{seed}.design"
        design.write_text(write_design(generate_random_design(16, fabric, (0.8, 0.5, 0.5), seed)))
        out = work / f"s{seed}.fp"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "floorplan", "--fabric", str(fixture_path("fx70t.fabric")),
                "--design", str(design), "--no-ar", "--out", str(out),
            ])
        runs[seed] = (code, out.read_text() if code == 0 else None)
    return runs


@pytest.mark.parametrize("digest, options", golden_cases("dense_place_lines.sha256"))
def test_dense_place_lines_are_pinned(dense_runs, digest, options):
    code, document = dense_runs[int(options[0])]
    assert code == 0
    place = "".join(line + "\n" for line in document.splitlines() if line.startswith("place "))
    assert hashlib.sha256(place.encode()).hexdigest() == digest


@pytest.mark.parametrize("digest, options", golden_cases("dense_documents.sha256"))
def test_dense_documents_are_pinned(dense_runs, digest, options):
    code, document = dense_runs[int(options[0])]
    assert code == 0
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def test_dense_seed0_solves_with_a_valid_document(dense_runs):
    code, document = dense_runs[0]
    assert code == 0
    assert validate_floorplan(document, fixture_path("fx70t.fabric").read_text()) == []


def solver_log_digest(work, fabric_name, design, options):
    """sha256 over the ``--solver-log`` records of one floorplan run, each
    record without its ``solve_ms`` timing. ``design`` names a fixture, or
    a generated design as ``gen:n:clb:bram:dsp:seed``."""
    fabric_path = fixture_path(fabric_name)
    if design.startswith("gen:"):
        n, clb, bram, dsp, seed = design.split(":")[1:]
        generated = generate_random_design(
            int(n), parse_fabric(fabric_path.read_text()),
            (float(clb), float(bram), float(dsp)), int(seed),
        )
        design_path = work / "generated.design"
        design_path.write_text(write_design(generated))
    else:
        design_path = fixture_path(design)
    log = work / "solves.jsonl"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([
            "floorplan", "--fabric", str(fabric_path), "--design", str(design_path),
            "--out", str(work / "plan.fp"), "--solver-log", str(log), *options,
        ])
    assert code == 0
    records = []
    for line in log.read_text().splitlines():
        record = json.loads(line)
        del record["solve_ms"]
        records.append(json.dumps(record))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


@pytest.mark.parametrize("digest, options", golden_cases("solver_log.sha256"))
def test_solver_log_records_are_pinned(tmp_path, digest, options):
    fabric_name, design, *flags = options
    assert solver_log_digest(tmp_path, fabric_name, design, flags) == digest
