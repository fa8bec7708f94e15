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
that reaches the same floorplan through other nodes shows up too. Dense
seed 4 spends both placer node budgets without a floorplan; its exit code
and timeout fields are pinned, so a search that stops elsewhere shows up.

``data/ordered_candidates.sha256`` pins the candidate lists, order
included, of the generated designs behind the benchmark's ``scaling``
(n=50 on xc7k410t) and ``dense`` (fx70t, n=16, seeds 0-2) cases. The
hashes were taken from the tessellation that priced every rect and
generated every module's list on its own, before it shared lists between
equal requirements and skipped rects already seen.

``data/windowed_candidates.sha256`` pins the SDR candidate lists on fx70t
under three aspect-ratio windows, and under the default window with a
reserved hard block, in order: every rect with its wastage in list order,
then the list's tie order, so a change that only reorders a windowed list
shows up. The hashes were taken from the tessellation that tested the
window in its last expansion only.

``data/solver_log.sha256`` pins the ``--solver-log`` records, timings
dropped, of SDR with and without the aspect-ratio window and of the
generated scaling design, so every halving's model size and objective is
held. The hashes were taken from the halving that applied the 75% rule to
each candidate, before it worked on span groups.

``data/bqp_models.sha256`` pins every side-assignment model the halving
builds for SDR with and without the aspect-ratio window, the scaling
design and the three dense designs, failed solves included: each model's
variables, cost tables in full, capacities, fixed and parent-only members,
and what ``_solve_bqp`` returned for it. Floats are pinned bit for bit, so a
change to how connections are priced shows up even where the anchors stay.

``data/reserved_documents.sha256`` pins the documents of SDR, with and
without the aspect-ratio window, and of a generated n=16 design on fx70t
with a reserved hard block, so a change to the paths that skip reserved
tiles in tessellation and placement shows up. No fixture fabric has one.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from tilefp import bipartition
from tilefp.bipartition import compute_anchors
from tilefp.cli import EXIT_TIMEOUT, main
from tilefp.design import generate_random_design, parse_design, write_design
from tilefp.fabric import parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.place import PlacementTimeoutError
from tilefp.tessellation import generate_placements
from tilefp.validate import validate_floorplan

from helpers import candidate_records

DATA = Path(__file__).parent / "data"


def golden_cases(name):
    cases = []
    for line in (DATA / name).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            case, digest, *options = line.split()
            cases.append(pytest.param(digest, options, id=case))
    return cases


def priced(fabric, design, candidates):
    """Each module's (rect, resources, wastage) triples in list order: the
    resources recounted by the oracle, the wastage read from the list's
    column and checked against the frames the resources hold beyond the
    module's requirement."""
    out = {}
    for module_id, cands in candidates.items():
        req = design.module(module_id).req
        out[module_id] = records = candidate_records(fabric, cands)
        for c in records:
            assert c.wastage_frames == fabric.frames_of(c.resources - req), (module_id, c)
    return out


def candidate_digest(fabric, design, candidates):
    """sha256 over every module's sorted (rect, resources, wastage) triples."""
    lines = []
    records = priced(fabric, design, candidates)
    for module_id in sorted(records):
        for rect, resources, wastage in sorted(records[module_id]):
            lines.append(f"{module_id} {' '.join(map(str, rect + resources))} {wastage}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def ordered_candidate_digest(fabric, design, candidates):
    """sha256 over every module's (rect, resources, wastage) triples, modules
    in design order and candidates in list order."""
    lines = [
        f"{module_id} {' '.join(map(str, c.rect + c.resources))} {c.wastage_frames}"
        for module_id, records in priced(fabric, design, candidates).items()
        for c in records
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
    assert ordered_candidate_digest(fabric, design, candidates) == digest


def windowed_list_digest(candidates):
    """sha256 over every module's list, modules in design order: its rects
    with their wastages in list order, then its tie order."""
    lines = []
    for module_id, cands in candidates.items():
        lines += [
            f"{module_id} {' '.join(map(str, rect))} {wastage}"
            for rect, wastage in zip(cands, cands.wastage, strict=True)
        ]
        lines.append(f"{module_id} ties {' '.join(map(str, cands.ties))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("digest, options", golden_cases("windowed_candidates.sha256"))
def test_windowed_sdr_lists_are_pinned_in_order(digest, options):
    lo, hi, *block = options
    fabric_text = fixture_path("fx70t.fabric").read_text()
    if block:
        fabric_text += f"reserved {' '.join(block)}\n"
    fabric = parse_fabric(fabric_text)
    design = parse_design(fixture_path("sdr.design").read_text())
    candidates = generate_placements(fabric, design, (float(lo), float(hi)))
    assert list(candidates) == [m.id for m in design.modules]
    assert windowed_list_digest(candidates) == digest


@pytest.mark.parametrize("digest, options", golden_cases("sdr_candidates.sha256"))
def test_sdr_candidate_sets_are_pinned(digest, options):
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    design = parse_design(fixture_path("sdr.design").read_text())
    ar_bounds = tuple(map(float, options)) if options else None
    candidates = generate_placements(fabric, design, ar_bounds)
    assert candidate_digest(fabric, design, candidates) == digest


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
    """Exit code, document (None on failure) and standard error of the
    generated fx70t designs n=16 at occupancy 0.8/0.5/0.5, design seeds
    0-2 and 4, run with --no-ar and the default time budget, so node
    budgets decide."""
    fabric = parse_fabric(fixture_path("fx70t.fabric").read_text())
    work = tmp_path_factory.mktemp("dense")
    runs = {}
    for seed in (0, 1, 2, 4):
        design = work / f"s{seed}.design"
        design.write_text(write_design(generate_random_design(16, fabric, (0.8, 0.5, 0.5), seed)))
        out = work / f"s{seed}.fp"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([
                "floorplan", "--fabric", str(fixture_path("fx70t.fabric")),
                "--design", str(design), "--no-ar", "--out", str(out),
            ])
        runs[seed] = (code, out.read_text() if code == 0 else None, err.getvalue())
    return runs


@pytest.mark.parametrize("digest, options", golden_cases("dense_place_lines.sha256"))
def test_dense_place_lines_are_pinned(dense_runs, digest, options):
    code, document, _ = dense_runs[int(options[0])]
    assert code == 0
    place = "".join(line + "\n" for line in document.splitlines() if line.startswith("place "))
    assert hashlib.sha256(place.encode()).hexdigest() == digest


@pytest.mark.parametrize("digest, options", golden_cases("dense_documents.sha256"))
def test_dense_documents_are_pinned(dense_runs, digest, options):
    code, document, _ = dense_runs[int(options[0])]
    assert code == 0
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def test_dense_seed4_spends_both_node_budgets(dense_runs):
    code, document, err = dense_runs[4]
    assert (code, document) == (EXIT_TIMEOUT, None)
    assert err.splitlines()[0] == str(PlacementTimeoutError(15, 16, "nodes"))


def test_dense_seed0_solves_with_a_valid_document(dense_runs):
    code, document, _ = dense_runs[0]
    assert code == 0
    assert validate_floorplan(document, fixture_path("fx70t.fabric").read_text()) == []


def pinned_design(fabric, design):
    """The fixture design named ``design``, or the design generated on
    ``fabric`` as ``gen:n:clb:bram:dsp:seed``."""
    if not design.startswith("gen:"):
        return parse_design(fixture_path(design).read_text())
    n, clb, bram, dsp, seed = design.split(":")[1:]
    return generate_random_design(
        int(n), fabric, (float(clb), float(bram), float(dsp)), int(seed)
    )


def solver_log_digest(work, fabric_name, design, options):
    """sha256 over the ``--solver-log`` records of one floorplan run, each
    record without its ``solve_ms`` timing. ``design`` names a fixture, or
    a generated design as ``gen:n:clb:bram:dsp:seed``."""
    fabric_path = fixture_path(fabric_name)
    if design.startswith("gen:"):
        design_path = work / "generated.design"
        design_path.write_text(write_design(
            pinned_design(parse_fabric(fabric_path.read_text()), design)
        ))
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


def bqp_model_record(model, result):
    """One solve as a JSON line: the model's fields in declaration order,
    pairs in dict order, floats as ``float.hex``, then the result."""
    def hexes(values):
        return [float(x).hex() for x in values]

    return json.dumps([
        model.variables,
        [hexes(costs) for costs in model.linear],
        [[i, j, hexes(corners[0]), hexes(corners[1])] for (i, j), corners in model.pairs.items()],
        float(model.const).hex(),
        [list(occ) for occ in model.occ0],
        [list(occ) for occ in model.occ1],
        hexes(model.avail0),
        hexes(model.avail1),
        list(model.fixed.items()),
        model.parent_only,
        None if result is None else list(result.items()),
    ])


@pytest.mark.parametrize("digest, options", golden_cases("bqp_models.sha256"))
def test_bqp_models_are_pinned(monkeypatch, digest, options):
    fabric_name, design_spec, ar = options
    fabric = parse_fabric(fixture_path(fabric_name).read_text())
    design = pinned_design(fabric, design_spec)
    ar_bounds = None if ar == "none" else tuple(map(float, ar.split(":")))
    solve = bipartition._solve_bqp
    records = []

    def recording_solve(model, *args, **kwargs):
        result = solve(model, *args, **kwargs)
        records.append(bqp_model_record(model, result))
        return result

    monkeypatch.setattr(bipartition, "_solve_bqp", recording_solve)
    compute_anchors(fabric, design, generate_placements(fabric, design, ar_bounds))
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == digest


@pytest.mark.parametrize("digest, options", golden_cases("reserved_documents.sha256"))
def test_reserved_tile_documents_are_pinned(tmp_path, digest, options):
    wastage, design_spec, *flags = options
    fabric_text = fixture_path("fx70t.fabric").read_text() + "reserved 4 15 7 21\n"
    fabric_path = tmp_path / "reserved.fabric"
    fabric_path.write_text(fabric_text)
    design_path = tmp_path / "pinned.design"
    design_path.write_text(write_design(pinned_design(parse_fabric(fabric_text), design_spec)))
    out = tmp_path / "plan.fp"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "floorplan", "--fabric", str(fabric_path), "--design", str(design_path),
            "--out", str(out), *flags,
        ])
    assert code == 0
    document = out.read_text()
    assert validate_floorplan(document, fabric_text) == []
    total = document.splitlines()[-1].split()
    assert total[:2] == ["total", "wastage"]
    assert total[2] == wastage
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
