"""Command-line behavior: exit codes, documents, renders, determinism."""

import io
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tilefp.cli import main
from tilefp.design import parse_design
from tilefp.fixtures import fixture_path
from tilefp.validate import parse_floorplan, validate_floorplan

FX = str(fixture_path("fx70t.fabric"))
SDR = str(fixture_path("sdr.design"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_sdr_min_wastage_run(tmp_path, capsys):
    out = tmp_path / "sdr.fp"
    code = main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0", "--out", str(out),
    ])
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("OK wastage=")
    parts = dict(p.split("=") for p in summary.split()[1:])
    assert set(parts) == {"wastage", "wirelength", "runtime_ms"}
    doc = parse_floorplan(out.read_text())
    assert doc.alpha == 1.0 and doc.ar_bounds is None
    assert len(doc.records) == 5
    assert doc.total_wastage == int(parts["wastage"])


def test_sdr_document_determinism(tmp_path):
    outs = []
    for name in ("a.fp", "b.fp"):
        out = tmp_path / name
        assert main([
            "floorplan", "--fabric", FX, "--design", SDR,
            "--no-ar", "--alpha", "1", "--beta", "0", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.design", "module only_one_field\n")
    missing = str(tmp_path / "nope.design")
    superscript = write(tmp_path, "sup.fabric", "rows \u00b2\ncolumns CC\n")
    latin1_fabric = tmp_path / "latin1.fabric"
    latin1_fabric.write_bytes(b"# caf\xe9\nrows 2\ncolumns CC\n")
    latin1_design = tmp_path / "latin1.design"
    latin1_design.write_bytes(b"module caf\xe9 1 0 0\n")
    # options, and the file the error message must name
    cases = [
        (["--fabric", FX, "--design", bad], None),
        (["--fabric", FX, "--design", missing], missing),
        (["--fabric", superscript, "--design", SDR], None),
        (["--fabric", str(latin1_fabric), "--design", SDR], str(latin1_fabric)),
        (["--fabric", FX, "--design", str(latin1_design)], str(latin1_design)),
    ]
    for options, named in cases:
        assert main(["floorplan", *options]) == 1, options
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("PARSE_ERROR"), options
        if named:
            assert named in captured.err, options
    assert main([
        "generate", "-n", "2", "--fabric", str(latin1_fabric),
        "--occupancy", "0.5", "0.5", "0.5",
    ]) == 1
    err = capsys.readouterr().err
    assert "can't decode" in err and str(latin1_fabric) in err
    for options, named in [
        (["--fabric", str(latin1_fabric), "--plan", bad], str(latin1_fabric)),
        (["--fabric", FX, "--plan", str(latin1_design)], str(latin1_design)),
    ]:
        assert main(["validate", *options]) == 1, options
        assert named in capsys.readouterr().err, options


def test_oversized_device_is_a_parse_error(tmp_path):
    """A device too large for memory ends every subcommand with exit 1 and a
    message, not a traceback."""
    fabric = write(tmp_path, "huge.fabric", "rows 100000000\ncolumns CC\n")
    design = write(tmp_path, "two.design", "module a 1 0 0\nmodule b 1 0 0\n")
    plan = str(tmp_path / "two.fp")
    small = write(tmp_path, "small.fabric", "rows 2\ncolumns CC\n")
    assert main(["floorplan", "--fabric", small, "--design", design, "--no-ar", "--out", plan]) == 0
    # the child caps its own address space at 200 MB before importing tilefp
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))\n"
        "from tilefp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for command, options, summary in [
        ("floorplan", ["--design", design], "PARSE_ERROR wastage=0"),
        ("generate", ["-n", "2", "--occupancy", "0.5", "0.5", "0.5"], None),
        ("validate", ["--plan", plan], None),
    ]:
        done = subprocess.run(
            [sys.executable, "-c", script, command, "--fabric", fabric, *options],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 1, command
        lines = done.stdout.splitlines()
        if summary is None:
            assert lines == [], command
        else:
            assert len(lines) == 1 and lines[0].startswith(summary)
        assert "Traceback" not in done.stderr, command
        assert "MemoryError" in done.stderr, command


def test_infeasible_module_exit_code(tmp_path, capsys):
    fab = write(tmp_path, "t.fabric", "rows 2\ncolumns CCC\n")
    design = write(tmp_path, "t.design", "module m 1 0 99\nmodule k 1 0 0\n")
    assert main(["floorplan", "--fabric", fab, "--design", design]) == 2
    assert capsys.readouterr().out.startswith("INFEASIBLE_MODULE")
    # with several modules infeasible, the first in design order is named
    both = write(tmp_path, "both.design", "module k 9 0 0\nmodule m 1 0 99\n")
    assert main(["floorplan", "--fabric", fab, "--design", both]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("INFEASIBLE_MODULE")
    assert "module 'k'" in captured.err and "module 'm'" not in captured.err


EDGE_FABRICS = {
    # case: (fabric, design, extra options, exit code, stderr excerpt)
    "clb-only": (
        "rows 4\ncolumns CCCCCCCC\n",
        "module a 4 0 0\nmodule b 2 0 0\nconnect a b 8\n", [], 0, None,
    ),
    "one-row": (
        "rows 1\ncolumns CCBCCDCC\n",
        "module a 2 1 0\nmodule b 2 0 1\nconnect a b 8\n", ["--no-ar"], 0, None,
    ),
    "one-column": (
        "rows 8\ncolumns C\n",
        "module a 2 0 0\nmodule b 2 0 0\nconnect a b 8\n", [], 0, None,
    ),
    "single-module": (Path(FX).read_text(), "module m 5 1 1\n", [], 0, None),
    "bram-column-reserved": (
        "rows 4\ncolumns CCBCC\nreserved 0 2 3 2\n", "module m 1 1 0\n", [], 2, "'m'",
    ),
    "dsp-column-reserved": (
        "rows 4\ncolumns CCDCC\nreserved 0 2 3 2\n", "module m 1 0 1\n", [], 2, "'m'",
    ),
    "all-reserved": (
        "rows 2\ncolumns CCC\nreserved 0 0 1 2\n", "module m 1 0 0\n", [], 2, "'m'",
    ),
    "one-row-default-window": (
        "rows 1\ncolumns CCCC\n", "module m 1 0 0\n", [], 2,
        "aspect-ratio bounds reject everything",
    ),
}


@pytest.mark.parametrize("case", list(EDGE_FABRICS))
def test_edge_fabrics_floorplan_and_validate(tmp_path, capsys, case):
    fabric_text, design_text, options, expected, excerpt = EDGE_FABRICS[case]
    fab = write(tmp_path, "e.fabric", fabric_text)
    design = write(tmp_path, "e.design", design_text)
    out = tmp_path / "e.fp"
    code = main(["floorplan", "--fabric", fab, "--design", design, "--out", str(out), *options])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == expected
    status = "OK" if expected == 0 else "INFEASIBLE_MODULE"
    assert len(lines) == 1 and lines[0].startswith(f"{status} wastage=")
    if expected:
        assert excerpt in captured.err
        assert not out.exists()
        return
    assert main(["validate", "--fabric", fab, "--plan", str(out)]) == 0
    assert capsys.readouterr().out == "VALID violations=0\n"


# An AR window whose bounds `:g` would round: 0.6666666 becomes 0.666667.
AR_SEVEN_DIGITS = ["--ar-min", "0.6666666", "--ar-max", "0.7"]


@st.composite
def small_floorplan_inputs(draw):
    """Fabric and design documents: a small device, sometimes with reserved
    rects, and 1-4 modules with random requirements and connections."""
    rows = draw(st.integers(1, 4))
    columns = "".join(draw(st.lists(st.sampled_from("CCCCBD"), min_size=1, max_size=12)))
    lines = [f"rows {rows}", f"columns {columns}"]
    for _ in range(draw(st.integers(0, 2))):
        r0 = draw(st.integers(0, rows - 1))
        c0 = draw(st.integers(0, len(columns) - 1))
        r1 = min(rows - 1, r0 + draw(st.integers(0, 1)))
        c1 = min(len(columns) - 1, c0 + draw(st.integers(0, 2)))
        lines.append(f"reserved {r0} {c0} {r1} {c1}")
    reqs = draw(st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([0, 0, 1]), st.sampled_from([0, 0, 1]))
        .filter(any),
        min_size=1, max_size=4,
    ))
    modules = [f"m{i}" for i in range(len(reqs))]
    design = [f"module {m} {clb} {bram} {dsp}" for m, (clb, bram, dsp) in zip(modules, reqs)]
    for i, a in enumerate(modules):
        for b in modules[i + 1:]:
            if draw(st.booleans()):
                design.append(f"connect {a} {b} {draw(st.integers(1, 64))}")
    options = draw(st.sampled_from([
        ["--no-ar"], ["--no-ar", "--alpha", "1", "--beta", "0"], [], AR_SEVEN_DIGITS,
    ]))
    return "\n".join(lines) + "\n", "\n".join(design) + "\n", options


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_floorplan_inputs())
# The one 3x2 candidate's ratio 2/3 lies inside the window but outside a
# window rounded to six digits, which the document must not write.
@example(("rows 3\ncolumns CC\n", "module a 6 0 0\n", AR_SEVEN_DIGITS))
def test_floorplan_outcome_property(inputs):
    """Any small valid input either gets a document that validates or exits
    2, 3 or 4; every exit prints exactly one summary line."""
    fabric_text, design_text, options = inputs
    with tempfile.TemporaryDirectory() as tmp:
        fab = write(Path(tmp), "p.fabric", fabric_text)
        design = write(Path(tmp), "p.design", design_text)
        out = Path(tmp) / "p.fp"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([
                "floorplan", "--fabric", fab, "--design", design, "--out", str(out), *options,
            ])
        lines = stdout.getvalue().splitlines()
        status = {0: "OK", 2: "INFEASIBLE_MODULE", 3: "INFEASIBLE_FLOORPLAN", 4: "TIMEOUT"}
        assert code in status, stderr.getvalue()
        assert len(lines) == 1 and lines[0].startswith(f"{status[code]} wastage=")
        if code == 0:
            assert validate_floorplan(out.read_text(), fabric_text) == []
        else:
            assert not out.exists()


def test_infeasible_floorplan_exit_code(tmp_path, capsys):
    fab = write(tmp_path, "t.fabric", "rows 1\ncolumns CC\n")
    design = write(tmp_path, "t.design", "module a 2 0 0\nmodule b 2 0 0\n")
    assert main(["floorplan", "--fabric", fab, "--design", design, "--no-ar"]) == 3
    assert capsys.readouterr().out.startswith("INFEASIBLE_FLOORPLAN")


def test_timeout_exit_code(capsys):
    code = main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--time-budget", "0",
    ])
    assert code == 4
    assert capsys.readouterr().out.startswith("TIMEOUT")


def test_bad_weights_and_bounds(tmp_path, capsys):
    nan_weights = write(tmp_path, "nan.design", "module a 1 0 0\nweights nan 0.5\n")
    bad = [
        ["--design", SDR, "--alpha", "0", "--beta", "0"],
        ["--design", SDR, "--ar-min", "0.9", "--ar-max", "0.2"],
        ["--design", SDR, "--alpha", "nan"],
        ["--design", SDR, "--alpha", "inf"],
        ["--design", SDR, "--beta", "nan"],
        ["--design", nan_weights],
        ["--design", SDR, "--time-budget", "nan"],
        ["--design", SDR, "--time-budget", "-1"],
    ]
    for options in bad:
        assert main(["floorplan", "--fabric", FX, *options]) == 1, options
    out = capsys.readouterr()
    assert out.out.count("PARSE_ERROR") == len(bad)


def test_cli_weights_override_design_file(tmp_path):
    out = tmp_path / "w.fp"
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "0.25", "--beta", "0.75", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0] == "mode alpha 0.25 beta 0.75 ar off"
    # a weight that `:g` would round is written in full
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "0.1234567", "--out", str(out),
    ]) == 0
    assert parse_floorplan(out.read_text()).alpha == 0.1234567


def test_stdout_document_stays_machine_readable(capsys):
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0",
    ]) == 0
    captured = capsys.readouterr()
    # the summary moves to stderr so a redirected document parses as-is
    doc = parse_floorplan(captured.out)
    assert len(doc.records) == 5
    assert captured.err.strip().startswith("OK wastage=")


def test_render_ascii_stdout(capsys):
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0", "--render", "ascii",
    ]) == 0
    out = capsys.readouterr().out
    grid = [ln for ln in out.splitlines() if len(ln) == 44]
    assert len(grid) == 12


def test_render_svg_sibling_file(tmp_path):
    out = tmp_path / "plan.fp"
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0",
        "--out", str(out), "--render", "svg",
    ]) == 0
    svg = tmp_path / "plan.fp.svg"
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    tiles = [e for e in root.iter(f"{ns}rect") if e.get("class") == "tile"]
    assert len(tiles) == 12 * 44


def test_render_never_lands_on_the_document(tmp_path):
    out = tmp_path / "plan.txt"
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0",
        "--out", str(out), "--render", "ascii",
    ]) == 0
    doc = out.read_text()
    assert doc.startswith("mode alpha")
    art = (tmp_path / "plan.txt.ascii").read_text()
    assert len([ln for ln in art.splitlines() if len(ln) == 44]) == 12


def test_solver_log_written(tmp_path):
    log = tmp_path / "solves.jsonl"
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0", "--solver-log", str(log),
    ]) == 0
    import json

    records = [json.loads(ln) for ln in log.read_text().splitlines()]
    assert records
    assert {"axis", "rect", "variables", "objective", "solve_ms"} <= set(records[0])


@pytest.mark.parametrize("where", ["missing-dir/solves.jsonl", ".", "/dev/full"])
def test_unwritable_solver_log_is_a_parse_error(tmp_path, capsys, where):
    log = tmp_path / where  # an absolute ``where`` replaces tmp_path
    if where.startswith("/") and not log.exists():
        pytest.skip(f"{where} not on this system")
    out = tmp_path / "plan.fp"
    code = main([
        "floorplan", "--fabric", FX, "--design", SDR, "--no-ar",
        "--out", str(out), "--solver-log", str(log),
    ])
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("PARSE_ERROR wastage=0")
    assert "Traceback" not in captured.err
    # a log that cannot be opened fails before tessellation and one that
    # cannot be written fails before the document is written
    assert not out.exists()


def test_generate_roundtrip_and_determinism(tmp_path, capsys):
    fab = str(fixture_path("xc7k410t.fabric"))
    texts = []
    for name in ("g1.design", "g2.design"):
        out = tmp_path / name
        assert main([
            "generate", "-n", "10", "--fabric", fab,
            "--occupancy", "0.7", "0.11", "0.06",
            "--seed", "3", "--out", str(out),
        ]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    design = parse_design(texts[0])
    assert len(design.modules) == 10


def test_generate_rejects_single_module(tmp_path, capsys):
    fab = str(fixture_path("xc7k410t.fabric"))
    assert main([
        "generate", "-n", "1", "--fabric", fab,
        "--occupancy", "0.5", "0.1", "0.1",
    ]) == 2
    assert "two modules" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    out = tmp_path / "v.fp"
    assert main([
        "floorplan", "--fabric", FX, "--design", SDR,
        "--no-ar", "--alpha", "1", "--beta", "0", "--out", str(out),
    ]) == 0
    assert main(["validate", "--fabric", FX, "--plan", str(out)]) == 0
    capsys.readouterr()

    lines = out.read_text().splitlines()
    fields = lines[1].split()
    fields[9] = str(int(fields[9]) + 1)
    lines[1] = " ".join(fields)
    bad = write(tmp_path, "bad.fp", "\n".join(lines) + "\n")
    assert main(["validate", "--fabric", FX, "--plan", bad]) == 3
    captured = capsys.readouterr()
    assert captured.out.strip() == "INVALID violations=1"
    assert "wastage says" in captured.err
