"""Command-line behavior: exit codes, documents, renders, determinism."""

import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tilefp import bipartition, place
from tilefp.cli import _FAILURES, EXIT_OK, build_parser, main
from tilefp.design import parse_design
from tilefp.fabric import parse_fabric
from tilefp.fixtures import fixture_path
from tilefp.validate import parse_floorplan, validate_floorplan

FX = str(fixture_path("fx70t.fabric"))
SDR = str(fixture_path("sdr.design"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    """``main``'s exit code, standard output and standard error; a usage
    error ends ``main`` with a ``SystemExit`` that carries the code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# Usage errors of each subcommand, as (option dropped with its value,
# arguments appended) applied to a valid invocation.
USAGE_ERRORS = {
    "floorplan": [
        ("--design", []),
        (None, ["--alpha", "abc"]),
        (None, ["--render", "pdf"]),
        (None, ["--time-budget"]),
        (None, ["--bogus"]),
        (None, ["stray"]),
    ],
    "generate": [
        ("-n", []),
        (None, ["-n", "abc"]),
        (None, ["--occupancy", "0.5", "0.5"]),
        (None, ["--seed", "1.5"]),
        (None, ["--bogus"]),
    ],
    "validate": [
        ("--plan", []),
        ("--fabric", []),
        (None, ["--fabric"]),
        (None, ["stray"]),
    ],
}


def usage_errors(command):
    """No usage error (None) about half the time, else one of ``command``'s."""
    return st.one_of(st.none(), st.sampled_from(USAGE_ERRORS[command]))


def with_usage_error(argv, error):
    """``argv`` with a ``USAGE_ERRORS`` entry applied; None keeps it valid."""
    if error is None:
        return argv
    drop, extra = error
    if drop is not None:
        i = argv.index(drop)
        argv = argv[:i] + argv[i + 2:]
    return argv + extra


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
        ("generate", ["-n", "2", "--occupancy", "0.5", "0.5", "0.5"], "PARSE_ERROR modules=0"),
        ("validate", ["--plan", plan], "PARSE_ERROR violations=0"),
    ]:
        done = subprocess.run(
            [sys.executable, "-c", script, command, "--fabric", fabric, *options],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 1, command
        lines = done.stdout.splitlines()
        assert len(lines) == 1 and lines[0].startswith(summary)
        assert "Traceback" not in done.stderr, command
        assert "MemoryError" in done.stderr, command


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command, options, summary, code", [
    ("floorplan", ["--design", SDR, "--no-ar"], r"PARSE_ERROR wastage=0 wirelength=0 runtime_ms=\d+", 1),
    ("generate", ["-n", "4", "--occupancy", "0.5", "0.5", "0.5"], "PARSE_ERROR modules=0", 1),
    ("validate", ["--plan", "sdr.fp"], "VALID violations=0", 0),
], ids=["floorplan", "generate", "validate"])
def test_closed_stdout_moves_the_summary_to_stderr(tmp_path, command, options, summary, code, buffered):
    """A standard output whose reader has gone before the run starts ends
    the run with its one summary line on standard error and the documented
    exit code, with no traceback, whether the write or the flush at exit
    meets the broken pipe. ``floorplan`` and ``generate`` cannot write their
    document there, so they exit 1; ``validate`` keeps its verdict."""
    plan = str(tmp_path / "sdr.fp")
    assert main(["floorplan", "--fabric", FX, "--design", SDR, "--no-ar", "--out", plan]) == 0
    options = [plan if option == "sdr.fp" else option for option in options]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tilefp.cli", command, "--fabric", FX, *options],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    summaries = [
        line for line in done.stderr.splitlines()
        if line.split(" ")[0] in {"OK", "PARSE_ERROR", "VALID", "INVALID"}
    ]
    assert len(summaries) == 1 and re.fullmatch(summary, summaries[0])


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
    # frame weights are unbounded ints: rects that take in a DSP column
    # waste 10**23 frames and more, far above any machine word
    "huge-dsp-frame-weight": (
        "rows 4\ncolumns CCDCCBCCDCCC\nframes 36 30 100000000000000000000000\n",
        "module a 6 0 0\nmodule b 3 0 1\nmodule c 4 1 0\nconnect a b 8\nconnect b c 8\n",
        ["--no-ar"], 0, None,
    ),
    # a 4,300-digit DSP weight: the default window's rects would waste more
    # frames than Python prints digits of an int, so the fabric is refused
    "int-string-limit-frame-weight": (
        "rows 4\ncolumns CCDCCBCCDCCC\nframes 36 30 " + "9" * 4300 + "\n",
        "module a 6 0 0\nmodule b 3 0 1\nmodule c 4 1 0\nconnect a b 8\nconnect b c 8\n",
        [], 1, "line 3: a frame count times the 48 tiles reaches 10**4300",
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
    status = {0: "OK", 1: "PARSE_ERROR", 2: "INFEASIBLE_MODULE"}[expected]
    assert len(lines) == 1 and lines[0].startswith(f"{status} wastage=")
    assert "Traceback" not in captured.err
    if expected:
        assert excerpt in captured.err
        assert not out.exists()
        return
    assert main(["validate", "--fabric", fab, "--plan", str(out)]) == 0
    assert capsys.readouterr().out == "VALID violations=0\n"


# An AR window whose bounds `:g` would round: 0.6666666 becomes 0.666667.
AR_SEVEN_DIGITS = ["--ar-min", "0.6666666", "--ar-max", "0.7"]

# Characters a module id may not hold although they are no whitespace: C0
# and C1 controls and the noncharacters XML 1.0 leaves out.
BAD_ID_CHARS = "\x01\x7f\x9f\ufffe\uffff"


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
    # in one design of five, an id the design parser must reject
    modules[-1] += draw(st.sampled_from([""] * 20 + list(BAD_ID_CHARS)))
    design = [f"module {m} {clb} {bram} {dsp}" for m, (clb, bram, dsp) in zip(modules, reqs)]
    for i, a in enumerate(modules):
        for b in modules[i + 1:]:
            if draw(st.booleans()):
                design.append(f"connect {a} {b} {draw(st.integers(1, 64))}")
    options = draw(st.sampled_from([
        ["--no-ar"], ["--no-ar", "--alpha", "1", "--beta", "0"], [], AR_SEVEN_DIGITS,
        ["--no-ar", "--render", "svg"],
    ]))
    return "\n".join(lines) + "\n", "\n".join(design) + "\n", options


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_floorplan_inputs(), usage_errors("floorplan"))
# The one 3x2 candidate's ratio 2/3 lies inside the window but outside a
# window rounded to six digits, which the document must not write.
@example(("rows 3\ncolumns CC\n", "module a 6 0 0\n", AR_SEVEN_DIGITS), None)
# a control character in an id would make the SVG label malformed XML
@example(("rows 1\ncolumns CC\n", "module a\x01b 1 0 0\n", ["--no-ar", "--render", "svg"]), None)
def test_floorplan_outcome_property(inputs, usage):
    """Any small valid input either gets a document that validates, and an
    SVG that parses when asked for, or exits 2, 3 or 4; a usage error or a
    module id with a character XML cannot carry exits 1. Every exit prints
    exactly one summary line."""
    fabric_text, design_text, options = inputs
    bad_id = any(ch in BAD_ID_CHARS for ch in design_text)
    with tempfile.TemporaryDirectory() as tmp:
        fab = write(Path(tmp), "p.fabric", fabric_text)
        design = write(Path(tmp), "p.design", design_text)
        out = Path(tmp) / "p.fp"
        code, stdout, stderr = run_cli(with_usage_error([
            "floorplan", "--fabric", fab, "--design", design, "--out", str(out), *options,
        ], usage))
        lines = stdout.splitlines()
        status = {
            0: "OK", 1: "PARSE_ERROR", 2: "INFEASIBLE_MODULE", 3: "INFEASIBLE_FLOORPLAN",
            4: "TIMEOUT",
        }
        assert code in status, stderr
        assert len(lines) == 1 and lines[0].startswith(f"{status[code]} wastage=")
        assert (code == 1) == (usage is not None or bad_id), stderr
        if usage:
            assert stderr.startswith("usage: tilefp floorplan ")
        svg = Path(tmp) / "p.fp.svg"
        if code == 0:
            assert validate_floorplan(out.read_text(), fabric_text) == []
            assert svg.exists() == ("--render" in options)
            if svg.exists():
                ET.parse(svg)
        else:
            assert not out.exists() and not svg.exists()


# Text that is no floorplan document: arbitrary characters, or words and
# numbers of the document format in random order.
garbage_plans = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=80),
    st.lists(
        st.sampled_from(["mode", "alpha", "beta", "ar", "off", "place", "total", "wastage",
                         "wirelength", "backtracks", "a", "0", "1", "0.5", "#", "\n"]),
        max_size=30,
    ).map(" ".join),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    small_floorplan_inputs(),
    st.sampled_from(["missing", "undecodable", "garbage", "floorplan", "edited"]),
    garbage_plans,
    st.data(),
    usage_errors("validate"),
)
def test_validate_outcome_property(inputs, kind, garbage, data, usage):
    """Every ``validate`` exit is 0, 1 or 3 and prints exactly one summary
    line: a missing, undecodable or malformed plan exits 1, the document a
    floorplan run writes exits 0, one with a field changed exits 0, 1 or 3,
    and a usage error exits 1."""
    fabric_text, design_text, options = inputs
    with tempfile.TemporaryDirectory() as tmp:
        fab = write(Path(tmp), "p.fabric", fabric_text)
        plan = Path(tmp) / "p.fp"
        if kind == "undecodable":
            plan.write_bytes(b"mode alpha 1 beta 0 ar off\n\xe9\n")
        elif kind == "garbage":
            plan.write_text(garbage, encoding="utf-8")
        elif kind in ("floorplan", "edited"):
            design = write(Path(tmp), "p.design", design_text)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(["floorplan", "--fabric", fab, "--design", design, "--out", str(plan),
                      *options])
            if kind == "edited" and plan.exists():
                lines = plan.read_text().splitlines()
                i = data.draw(st.integers(0, len(lines) - 1))
                fields = lines[i].split()
                fields[data.draw(st.integers(0, len(fields) - 1))] = str(
                    data.draw(st.integers(-1, 40))
                )
                lines[i] = " ".join(fields)
                plan.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run_cli(
            with_usage_error(["validate", "--fabric", fab, "--plan", str(plan)], usage)
        )
        lines = stdout.splitlines()
        status = {0: "VALID", 1: "PARSE_ERROR", 3: "INVALID"}
        assert code in status, stderr
        assert len(lines) == 1 and lines[0].startswith(f"{status[code]} violations=")
        if usage:
            assert code == 1 and stderr.startswith("usage: tilefp validate ")
        elif kind in ("missing", "undecodable") or (kind == "floorplan" and not plan.exists()):
            assert code == 1
        elif kind == "floorplan":
            assert code == 0
        if code == 3:
            assert lines[0] == f"INVALID violations={len(stderr.splitlines())}"
        else:
            assert lines[0].endswith(" violations=0")
        assert "Traceback" not in stderr


# One input per ``floorplan`` exit: fabric text, design text (None for a
# missing file) and extra options.
EXIT_INPUTS = {
    0: ("rows 2\ncolumns CC\n", "module a 1 0 0\nmodule b 1 0 0\n", ["--no-ar"]),
    1: ("rows 2\ncolumns CC\n", None, []),
    2: ("rows 2\ncolumns CCC\n", "module m 1 0 99\nmodule k 1 0 0\n", []),
    3: ("rows 1\ncolumns CC\n", "module a 2 0 0\nmodule b 2 0 0\n", ["--no-ar"]),
    4: (Path(FX).read_text(), Path(SDR).read_text(), ["--no-ar", "--time-budget", "0"]),
}


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("code", list(EXIT_INPUTS))
def test_floorplan_restores_collector_state(tmp_path, code, collecting):
    """A run pauses the cyclic garbage collector and leaves it as it found it."""
    fabric_text, design_text, options = EXIT_INPUTS[code]
    fab = write(tmp_path, "g.fabric", fabric_text)
    design = str(tmp_path / "missing.design")
    if design_text is not None:
        design = write(tmp_path, "g.design", design_text)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["floorplan", "--fabric", fab, "--design", design, *options]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("code", [code for code, (_, design, _) in EXIT_INPUTS.items() if design])
def test_run_floorplan_pauses_collector(monkeypatch, code, collecting):
    """``run_floorplan`` tessellates with the cyclic garbage collector paused
    and leaves it as it found it, however the run ends."""
    fabric_text, design_text, options = EXIT_INPUTS[code]
    args = build_parser().parse_args(["floorplan", "--fabric", "F", "--design", "D", *options])
    ar_bounds = None if args.no_ar else (args.ar_min, args.ar_max)
    fabric, design = parse_fabric(fabric_text), parse_design(design_text)
    paused = []

    def generate_placements(*stage_args):
        paused.append(not gc.isenabled())
        return tessellate(*stage_args)

    tessellate = place.generate_placements
    monkeypatch.setattr(place, "generate_placements", generate_placements)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        try:
            place.run_floorplan(fabric, design, ar_bounds, args.time_budget)
            outcome = EXIT_OK
        except tuple(_FAILURES) as exc:
            outcome = _FAILURES[type(exc)][1]
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert (outcome, paused) == (code, [True])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    small_floorplan_inputs(),
    st.sampled_from(["fabric", "fabric", "fabric", "missing", "undecodable", "malformed"]),
    st.sampled_from([2, 2, 2, 3, 3, 5, 1, 0, -1]),
    st.lists(
        st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.5, 0.2, 0.0, -0.5, 2.0, float("nan")]),
        min_size=3, max_size=3,
    ),
    st.booleans(),
    usage_errors("generate"),
)
@example(("rows 2\ncolumns CCBD\n", "", []), "fabric", 3, [1.0, 0.5, 0.5], True, None)
# an out-of-range occupancy and too few modules, both exit 2
@example(("rows 2\ncolumns CC\n", "", []), "fabric", 2, [2.0, 0.5, 0.5], True, None)
@example(("rows 2\ncolumns CC\n", "", []), "fabric", 0, [0.5, 0.5, 0.5], False, None)
def test_generate_outcome_property(inputs, kind, n, occupancy, to_file, usage):
    """Every ``generate`` exit is 0, 1 or 2 and prints exactly one summary
    line: a missing, undecodable or malformed fabric exits 1, a module count
    or occupancy out of range exits 2, a usage error exits 1, and exit 0
    writes a design of ``n`` modules."""
    fabric_text = inputs[0]
    with tempfile.TemporaryDirectory() as tmp:
        fab = Path(tmp) / "g.fabric"
        if kind == "undecodable":
            fab.write_bytes(b"# caf\xe9\nrows 2\ncolumns CC\n")
        elif kind == "malformed":
            fab.write_text(fabric_text.replace("rows", "rows x"), encoding="utf-8")
        elif kind == "fabric":
            fab.write_text(fabric_text, encoding="utf-8")
        out = Path(tmp) / "g.design"
        code, stdout, stderr = run_cli(with_usage_error([
            "generate", "-n", str(n), "--fabric", str(fab),
            "--occupancy", *map(str, occupancy), *(["--out", str(out)] if to_file else []),
        ], usage))
        status = {0: "OK", 1: "PARSE_ERROR", 2: "INFEASIBLE_DESIGN"}
        assert code in status, stderr
        if code == 0 and not to_file:
            design_text, summary = stdout, stderr
        else:
            design_text = out.read_text() if code == 0 else ""
            summary = stdout
        lines = summary.splitlines()
        assert len(lines) == 1 and lines[0] == f"{status[code]} modules={n if code == 0 else 0}"
        if usage:
            assert code == 1 and stderr.startswith("usage: tilefp generate ")
        elif kind != "fabric":
            assert code == 1
        elif n < 2 or not all(0 < f <= 1 for f in occupancy):
            assert code == 2
        if code == 0:
            assert len(parse_design(design_text).modules) == n
        else:
            assert not out.exists()


def test_infeasible_floorplan_exit_code(tmp_path, capsys):
    """Both modules need the whole device, so the root halving's forced
    members overflow a half; the message keeps that reason after the pass."""
    fab = write(tmp_path, "t.fabric", "rows 1\ncolumns CC\n")
    design = write(tmp_path, "t.design", "module a 2 0 0\nmodule b 2 0 0\n")
    assert main(["floorplan", "--fabric", fab, "--design", design, "--no-ar"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("INFEASIBLE_FLOORPLAN") and len(captured.out.splitlines()) == 1
    assert captured.err.startswith(
        "no feasible side assignment at the device root (vertical pass): "
        "forced assignments exceed capacity in "
    )


def test_failed_root_solve_exit_code(tmp_path, capsys, monkeypatch):
    """A root halving whose search finds no feasible leaf ends the run like
    one whose forced members overflow a side: exit 3."""
    monkeypatch.setattr(bipartition, "_solve_bqp", lambda model: None)
    code = main(["floorplan", "--fabric", FX, "--design", SDR, "--out", str(tmp_path / "p.fp")])
    assert code == 3
    out = capsys.readouterr().out
    assert out.startswith("INFEASIBLE_FLOORPLAN") and len(out.splitlines()) == 1
    assert not (tmp_path / "p.fp").exists()


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


@pytest.mark.parametrize("argv, summary", [
    (["floorplan", "--fabric", FX], "PARSE_ERROR wastage=0 wirelength=0 runtime_ms=0"),
    (
        ["generate", "-n", "abc", "--fabric", FX, "--occupancy", "0.5", "0.5", "0.5"],
        "PARSE_ERROR modules=0",
    ),
    (["validate", "--fabric", FX], "PARSE_ERROR violations=0"),
])
def test_usage_error_exits_1_with_a_summary_line(argv, summary):
    """A usage error is bad input: exit 1 and the subcommand's summary line,
    not argparse's exit 2, which ``floorplan`` and ``generate`` give to
    infeasible inputs."""
    code, stdout, stderr = run_cli(argv)
    assert code == 1
    assert stdout == summary + "\n"
    assert stderr.startswith(f"usage: tilefp {argv[0]} ")


@pytest.mark.parametrize("argv, expected", [
    ([], 2), (["place"], 2), (["--help"], 0), (["floorplan", "--help"], 0),
])
def test_help_and_unknown_subcommands_keep_argparse_exits(argv, expected):
    code, stdout, stderr = run_cli(argv)
    assert code == expected
    assert "PARSE_ERROR" not in stdout + stderr


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


@pytest.mark.parametrize("argv", [
    ["floorplan", "--fabric", FX, "--design", SDR, "--no-ar", "--alpha", "1", "--beta", "0"],
    ["generate", "-n", "4", "--fabric", FX, "--occupancy", "0.5", "0.5", "0.5"],
], ids=["floorplan", "generate"])
def test_empty_out_is_stdout_and_keeps_it_clean(argv):
    """``--out ""`` writes the document to stdout exactly as no ``--out``
    does, and the summary of the successful run to stderr."""
    code, stdout, stderr = run_cli([*argv, "--out", ""])
    assert code == 0
    assert stdout == run_cli(argv)[1]
    assert stderr.count("\n") == 1 and stderr.startswith("OK ")


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
