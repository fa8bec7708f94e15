"""Every ``to_bytes`` and ``from_bytes`` call in ``src/`` and ``tools/``
passes a byte order, and every ``to_bytes`` call a length. Both became
optional only in Python 3.11; ``pyproject.toml`` admits 3.10, where a call
without them raises ``TypeError`` at run time."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def byte_conversions(source):
    """``(line, method, complete)`` of each ``to_bytes``/``from_bytes`` call
    in ``source``; ``complete`` says it passes what Python 3.10 requires."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method in ("to_bytes", "from_bytes"):
            keywords = {keyword.arg for keyword in node.keywords}
            has_length = method == "from_bytes" or bool(node.args) or "length" in keywords
            has_order = len(node.args) >= 2 or "byteorder" in keywords
            calls.append((node.lineno, method, has_length and has_order))
    return sorted(calls)


def test_byte_conversions_pass_a_byte_order():
    calls = {
        path.relative_to(ROOT).as_posix(): byte_conversions(path.read_text())
        for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tools/*.py")]
    }
    assert {path: found for path, found in calls.items() if not all(c for *_, c in found)} == {}
    # the overlap index's lane check converts bytes, so the walk sees calls
    assert calls["src/tilefp/place.py"]


def test_calls_that_lean_on_a_default_are_found():
    source = (
        "a = int.from_bytes(b)\n"
        "b = n.to_bytes(2)\n"
        "c = n.to_bytes(byteorder='big')\n"
        "d = int.from_bytes(b, byteorder='little')\n"
        "e = n.to_bytes(length=2, byteorder='big')\n"
        "f = n.to_bytes(2, 'big')\n"
    )
    assert [complete for *_, complete in byte_conversions(source)] == [
        False, False, False, True, True, True,
    ]
