"""Golden documents: the SDR variants must keep writing the same bytes.

The pinned hashes in ``data/sdr_documents.sha256`` were taken from the
documents the pipeline wrote before its hot loops were rewritten. A speed
change that alters any candidate, anchor or placement shows up here as a
different document. Regenerate the file only for a change that is meant to
move the documents, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from tilefp.cli import main
from tilefp.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "data" / "sdr_documents.sha256"


def golden_cases():
    cases = []
    for line in GOLDEN.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            case, digest, *options = line.split()
            cases.append(pytest.param(digest, options, id=case))
    return cases


@pytest.mark.parametrize("digest, options", golden_cases())
def test_sdr_document_bytes_are_pinned(tmp_path, digest, options):
    out = tmp_path / "plan.fp"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "floorplan", "--fabric", str(fixture_path("fx70t.fabric")),
            "--design", str(fixture_path("sdr.design")), "--out", str(out), *options,
        ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
