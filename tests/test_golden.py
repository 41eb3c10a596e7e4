"""CLI output byte for byte against recorded hashes.

Each line of golden/records.txt names a command, an input file under
golden/, the exit code and the sha256 of stdout that the command gave when
the record was written (by golden/make_records.py).  A change that alters
any of these bytes on purpose rewrites the records and names them."""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from braidmono import cli

GOLDEN = Path(__file__).parent / "golden"
RECORDS = [line.split() for line in (GOLDEN / "records.txt").read_text().splitlines()]


@pytest.mark.parametrize("command, name, code, digest", RECORDS,
                         ids=[f"{c}-{n}" for c, n, _, _ in RECORDS])
def test_stdout_matches_record(command, name, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main([command, str(GOLDEN / name)])
    assert got == int(code)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
