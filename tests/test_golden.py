"""CLI output byte for byte against recorded hashes.

Each line of golden/records.txt holds the arguments of one command, the
exit code and the sha256 of stdout that the command gave when the record
was written (by golden/make_records.py); an argument that names a file
under golden/ stands for that file.  A change that alters any of these
bytes on purpose rewrites the records and names them.  A record with exit
code 3 is a usage error, which must print one `error:` line to stderr and
no traceback."""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from braidmono import cli

GOLDEN = Path(__file__).parent / "golden"
RECORDS = [
    (argv, int(code), digest)
    for *argv, code, digest in map(str.split, (GOLDEN / "records.txt").read_text().splitlines())
]


@pytest.mark.parametrize("argv, code, digest", RECORDS,
                         ids=["-".join(argv) for argv, _, _ in RECORDS])
def test_stdout_matches_record(argv, code, digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main([str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    if code == 3:
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()
