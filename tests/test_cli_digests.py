"""Stored output of CLI requests past the benchmark workloads' sizes.

Each request runs in process through cli.main; its exit code and the
SHA-256 of its stdout must equal the row of cli_digests.json beside this
file.  The table was recorded once, on a tree whose counts the tests'
oracles had already checked, so any change to a count, a value range or a
printed float fails here.  The rows cover the ProductBounds tables where
they are float-filtered (the quartic at k = 16, the octic at k = 10),
the H_F-filtered energy on int64 ends (the quartic at k = 14) and on
Python ints (the octic at k = 9 and 10), and x^35 + y on two cells at
k = 29, whose image takes the exact table because its value grid is
past 2^1000.

Run as a script, this file prints the table of the tree it imports,
for example from the repository root on an unchanged tree:

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from explab.cli import main

TABLE = Path(__file__).with_name("cli_digests.json")
QUARTIC = "x + y + (x^2 + y^2)^2"
OCTIC = "x + y + 3/8*(x^2 + y^2)^4"
SET_FILE = "{set_file}"  # replaced by a gridset1d file of cells 0 and 1 at k = 29
SET_TEXT = "gridset1d k=29\n0\n1\n"
FILE_SET = ["--gen", "file", "--set-file", SET_FILE]

REQUESTS = [
    ["energy", "--poly", OCTIC, "--k", "9", "--hf-min", "0.5"],
    ["energy", "--poly", OCTIC, "--k", "10", "--hf-min", "0.5"],
    ["energy", "--poly", QUARTIC, "--k", "14", "--hf-min", "0.5"],
    ["energy", "--poly", QUARTIC, "--k", "16"],
    ["image", "--poly", QUARTIC, "--k", "16"],
    ["energy", "--poly", OCTIC, "--k", "10"],
    ["image", "--poly", OCTIC, "--k", "10"],
    ["image", "--poly", "x^35 + y", *FILE_SET],
    ["energy", "--poly", "x^35 + y", *FILE_SET, "--hf-min", "0.5"],
    ["energy", "--poly", "x^35 + y", *FILE_SET, "--hf-min", "0"],
]


def run_request(argv, set_file):
    """(exit code, SHA-256 of stdout) of one main call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main([set_file if a == SET_FILE else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_table_rows_are_the_requests():
    assert [row["argv"] for row in json.loads(TABLE.read_text())] == REQUESTS


@pytest.mark.parametrize("index", range(len(REQUESTS)), ids=[" ".join(argv) for argv in REQUESTS])
def test_request_matches_stored_digest(index, tmp_path):
    row = json.loads(TABLE.read_text())[index]
    set_file = tmp_path / "cells.txt"
    set_file.write_text(SET_TEXT)
    assert run_request(REQUESTS[index], str(set_file)) == (row["rc"], row["stdout_sha256"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        set_file = Path(tmp) / "cells.txt"
        set_file.write_text(SET_TEXT)
        rows = []
        for argv in REQUESTS:
            rc, digest = run_request(argv, str(set_file))
            rows.append({"argv": argv, "rc": rc, "stdout_sha256": digest})
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
