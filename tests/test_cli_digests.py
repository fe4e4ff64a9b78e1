"""Stored output of CLI requests past the benchmark workloads' sizes.

Each request runs in process through cli.main; its exit code and the
SHA-256 of its stdout must equal the row of cli_digests.json beside this
file.  The table was recorded once, on a tree whose counts the tests'
oracles had already checked, so any change to a count, a value range or a
printed float fails here.  The rows cover the ProductBounds tables where
they are float-filtered (the quartic at k = 16, the octic at k = 10),
the H_F-filtered energy on int64 ends (the quartic at k = 14) and on
Python ints (the octic at k = 9 and 10), x^35 + y on two cells at
k = 29, whose image takes the exact table because its value grid is
past 2^1000.  The JSON reports of the projection scenarios, one scale
past their builtin ladders, cover the enclosure pass and the image
counts: three_projection with the default pins and with pins off the
square's corners, pinned_distance at 9, 10, 11, and pinned_distance with
a centre pin, whose exact grid distances land on the filter band.  The
quadtree walkers on Python ints are pinned by an octic band partition at
k = 9 and two octic sign regions at kmax 12, beside a punctured square;
then the tree scan at k = 24 on an arithmetic progression and a Cantor
set, the curvature on the chart and the Newton path, an extraction, the
image of a constant (cell 0), and the exit codes of a parse error and a
domain error.

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
SKEW_OCTIC = "x^8 + 3*x^5*y^3 + y^8 + x*y"
# A request argument "{name}" is replaced by the path of a file holding
# FILES[name], written to the test's temporary directory.
FILES = {
    "set_file": "gridset1d k=29\n0\n1\n",
    "three_default": "schema=1\nname=three_default\nfamily=three_projection\nscales=9,10,11\n",
    "three_off_corner": (
        "schema=1\nname=three_off_corner\nfamily=three_projection\nscales=9,10,11\n"
        "pins=0.1,0.2;0.9,0.15;0.5,1.3\n"
    ),
    "pinned_default": "schema=1\nname=pinned_default\nfamily=pinned_distance\nscales=9,10,11\n",
    "pinned_centre": (
        "schema=1\nname=pinned_centre\nfamily=pinned_distance\nscales=8,10,12\npins=0,0;1,0;0.5,0.5\n"
    ),
    "block": "gridset2d k=6\n" + "".join(
        f"{i} {j}\n" for i in range(64) for j in range(64) if max(i, j) < 40 or (7 * i + 3 * j) % 11 == 0
    ),
}
FILE_SET = ["--gen", "file", "--set-file", "{set_file}"]

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
    ["scenario", "--file", "{three_default}", "--format", "json"],
    ["scenario", "--file", "{three_off_corner}", "--format", "json"],
    ["scenario", "--file", "{pinned_default}", "--format", "json"],
    ["scenario", "--file", "{pinned_centre}", "--format", "json"],
    ["bands", "--poly", SKEW_OCTIC + " + x + 2*y", "--k", "9", "--format", "json"],
    ["whitney", "--region", f"poly-pos:{SKEW_OCTIC} - 1/4", "--kmax", "12"],
    ["whitney", "--region", f"poly-pos:{SKEW_OCTIC} + x - 2*y", "--kmax", "12"],
    ["whitney", "--region", "punctured", "--puncture", "1/3,5/7", "--kmax", "12"],
    ["nonconc", "--k", "24", "--format", "json"],
    ["nonconc", "--gen", "cantor", "--base", "4", "--pattern", "0,2", "--kappa", "0.8", "--k", "24", "--format", "json"],
    ["curvature", "--phi1", "coord:x", "--phi2", "coord:y", "--phi3", "poly:x + y + x^2*y^2",
     "--point", "0.3,0.4", "--format", "json"],
    ["curvature", "--phi1", "dist:0,0", "--phi2", "dist:1,0", "--phi3", "dist:0,1",
     "--point", "0.3,0.4", "--format", "json"],
    ["extract", "--set-file", "{block}", "--format", "json"],
    ["image", "--poly", "3/7", "--k", "6"],
    ["energy", "--poly", "x +"],
    ["nonconc", "--kappa", "2"],
]


def write_files(directory: Path) -> dict:
    """Each placeholder "{name}" mapped to a file of FILES[name] in directory."""
    paths = {}
    for name, text in FILES.items():
        path = directory / f"{name}.txt"
        path.write_text(text)
        paths[f"{{{name}}}"] = str(path)
    return paths


def run_request(argv, paths):
    """(exit code, SHA-256 of stdout) of one main call, with the
    placeholders in argv replaced by their paths."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main([paths.get(a, a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_table_rows_are_the_requests():
    assert [row["argv"] for row in json.loads(TABLE.read_text())] == REQUESTS


@pytest.mark.parametrize("index", range(len(REQUESTS)), ids=[" ".join(argv) for argv in REQUESTS])
def test_request_matches_stored_digest(index, tmp_path):
    row = json.loads(TABLE.read_text())[index]
    assert run_request(REQUESTS[index], write_files(tmp_path)) == (row["rc"], row["stdout_sha256"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp))
        rows = []
        for argv in REQUESTS:
            rc, digest = run_request(argv, paths)
            rows.append({"argv": argv, "rc": rc, "stdout_sha256": digest})
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
