"""CLI behaviour: exit codes, formats, and agreement with library calls."""

import json
import math
import os
import shlex
import subprocess
import sys

import pytest

import explab
from explab import cli, gridset
from explab.cli import main
from explab.geomdecomp import PinnedDistance, blaschke_curvature
from explab.gridset import Scale, gen_ap
from explab.polyexpr import classify_special_form, parse_poly


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one main call; usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_expander(capsys):
    code, out, _ = run_cli(capsys, "classify", "x + y + (x^2+y^2)^2")
    assert code == 0
    assert out.splitlines()[0] == "Expander"
    assert "witness degree" in out


def test_classify_special(capsys):
    code, out, _ = run_cli(capsys, "classify", "x*y")
    assert code == 0
    assert out.splitlines()[0] == "SpecialForm"


def test_classify_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "x + * y")
    assert code == 2
    assert "parse error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "x + y", "--no-such-flag"])
    assert exc.value.code == 2


def test_domain_error_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "cover", "--gen", "ap", "--alpha", "0.5", "--eta", "0.75", "--k", "8"
    )
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_energy_non_finite_hf_min_is_domain_error(capsys, value):
    code, _, err = run_cli(capsys, "energy", "--poly", "x+y", "--hf-min", value, "--k", "4")
    assert code == 1
    assert err.startswith("explab: ") and "hf_min must be finite" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bands_non_finite_w_is_domain_error(capsys, value):
    code, out, err = run_cli(capsys, "bands", "--poly", "x + y", "--w", value, "--k", "4")
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and "w must be finite" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bands_sample_stride_below_one_is_domain_error(capsys, value):
    code, out, err = run_cli(capsys, "bands", "--poly", "x + y", f"--sample-stride={value}")
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and "--sample-stride must be at least 1" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_nonconc_non_finite_target_alpha_is_domain_error(capsys, value):
    code, out, err = run_cli(capsys, "nonconc", "--k", "8", f"--target-alpha={value}")
    assert code == 1 and out == ""
    assert err.startswith("explab: --target-alpha must be finite, got ")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5", "1.5"])
def test_nonconc_kappa_outside_unit_interval_is_domain_error(capsys, value):
    code, out, err = run_cli(capsys, "nonconc", "--k", "8", f"--kappa={value}")
    assert code == 1 and out == ""
    assert err.startswith("explab: --kappa must lie in (0, 1], got ")


def test_image_of_constant_on_empty_set_is_empty(tmp_path, capsys):
    path = tmp_path / "empty.grid"
    path.write_text("gridset1d k=4\n")
    code, out, _ = run_cli(capsys, "image", "--poly", "3", "--gen", "file", "--set-file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "count = 0"
    code, out, _ = run_cli(
        capsys, "image", "--poly", "3", "--gen", "file", "--set-file", str(path), "--format", "json"
    )
    assert code == 0 and json.loads(out)["count"] == 0


def test_energy_text_on_empty_set_has_no_log_line(tmp_path, capsys):
    path = tmp_path / "empty.grid"
    path.write_text("gridset1d k=4\n")
    code, out, _ = run_cli(capsys, "energy", "--poly", "x+y", "--gen", "file", "--set-file", str(path))
    assert code == 0
    assert out.splitlines() == ["count = 0", "log2(count)/k = 0"]


def test_energy_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "energy",
        "--poly",
        "x+y",
        "--gen",
        "ap",
        "--alpha",
        "0.5",
        "--k",
        "12",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    A = gen_ap(0.5, 0.0, Scale(12))
    expected = gridset.energy_count(parse_poly("x+y"), A, A)
    assert data["count"] == expected
    assert data["normalized_exponent"] == pytest.approx(
        math.log2(expected) / 12
    )


def test_classify_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "classify", "x^2 + x*y + y^2", "--format", "json")
    data = json.loads(out)
    result = classify_special_form(parse_poly("x^2 + x*y + y^2"))
    assert data["verdict"] == result.verdict.value
    assert data["reason"] == result.reason.value
    assert data["witness_degree"] == result.witness.degree()


def test_mp_and_hf_text(capsys):
    code, out, _ = run_cli(capsys, "mp", "x^2 + x*y + y^2")
    assert code == 0
    assert out.strip() == "6*x^2 - 6*y^2"
    code, out, _ = run_cli(capsys, "hf", "x*y")
    assert code == 0
    assert out.strip() == "x*y - xp*yp"
    code, out, _ = run_cli(capsys, "hf", "--general", "x*yp")
    assert code == 0
    assert out.strip() == "0"


def test_curvature_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "curvature",
        "--phi1",
        "coord:x",
        "--phi2",
        "coord:y",
        "--phi3",
        "poly:x*y",
        "--point",
        "0.5,0.333",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["curvature"] == 0.0


def test_cover_and_nonconc(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "--gen", "ap", "--alpha", "0.5", "--k", "12", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 64
    code, out, _ = run_cli(
        capsys,
        "nonconc",
        "--gen",
        "ap",
        "--alpha",
        "0.5",
        "--k",
        "10",
        "--kappa",
        "0.5",
        "--target-alpha",
        "0.5",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["eta"] >= 0.0


def test_whitney_command(capsys):
    code, out, _ = run_cli(
        capsys, "whitney", "--region", "punctured", "--kmax", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["cubes"] > 0
    assert "cube k=" in data["decomposition"]


def test_extract_command(tmp_path, capsys):
    from explab.gridset import GridSet2D, format_gridset

    A = gen_ap(0.5, 0.0, Scale(8))
    X = GridSet2D.from_cells(Scale(8), [(i, j) for i in A.cells for j in A.cells])
    path = tmp_path / "x.grid"
    path.write_text(format_gridset(X))
    code, out, _ = run_cli(
        capsys, "extract", "--set-file", str(path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["intersection_count"] >= data["x_count"] / 2


def test_scenario_command_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "scenario",
        "--name",
        "sum_product_cantor",
        "--csv",
        str(csv_path),
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 1 + len(data["scales"])


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    assert "special_form_collapse" in out
    assert len(out.strip().splitlines()) >= 7


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "classify", "x + y", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "SpecialForm"


def test_unknown_scenario_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "scenario", "--name", "nope")
    assert code == 1
    assert "nope" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("schema=1\nname=x\nfamily=poly_growth\n", "poly is required for scenario family 'poly_growth'"),
        ("schema=abc\nname=x\nfamily=poly_growth\npoly=x + y\n", "got 'schema=abc'"),
        ("schema=1\nname=x\nfamily=poly_growth\npoly=x + y\nalpha=0.5\nalpha=0.6\n", "'alpha=0.6'"),
        (
            "schema=1\nname=x\nfamily=poly_growth\npoly=x + y\nexpect=image_exponent approx x 0.1 PAPER\n",
            "bad expectation 'image_exponent approx x 0.1 PAPER'",
        ),
    ],
)
def test_malformed_scenario_file_is_domain_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.scenario"
    path.write_text(body)
    code, out, err = run_cli(capsys, "scenario", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and message in err


def test_extract_names_a_bad_set_file_line(tmp_path, capsys):
    path = tmp_path / "x.grid"
    path.write_text("gridset2d k=3\n0 1\n1 2 3\n")
    code, out, err = run_cli(capsys, "extract", "--set-file", str(path))
    assert code == 1 and out == ""
    assert "bad gridset2d line '1 2 3'" in err


def test_json_outputs_validate_against_shipped_schema(capsys):
    import os

    import jsonschema

    schema_path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "report.schema.json"
    )
    schema = json.load(open(schema_path))

    _, out, _ = run_cli(capsys, "classify", "x + y", "--format", "json")
    jsonschema.validate(json.loads(out), schema)

    _, out, _ = run_cli(
        capsys, "energy", "--poly", "x+y", "--k", "8", "--format", "json"
    )
    jsonschema.validate(json.loads(out), schema)

    _, out, _ = run_cli(
        capsys, "scenario", "--name", "sum_product_cantor", "--format", "json"
    )
    jsonschema.validate(json.loads(out), schema)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


# Each call runs after calls that set options it leaves at their defaults.
MIXED_SEQUENCE = [
    ["classify", "x*y"],
    ["hf", "--general", "x*yp"],
    ["hf", "x*y"],
    ["classify", "x + y", "--no-such-flag"],
    ["cover", "--alpha", "0.25", "--k", "9", "--kprime", "5", "--format", "json"],
    ["cover"],
    ["nonconc", "--gen", "cantor", "--base", "8", "--k", "9", "--pattern", "0,3",
     "--kappa", "0.25", "--precision", "3"],
    ["nonconc", "--k", "8"],
    ["energy", "--poly", "x+y", "--hf-min", "0.01", "--k", "6", "--format", "json"],
    ["energy", "--poly", "x+y", "--k", "6", "--format", "json"],
    ["scenario"],
    ["hf"],
    ["mp", "x^2 + x*y + y^2", "--format", "csv"],
    ["whitney", "--region", "full", "--kmax", "3"],
    ["whitney", "--kmax", "3"],
    ["cover", "--k", "0"],
    ["bands", "--poly", "x + y", "--k", "4", "--sample-stride", "2", "--funcs", "px,py"],
    ["bands", "--poly", "x + y", "--k", "4"],
    ["classify", "x^2 + x*y + y^2", "--precision", "-1"],
    ["classify", "x^2 + x*y + y^2"],
]


@pytest.fixture
def fresh_shared_parser():
    """Drop the cached parser before and after the test (tests may patch
    what it binds)."""
    shared = cli._shared_parser
    shared.cache_clear()
    yield
    shared.cache_clear()


def test_shared_parser_outputs_equal_fresh_parser_outputs(capsys, monkeypatch, fresh_shared_parser):
    shared = [run_cli(capsys, *argv) for argv in MIXED_SEQUENCE]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in MIXED_SEQUENCE]
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes.count(2) == 3 and codes.count(1) == 2 and codes.count(0) == 15
    # hf --general left no trace in the hf call after it.
    assert shared[2][1] == "x*y - xp*yp\n"
    # hf_min left no trace in the energy call after it.
    with_floor, without = (json.loads(shared[i][1])["count"] for i in (8, 9))
    assert with_floor < without


def test_main_builds_at_most_one_parser(capsys, monkeypatch, fresh_shared_parser):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in MIXED_SEQUENCE[:6] * 2:
        run_cli(capsys, *argv)
    assert len(built) == 1
    # build_parser itself still returns a new parser on every call.
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# input checks before any work
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["cover", "nonconc"])
@pytest.mark.parametrize("base", ["1", "0", "-4", "3", "6"])
def test_cantor_base_not_a_power_of_two_is_domain_error(capsys, command, base):
    code, out, err = run_cli(capsys, command, "--gen", "cantor", "--base", base, "--k", "8")
    assert code == 1 and out == ""
    assert err == f"explab: --base must be a power of 2 (at least 2), got {base}\n"


@pytest.mark.parametrize("command", ["cover", "nonconc"])
@pytest.mark.parametrize("base, k", [("4", "7"), ("8", "10"), ("16", "6")])
def test_cantor_k_not_a_multiple_of_log2_base_is_domain_error(capsys, command, base, k):
    code, out, err = run_cli(capsys, command, "--gen", "cantor", "--base", base, "--k", k)
    assert code == 1 and out == ""
    assert err.startswith("explab: --k must be a multiple of log2(--base)")
    assert f"--k {k}" in err


@pytest.mark.parametrize("base, k", [("2", "7"), ("4", "8"), ("8", "9")])
def test_cantor_cover_matches_library(capsys, base, k):
    code, out, _ = run_cli(
        capsys, "cover", "--gen", "cantor", "--base", base, "--k", k, "--pattern", "0,1",
        "--format", "json",
    )
    assert code == 0
    depth = int(k) // (int(base).bit_length() - 1)
    assert json.loads(out)["count"] == len(gridset.gen_cantor([0, 1], int(base), depth).cells)


@pytest.mark.parametrize("command", ["cover", "image", "energy"])
@pytest.mark.parametrize("option", ["--alpha", "--eta"])
def test_ap_nan_is_domain_error(capsys, command, option):
    poly = ["--poly", "x+y"] if command != "cover" else []
    code, out, err = run_cli(capsys, command, *poly, option, "nan", "--k", "6")
    assert code == 1 and out == ""
    assert err == "explab: need 0 < alpha <= 1, eta >= 0, alpha + eta <= 1\n"


PRECISION_REQUESTS = {
    "classify": ["x*y"],
    "mp": ["x*y"],
    "hf": ["x*y"],
    "curvature": ["--phi1", "coord:x", "--phi2", "coord:y", "--phi3", "poly:x*y",
                  "--point", "0.5,0.5"],
    "cover": ["--k", "6"],
    "nonconc": ["--k", "6"],
    "image": ["--poly", "x+y", "--k", "6"],
    "energy": ["--poly", "x+y", "--k", "6"],
    "whitney": ["--kmax", "3"],
    "bands": ["--poly", "x+y", "--k", "3"],
    "extract": ["--set-file", "no-such-file.grid"],
    "scenario": ["--name", "sum_product_cantor"],
    "list-scenarios": [],
}


def test_precision_requests_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert set(sub.choices) == set(PRECISION_REQUESTS)


@pytest.mark.parametrize("command", sorted(PRECISION_REQUESTS))
@pytest.mark.parametrize("value", ["-1", "-2"])
def test_negative_precision_is_domain_error_before_any_work(
    capsys, monkeypatch, fresh_shared_parser, command, value
):
    def forbidden(args):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"), forbidden)
    code, out, err = run_cli(capsys, command, *PRECISION_REQUESTS[command], "--precision", value)
    assert code == 1 and out == ""
    assert err == f"explab: --precision must be at least 0, got {value}\n"


def test_readme_command_examples_parse():
    """Every explab line of README's "Command line" block parses, so a
    removed option cannot linger in the docs."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) >= 10 and all(argv[0] == "explab" for argv in commands)
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


def test_precision_zero_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "nonconc", "--k", "8", "--precision", "0")
    assert code == 0 and out.startswith("eta = ")


CURVATURE = ["curvature", "--phi1", "coord:x", "--phi2", "coord:y"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["whitney", "--puncture", "1,1/0"], "--puncture must be a point x,y of finite numbers, got '1,1/0'"),
        (["whitney", "--puncture", "1"], "--puncture must be a point x,y of finite numbers, got '1'"),
        (["whitney", "--puncture", "a,b"], "--puncture must be a point x,y"),
        (CURVATURE + ["--phi3", "proj:1", "--point", "1"], "--point must be a point x,y of finite numbers, got '1'"),
        # --point inf,0.5 raised an OverflowError traceback; nan,0.5 printed 0.
        (CURVATURE + ["--phi3", "poly:x*y", "--point", "inf,0.5"], "--point must be a point x,y"),
        (CURVATURE + ["--phi3", "proj:1", "--point", "nan,0.5"], "--point must be a point x,y"),
        (CURVATURE + ["--phi3", "dist:nan,0", "--point", "0.3,0.4"], "--phi3 must be a point x,y"),
        (CURVATURE + ["--phi3", "dist:1", "--point", "0.3,0.4"], "--phi3 must be a point x,y of finite numbers, got '1'"),
        (CURVATURE + ["--phi3", "proj:abc", "--point", "0.3,0.4"], "--phi3 proj:THETA needs a number"),
        (["nonconc", "--gen", "cantor", "--pattern", "a"], "--pattern must be comma-separated digits"),
        (
            ["nonconc", "--gen", "cantor", "--pattern", "0,9"],
            "--pattern must be comma-separated digits in [0, 4), got '0,9'",
        ),
    ],
)
def test_point_and_pattern_options_name_themselves(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and message in err


PINNED_CURVATURE = [
    "curvature", "--phi1", "dist:0,0", "--phi2", "dist:1,0", "--phi3", "dist:0,1",
    "--point", "0.45,0.62", "--format", "json",
]


@pytest.mark.parametrize(
    "step, message",
    [
        # 0 ended in a ZeroDivisionError traceback; inf, nan and 1e3 in a
        # NewtonConvergenceError traceback.
        ("0", "step must be a nonzero finite number, got 0.0"),
        ("inf", "step must be a nonzero finite number, got inf"),
        ("nan", "step must be a nonzero finite number, got nan"),
        ("1e3", "chart inversion did not converge"),
    ],
)
def test_curvature_bad_step_is_domain_error(capsys, step, message):
    code, out, err = run_cli(capsys, *PINNED_CURVATURE, f"--step={step}")
    assert code == 1 and out == ""
    assert err == f"explab: {message}\n"


def test_curvature_negative_step_works(capsys):
    code, out, _ = run_cli(capsys, *PINNED_CURVATURE, "--step=-1e-4")
    pins = [PinnedDistance(c) for c in ((0, 0), (1, 0), (0, 1))]
    assert code == 0
    assert json.loads(out)["curvature"] == blaschke_curvature(*pins, (0.45, 0.62), step=-1e-4)


# ---------------------------------------------------------------------------
# the process entry point
# ---------------------------------------------------------------------------


def run_entry_point(*argv):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(explab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "explab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["classify", "x*y"], 0, "stdout", "SpecialForm\n"),
        (["cover", "--k", "0"], 1, "stderr", "explab: scale k must satisfy"),
        (["classify", "x", "--no-such-flag"], 2, "stderr", "unrecognized arguments: --no-such-flag"),
    ],
)
def test_entry_point_exit_codes(argv, code, stream, text):
    result = run_entry_point(*argv)
    assert result.returncode == code
    assert text in getattr(result, stream)
