"""CLI behaviour: exit codes, formats, and agreement with library calls."""

import csv
import io
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
from explab.geomdecomp import (
    DyadicSquare,
    LinearProjection,
    PinnedDistance,
    PolynomialMap,
    PolynomialSignRegion,
    band_partition,
    blaschke_curvature,
    format_cube_decomposition,
    whitney_decompose,
)
from explab.gridset import GridSet2D, Scale, gen_ap
from explab.polyexpr import Poly, classify_special_form, mp_numerator, parse_poly, read_float, read_int


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


@pytest.mark.parametrize("text, offset", [("x^\u00b2", 2), ("x*y + \u0661", 6)])
def test_non_ascii_digit_is_parse_error_exit_2(capsys, text, offset):
    # x^² used to exit 1 with int()'s message; x*y + ١ parsed as x*y + 1.
    code, out, err = run_cli(capsys, "classify", text)
    assert code == 2 and not out
    assert f"unexpected character {text[offset]!r} (at offset {offset})" in err


def test_hf_with_a_polynomial_and_general_is_usage_error_exit_2(capsys):
    # The positional polynomial used to be ignored, with exit 0.
    for argv in (["x*y", "--general", "x*yp"], ["--general", "x*yp", ""]):
        code, out, err = run_cli(capsys, "hf", *argv)
        assert code == 2 and not out
        assert "hf takes a bivariate polynomial or --general, not both" in err


def test_scenario_with_name_and_file_is_usage_error_exit_2(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("schema=1\nname=s\nfamily=sum_product\nscales=4,5,6\n")
    for argv in (["--name", "sum_product_cantor", "--file", str(path)],
                 ["--file", str(path), "--name", ""]):
        code, out, err = run_cli(capsys, "scenario", *argv)
        assert code == 2 and not out
        assert "scenario takes --name or --file, not both" in err


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


@pytest.mark.parametrize(
    "data, message",
    [
        # A UTF-8 no-break space reaches the reader, which names it.
        (b"gridset1d k=3\n1\xc2\xa0\n", "explab: non-ASCII character '\\xa0' (at offset 15)\n"),
        (b"gridset1d k=3\n1\xff\n", "explab: gridset file is not UTF-8: byte 0xff at offset 15\n"),
        (b"\xc3gridset1d k=3\n", "explab: gridset file is not UTF-8: byte 0xc3 at offset 0\n"),
    ],
)
def test_set_file_faults_name_their_offset(tmp_path, capsys, data, message):
    path = tmp_path / "set.grid"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "nonconc", "--gen", "file", "--set-file", str(path))
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cover", "--gen", "file"], "--gen file needs --set-file"),
        (["cover", "--gen", "file", "--set-file", "SET2"], "expected a gridset1d file"),
        (["extract", "--set-file", "SET1"], "extract needs a gridset2d file"),
        (
            ["curvature", "--phi1", "foo:1", "--phi2", "coord:y", "--phi3", "poly:x*y", "--point", "0.5,0.5"],
            "bad map spec 'foo:1': use coord:x, coord:y, proj:THETA, dist:CX,CY, or poly:EXPR",
        ),
        (["whitney", "--region", "bogus"], "unknown region 'bogus'"),
    ],
)
def test_set_file_map_and_region_faults_are_domain_errors(tmp_path, capsys, argv, message):
    files = {"SET1": "gridset1d k=3\n1\n", "SET2": "gridset2d k=3\n1 2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"explab: {message}\n")


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


@pytest.mark.parametrize(
    "argv, field",
    [
        (["hf", "x + y + 3/4*(x^2 + y^2)^2"], "hf"),
        (["hf", "--general", "x*y - xp*yp^2"], "hf"),
        (["mp", "x + y + 3/4*(x^2 + y^2)^2"], "mp"),
        (["classify", "x + y + 3/4*(x^2 + y^2)^2"], "witness"),
    ],
)
def test_each_printed_polynomial_is_rendered_once(capsys, monkeypatch, argv, field):
    renders = []
    real = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda P: renders.append(P) or real(P))
    code, text, _ = run_cli(capsys, *argv)
    # classify's text form prints only the witness degree: no render
    assert code == 0 and len(renders) == (0 if field == "witness" else 1)
    renders.clear()
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and len(renders) == 1
    data = json.loads(out)
    assert data[field] == real(renders[0])
    if field != "witness":  # classify's text form prints only the witness degree
        assert text == data[field] + "\n"
    else:  # CSV carries the witness as JSON does
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and data[field] in out


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


@pytest.mark.parametrize("expr", ["x^2 + y^2 - 3/8", "x*y - 1/8 + x^3"])
def test_whitney_poly_neg_is_poly_pos_of_the_negation(capsys, expr):
    regions = (f"poly-neg:{expr}", f"poly-pos:-({expr})")
    runs = [run_cli(capsys, "whitney", "--region", region, "--kmax", "7") for region in regions]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "cube k=" in runs[0][1]


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


def test_scenario_plot_data_makes_its_directory(tmp_path, capsys):
    target = tmp_path / "plots" / "sub"
    code, out, err = run_cli(capsys, "scenario", "--name", "sum_product_cantor", "--plot-data", str(target))
    assert (code, err) == (0, "") and "all expectations passed" in out
    files = sorted(os.listdir(target))
    assert len(files) == 5 and all(f.endswith(".dat") for f in files)


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
        *(
            (f"schema=1\nname=x\nfamily=sum_product\nexpect=sum_exponent {e}\n", "target and tolerance must be finite")
            for e in ("approx nan 0.1 PAPER", "ge 0 inf TRIVIAL", "le -inf 0 DERIVED")
        ),
        ("schema=1\nname=x\nbogus\nfamily=sum_product\n", "bad scenario line 'bogus'"),
        ("schema=1\nname=x\nfamily=sum_product\nexpect=a b\n", "bad expectation 'a b'"),
        ("schema=1\nname=x\n", "scenario needs schema, name, and family lines"),
        ("schema=1\nname=x\nfamily=poly_growth\npoly=x + y\ngenerator=foo\n", "unknown generator 'foo'"),
        ("schema=1\nname=x\nfamily=pinned_distance\npins=0,0;1,0\n", "exactly three pins required"),
        ("schema=1\nname=x\nfamily=nope\n", "unknown scenario family 'nope'"),
    ],
)
def test_malformed_scenario_file_is_domain_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.scenario"
    path.write_text(body)
    code, out, err = run_cli(capsys, "scenario", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and message in err


@pytest.mark.parametrize(
    "family, line, message",
    [
        ("sum_product", "growth_exponent=1.0_5", "growth_exponent must be a finite number, got '1.0_5'"),
        ("pinned_distance", "pins=0,0;1_0,0;0,1", "pins must be x,y points separated by ';'"),
        ("pinned_distance", "pins=0,0;1,0;0,１", "pins must be x,y points separated by ';'"),
        ("pinned_distance", "window=５/16,11/16,5/16,11/16", "window must be four rationals"),
        ("eps_d_energy", "c=1_0", "c must be a rational number, got '1_0'"),
        ("three_projection", "offset=１/２", "offset must be a rational number"),
        ("poly_growth", "poly=x + y\nalpha=0.5_0", "alpha must be a finite number, got '0.5_0'"),
        ("sum_product", "expect=sum_exponent ge 1_0 0.1 PAPER", "target and tolerance must be numbers"),
        ("sum_product", "expect=sum_exponent ge 1 0.١ PAPER", "target and tolerance must be numbers"),
    ],
)
def test_scenario_numbers_take_ascii_without_underscores(tmp_path, capsys, family, line, message):
    """float and Fraction read underscores and other scripts' digits; a
    scenario number may hold neither."""
    path = tmp_path / "bad.scenario"
    path.write_text(f"schema=1\nname=x\nfamily={family}\n{line}\n")
    code, out, err = run_cli(capsys, "scenario", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and message in err


@pytest.mark.parametrize(
    "argv, option, kind, text",
    [
        (["cover", "--k", "1_0"], "--k", "int", "1_0"),
        (["cover", "--k", "１０"], "--k", "int", "１０"),
        (["energy", "--poly", "x+y", "--k", "4", "--hf-min", "0_5"], "--hf-min", "float", "0_5"),
        (["energy", "--poly", "x+y", "--k", "4", "--hf-min", "０.5"], "--hf-min", "float", "０.5"),
        (["nonconc", "--k", "8", "--kappa", "0.2_5"], "--kappa", "float", "0.2_5"),
        (["nonconc", "--k", "8", "--kappa", "0.\u0662"], "--kappa", "float", "0.\u0662"),
        (["nonconc", "--k", "6", "--precision", "1_2"], "--precision", "int", "1_2"),
        (["nonconc", "--k", "6", "--precision", "\u0663"], "--precision", "int", "\u0663"),
    ],
)
def test_number_options_take_ascii_without_underscores(capsys, argv, option, kind, text):
    """int and float read underscores and other scripts' digits; a number
    option holds neither, and a refused one is a usage error."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: argument {option}: invalid {kind} value: {text!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--k", " 10 "],
        ["energy", "--poly", "x+y", "--k", "4", "--hf-min", "5e-1"],
        ["nonconc", "--k", "8", "--kappa", "0.25"],
        ["nonconc", "--k", "6", "--precision", "0"],
    ],
)
def test_number_options_still_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "body",
    [
        "family=sum_product\nscales=4,5,6\ngrowth_exponent=1e-3\nexpect=sum_exponent ge 1e-3 0.375 PAPER",
        "family=pinned_distance\nscales=6,7,8\nalpha=0.375\noffset=3/8\n"
        "window= 5/16 , 11/16 ,5/16, 11/16\npins= 0 , 0 ; 1 ,0;0, 1",
        "family=eps_d_energy\nc=-1/2\nscales=4,5,6\nrestricted_scales=4,5,6",
    ],
    ids=["sum_product", "pinned_distance", "eps_d_energy"],
)
def test_scenario_numbers_still_read(tmp_path, capsys, body):
    path = tmp_path / "good.scenario"
    path.write_text(f"schema=1\nname=x\n{body}\n")
    code, out, err = run_cli(capsys, "scenario", "--file", str(path))
    assert (code, err) == (0, "") and "all expectations passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--set-file", "SET"],
        ["nonconc", "--set-file", "SET", "--k", "4"],
        ["image", "--poly", "x +", "--set-file", "SET"],
        ["energy", "--poly", "x*y", "--gen", "ap", "--set-file", "SET"],
        ["cover", "--gen", "cantor", "--set-file", "SET"],
    ],
)
def test_set_file_without_gen_file_is_domain_error(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "set.grid"
    path.write_text("gridset1d k=4\n1\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for name in ("gen_ap", "gen_cantor", "load_gridset", "parse_poly"):
        monkeypatch.setattr(cli, name, forbidden)
    argv = [str(path) if a == "SET" else a for a in argv]
    assert run_cli(capsys, *argv) == (1, "", "explab: --set-file needs --gen file\n")


# Each of these exited 0 and ignored the option.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["whitney", "--region", "full", "--puncture", "1/3,3/4"], "--puncture needs --region punctured"),
        (["whitney", "--region", "poly-pos:x - y", "--puncture", "1/2,1/2"], "--puncture needs --region punctured"),
        (["cover", "--base", "8"], "--base needs --gen cantor"),
        (["nonconc", "--gen", "ap", "--pattern", "0,3"], "--pattern needs --gen cantor"),
        (["cover", "--gen", "file", "--set-file", "SET", "--base", "2"], "--base needs --gen cantor"),
        (["cover", "--gen", "cantor", "--alpha", "0.25"], "--alpha needs --gen ap"),
        (["energy", "--poly", "x*y", "--gen", "cantor", "--eta", "0.1"], "--eta needs --gen ap"),
        (["image", "--poly", "x +", "--gen", "file", "--set-file", "SET", "--alpha", "0.5"], "--alpha needs --gen ap"),
        (["nonconc", "--gen", "file", "--set-file", "SET", "--eta", "0"], "--eta needs --gen ap"),
    ],
)
def test_option_the_chosen_region_or_generator_never_reads_is_domain_error(
    tmp_path, capsys, monkeypatch, fresh_shared_parser, argv, message
):
    path = tmp_path / "set.grid"
    path.write_text("gridset1d k=4\n1\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for name in ("_cmd_cover", "_cmd_nonconc", "_cmd_image", "_cmd_energy", "_cmd_whitney"):
        monkeypatch.setattr(cli, name, forbidden)
    argv = [str(path) if a == "SET" else a for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"explab: {message}\n")


def test_help_shows_the_defaults_of_scoped_options(capsys):
    for argv, defaults in (
        (["cover", "--help"], ["default 0.5", "default 0.0", "default 4", "default 0,1"]),
        (["whitney", "--help"], ["default 1/2,1/2"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        text = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0 and all(d in text for d in defaults), text


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


@pytest.mark.parametrize("part", ["outcomes", "fits"])
def test_schema_rejects_a_report_with_an_extra_outcome_or_fit_key(capsys, part):
    # The report serialises outcomes and fits from their fields, so a new
    # field reaches the JSON; the closed schema objects catch it.
    import jsonschema

    schema_path = os.path.join(os.path.dirname(__file__), "..", "docs", "report.schema.json")
    schema = json.load(open(schema_path))
    _, out, _ = run_cli(capsys, "scenario", "--name", "sum_product_cantor", "--format", "json")
    report = json.loads(out)
    jsonschema.validate(report, schema)
    first = report[part][0] if part == "outcomes" else next(iter(report[part].values()))
    first["extra"] = 1.0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)


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
    ["energy", "--poly", "x+y", "--k", "6", "--precision", "-1"],
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


# A request per subcommand, the seven whose text output prints a float first.
PRECISION_REQUESTS = {
    "curvature": ["--phi1", "coord:x", "--phi2", "coord:y", "--phi3", "poly:x*y",
                  "--point", "0.5,0.5"],
    "nonconc": ["--k", "6"],
    "image": ["--poly", "x+y", "--k", "6"],
    "energy": ["--poly", "x+y", "--k", "6"],
    "bands": ["--poly", "x+y", "--k", "3"],
    "extract": ["--set-file", "no-such-file.grid"],
    "scenario": ["--name", "sum_product_cantor"],
    "classify": ["x*y"],
    "mp": ["x*y"],
    "hf": ["x*y"],
    "cover": ["--k", "6"],
    "whitney": ["--kmax", "3"],
    "list-scenarios": [],
}
PRINTS_FLOATS = ("curvature", "nonconc", "image", "energy", "bands", "extract", "scenario")


def test_precision_requests_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    assert set(sub.choices) == set(PRECISION_REQUESTS)


# The shared options, as (default, choices, type, help) by option string.
COMMON_OPTIONS = {
    "--format": ("text", ("text", "json", "csv"), None, None),
    "--out": (None, None, None, "write output to a file instead of stdout"),
}
GENERATOR_OPTIONS = {
    "--gen": ("ap", ("ap", "cantor", "file"), None, None),
    "--alpha": (None, None, read_float, "AP cell count exponent (--gen ap only; default 0.5)"),
    "--eta": (None, None, read_float, "AP spacing exponent beyond alpha (--gen ap only; default 0.0)"),
    "--k": (10, None, read_int, None),
    "--base": (None, None, read_int, "cantor base, a power of 2 (--gen cantor only; default 4)"),
    "--pattern": (None, None, None, "cantor digits, comma separated (--gen cantor only; default 0,1)"),
    "--set-file": (None, None, None, "gridset1d file (--gen file only)"),
}


def test_shared_options_reach_the_subcommands_that_take_them():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    for command, p in sub.choices.items():
        options = {s: (a.default, a.choices, a.type, a.help) for a in p._actions for s in a.option_strings}
        assert {o: options.get(o) for o in COMMON_OPTIONS} == COMMON_OPTIONS, command
        generated = {o: options.get(o) for o in GENERATOR_OPTIONS}
        if command in ("cover", "nonconc", "image", "energy"):
            assert generated == GENERATOR_OPTIONS, command
        else:
            # bands has its own --k and extract its own --set-file.
            assert all(generated[o] != spec for o, spec in GENERATOR_OPTIONS.items()), command


@pytest.mark.parametrize("command", PRINTS_FLOATS)
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


@pytest.mark.parametrize("command", sorted(PRECISION_REQUESTS))
def test_precision_is_taken_by_the_subcommands_that_print_a_float(
    capsys, monkeypatch, fresh_shared_parser, command
):
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"), lambda args: None)
    code, _, err = run_cli(capsys, command, *PRECISION_REQUESTS[command], "--precision", "3")
    if command in PRINTS_FLOATS:
        assert (code, err) == (0, "")
    else:
        assert code == 2 and "unrecognized arguments: --precision 3" in err


# Per _SCOPED row: a request that gives the option, and a choice other
# than the one that reads it.
SCOPED_REQUESTS = {
    "alpha": (["cover", "--k", "6", "--alpha", "0.25"], "cantor"),
    "eta": (["image", "--poly", "x+y", "--k", "6", "--eta", "0.25"], "cantor"),
    "base": (["cover", "--k", "6", "--base", "8"], "ap"),
    "pattern": (["nonconc", "--k", "6", "--pattern", "0,3"], "file"),
    "set_file": (["cover", "--set-file", "SET"], "cantor"),
    "puncture": (["whitney", "--kmax", "3", "--puncture", "1/3,3/4"], "full"),
    "precision": (["energy", "--poly", "x+y", "--k", "6", "--precision", "3"], "json"),
    "timing": (["scenario", "--name", "sum_product_cantor", "--timing"], "text"),
}


@pytest.mark.parametrize("name", sorted(cli._SCOPED))
def test_scoped_option_is_taken_with_its_choice_alone(tmp_path, capsys, name):
    path = tmp_path / "set.grid"
    path.write_text("gridset1d k=4\n1\n")
    argv, other = SCOPED_REQUESTS[name]
    argv = [str(path) if a == "SET" else a for a in argv]
    _, choice, wanted = cli._SCOPED[name]
    code, out, err = run_cli(capsys, *argv, f"--{choice}", wanted)
    assert (code, err) == (0, "") and out
    message = f"explab: --{name.replace('_', '-')} needs --{choice} {wanted}\n"
    assert run_cli(capsys, *argv, f"--{choice}", other) == (1, "", message)


def test_timing_adds_the_wall_clock_to_the_json_report(capsys):
    argv = ["scenario", "--name", "sum_product_cantor", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--timing")
    timed = json.loads(out)
    assert code == 0 and timed.pop("wall_clock_seconds") >= 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out) == timed


def test_readme_command_examples_parse(capsys):
    """Every explab line of README's "Command line" block parses, so a
    removed option cannot linger in the docs, and every line that reads
    no file runs with exit code 0, so no rejected option combination can
    either."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) >= 10 and all(argv[0] == "explab" for argv in commands)
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
    runnable = [argv[1:] for argv in commands if not {"--set-file", "--file"} & set(argv)]
    assert len(runnable) >= 10
    for argv in runnable:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out, argv


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
        # float, Fraction and int read underscores and other scripts' digits;
        # these texts ran with a pin at (10, 0), theta 0.5 or pattern 0,1.
        (CURVATURE + ["--phi3", "dist:1_0,0", "--point", "0.3,0.4"],
         "--phi3 must be a point x,y of finite numbers, got '1_0,0'"),
        (CURVATURE + ["--phi3", "dist:１,0", "--point", "0.3,0.4"],
         "--phi3 must be a point x,y of finite numbers, got '１,0'"),
        (CURVATURE + ["--phi3", "proj:0.5_0", "--point", "0.3,0.4"],
         "--phi3 proj:THETA needs a number THETA, got 'proj:0.5_0'"),
        (CURVATURE + ["--phi3", "proj:0.٥", "--point", "0.3,0.4"],
         "--phi3 proj:THETA needs a number THETA, got 'proj:0.٥'"),
        (CURVATURE + ["--phi3", "poly:x*y + x", "--point", "0.3,0_4"],
         "--point must be a point x,y of finite numbers, got '0.3,0_4'"),
        (["whitney", "--puncture", "1_0/2_0,1/2"],
         "--puncture must be a point x,y of finite numbers, got '1_0/2_0,1/2'"),
        (["whitney", "--puncture", "1/2,١/2"], "--puncture must be a point x,y of finite numbers, got '1/2,١/2'"),
        (["cover", "--gen", "cantor", "--pattern", "０,１", "--k", "4"],
         "--pattern must be comma-separated digits in [0, 4), got '０,１'"),
        (["cover", "--gen", "cantor", "--pattern", "0,1_0", "--base", "16", "--k", "4"],
         "--pattern must be comma-separated digits in [0, 16), got '0,1_0'"),
    ],
)
def test_point_and_pattern_options_name_themselves(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("explab: ") and message in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (CURVATURE + ["--phi3", "dist:1e1,0", "--point", "0.3,0.4", "--format", "json"],
         blaschke_curvature(PolynomialMap(parse_poly("x")), PolynomialMap(parse_poly("y")),
                            PinnedDistance((10.0, 0.0)), (0.3, 0.4))),
        (CURVATURE + ["--phi3", "proj: 0.5", "--point", " 0.3 , 0.4 ", "--format", "json"],
         blaschke_curvature(PolynomialMap(parse_poly("x")), PolynomialMap(parse_poly("y")),
                            LinearProjection(0.5), (0.3, 0.4))),
    ],
)
def test_map_and_point_texts_still_read(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["curvature"] == want


@pytest.mark.parametrize(
    "argv, want",
    [
        (["whitney", "--puncture", " 1/3 ,5/7", "--kmax", "5"], ["whitney", "--puncture", "1/3,5/7", "--kmax", "5"]),
        (["cover", "--gen", "cantor", "--pattern", " 0, 2", "--k", "4"],
         ["cover", "--gen", "cantor", "--pattern", "0,2", "--k", "4"]),
    ],
)
def test_puncture_and_pattern_texts_still_read(capsys, argv, want):
    got, expected = run_cli(capsys, *argv), run_cli(capsys, *want)
    assert got == expected and expected[0] == 0 and expected[1]


@pytest.mark.parametrize("pin", ["1.7e308,1.7e308", "0,-1e200"])
def test_dist_pin_past_two_to_the_500_is_a_domain_error(capsys, pin):
    code, out, err = run_cli(capsys, *CURVATURE, "--phi3", f"dist:{pin}", "--point", "0.3,0.4")
    assert (code, out) == (1, "") and "at most 2^500 in absolute value" in err


def test_whitney_puncture_outside_the_unit_square_is_domain_error(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("whitney_decompose ran")

    monkeypatch.setattr(cli, "whitney_decompose", no_work)
    for puncture in ("2,2", "-1/2,1/2", "1/2,1.5"):
        code, out, err = run_cli(capsys, "whitney", f"--puncture={puncture}", "--kmax", "3")
        assert (code, out) == (1, "")
        assert err.startswith("explab: --puncture: the puncture ") and "outside the unit square" in err
    monkeypatch.undo()
    for puncture in ("0,0", "1,1", "0,1/3"):
        code, out, err = run_cli(capsys, "whitney", "--puncture", puncture, "--kmax", "3")
        assert (code, err) == (0, "") and out.startswith("cube ")


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


@pytest.mark.parametrize(
    "argv",
    [
        # Third-order partials near 1e400 ended in an OverflowError traceback.
        CURVATURE + ["--phi3", "dist:1e-200,1e-200", "--point", "0,0"],
        # h * h underflows to 0: a ZeroDivisionError traceback.
        ["curvature", "--phi1", "dist:0,0", "--phi2", "dist:1,0", "--phi3", "dist:0,1", "--point", "0.3,0.4"]
        + ["--step", "1e-200"],
    ],
    ids=["overflow", "underflow"],
)
def test_curvature_arithmetic_error_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("explab: arithmetic error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("step", ["nan", "inf", "0"])
def test_curvature_bad_step_is_domain_error_on_the_chart_path(capsys, step):
    # The auto method takes the exact chart here, which never reads the
    # step; a bad step printed -1.77778 and exited 0.
    argv = CURVATURE + ["--phi3", "poly:x^2+x*y", "--point", "0.5,0.5", "--method", "auto"]
    code, out, err = run_cli(capsys, *argv, f"--step={step}")
    assert code == 1 and out == ""
    assert err == f"explab: step must be a nonzero finite number, got {float(step)!r}\n"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == "-1.77778\n"


@pytest.mark.parametrize("method", ["auto", "chart"])
def test_curvature_step_on_the_chart_path_is_domain_error(capsys, method):
    # The chart never reads the step; a valid one was ignored, with exit 0.
    argv = CURVATURE + ["--phi3", "poly:x^2+x*y", "--point", "0.5,0.5", "--method", method]
    message = "explab: step needs method 'newton'; the chart method reads no step\n"
    assert run_cli(capsys, *argv, "--step", "1e-3") == (1, "", message)
    assert run_cli(capsys, *argv, "--step", "1e-3", "--method", "newton")[:2] == (0, "-1.77778\n")


def test_bands_builds_only_the_named_functions(capsys, monkeypatch):
    calls = []

    def spy(P):
        calls.append(P)
        return mp_numerator(P)

    monkeypatch.setattr(cli, "mp_numerator", spy)
    code, _, _ = run_cli(capsys, "bands", "--poly", "x^3 + x*y^2", "--k", "4", "--funcs", "px,py,pxy")
    assert code == 0 and calls == []
    code, _, err = run_cli(capsys, "bands", "--poly", "x + y", "--k", "4", "--funcs", "px,q,mp")
    assert code == 1 and err == "explab: unknown band function 'q'; use px,py,pxy,mp\n"
    assert calls == []
    code, out, _ = run_cli(capsys, "bands", "--poly", "x^3 + x*y^2", "--k", "4", "--funcs", "mp,px")
    assert code == 0 and len(calls) == 1 and "band j=1" in out


# ---------------------------------------------------------------------------
# measurement paths never build the cells tuple
# ---------------------------------------------------------------------------


@pytest.fixture
def forbid_cells_tuples(monkeypatch):
    """Grid sets whose derived cells tuple cannot be built: reading it fails."""

    def forbidden(self):
        raise AssertionError("a measurement path built the cells tuple")

    for cls in (gridset.GridSet1D, gridset.GridSet2D):
        monkeypatch.setattr(cls, "cells", property(forbidden))


def test_requests_build_no_cells_tuple(tmp_path, capsys, forbid_cells_tuples):
    path = tmp_path / "x.grid"
    path.write_text("gridset2d k=5\n" + "".join(f"{i} {j}\n" for i in range(32) for j in range(0, 32, 1 + i % 3)))
    for argv in (
        ["extract", "--set-file", str(path)],
        ["bands", "--poly", "x^2*y + x*y^3 + x", "--k", "5", "--sample-stride", "4"],
        ["whitney", "--region", "poly-pos:x^2 + y^2 - 3/8", "--kmax", "6"],
        ["nonconc", "--k", "12"],
        ["nonconc", "--gen", "cantor", "--k", "12"],
        ["scenario", "--name", "special_form_collapse"],
        ["scenario", "--name", "three_projection"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    with pytest.raises(AssertionError, match="cells tuple"):
        gen_ap(0.5, 0.0, Scale(8)).cells


# ---------------------------------------------------------------------------
# decomposition paths never build a DyadicSquare
# ---------------------------------------------------------------------------


def test_decompositions_build_no_dyadic_squares(capsys, monkeypatch):
    fs = [PolynomialMap(parse_poly(e)) for e in ("x", "y", "x*y + 1")]
    A = GridSet2D.from_cells(Scale(5), [(i, j) for i in range(0, 32, 3) for j in range(32)])
    region = PolynomialSignRegion(parse_poly("x^2 + y^2 - 3/8"))
    requests = (
        lambda: format_cube_decomposition(band_partition(fs, 0.4, A)),
        lambda: format_cube_decomposition(whitney_decompose(region, 6)),
        lambda: run_cli(capsys, "bands", "--poly", "x^2*y + x*y^3 + x", "--k", "5"),
        lambda: run_cli(capsys, "whitney", "--region", "poly-pos:x^2 + y^2 - 3/8", "--kmax", "6"),
        lambda: run_cli(capsys, "whitney", "--region", "punctured", "--puncture", "1/3,3/4", "--kmax", "8"),
        lambda: run_cli(capsys, "whitney", "--region", "full", "--kmax", "5"),
    )
    before = [request() for request in requests]

    def forbidden(self):
        raise AssertionError("a decomposition path built a DyadicSquare")

    monkeypatch.setattr(DyadicSquare, "__post_init__", forbidden)
    assert [request() for request in requests] == before
    assert all("cube k=" in text for text in before[:2])
    with pytest.raises(AssertionError, match="DyadicSquare"):
        whitney_decompose(region, 6).cubes


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "x^2 + x*y + y^2"],
        ["mp", "x + y + 3/4*(x^2 + y^2)^2"],
        ["hf", "x*y"],
        ["curvature", "--phi1", "coord:x", "--phi2", "coord:y", "--phi3", "poly:x*y + x", "--point", "0.3,0.4"],
        ["cover", "--k", "8", "--kprime", "4"],
        ["nonconc", "--k", "8"],
        ["image", "--poly", "x + y", "--k", "6"],
        ["energy", "--poly", "x + y", "--k", "6", "--hf-min", "0.01"],
        ["whitney", "--kmax", "3"],
        ["bands", "--poly", "x + y", "--k", "4", "--sample-stride", "2"],
        ["extract"],
        ["scenario", "--name", "sum_product_cantor"],
        ["list-scenarios"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_output_reads_back_with_csv_reader(capsys, tmp_path, argv):
    if argv == ["extract"]:
        path = tmp_path / "x.txt"
        path.write_text("gridset2d k=4\n" + "".join(f"{i} {j}\n" for i in range(16) for j in range(0, 16, 1 + i % 3)))
        argv = ["extract", "--set-file", str(path)]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    if argv[0] == "list-scenarios":
        fields = ["name", "family", "description"]
        assert rows == [fields] + [[s[f] for f in fields] for s in data["scenarios"]]
    elif argv[0] == "scenario":
        assert rows[0][0] == "k" and [r[0] for r in rows[1:]] == [str(k) for k in data["scales"]]
    else:
        # One header and one row: every scalar of the JSON result, the
        # multi-line decompositions of whitney and bands included.
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])
        flat = {k: str(v) for k, v in data.items() if not isinstance(v, (dict, list))}
        assert dict(zip(*rows)) == flat
    if not any(c in field for row in rows for field in row for c in ',"\r\n'):
        # Rows that need no quoting are plain comma-joined lines.
        assert out == "".join(",".join(row) + "\n" for row in rows)
    else:
        assert argv[0] in ("whitney", "bands", "list-scenarios")
