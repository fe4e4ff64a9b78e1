"""CLI behaviour: exit codes, formats, and agreement with library calls."""

import json
import math

import pytest

from explab import gridset
from explab.cli import main
from explab.gridset import Scale, gen_ap
from explab.polyexpr import classify_special_form, parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
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
