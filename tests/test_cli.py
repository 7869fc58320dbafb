import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from poissonlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_bracket_reproduces_quadratic_identity():
    code, out = run_cli(
        "bracket", "(A*z^2+B*z*w+C*w^2)*@z^@w",
        "(d*z+e*w)*@z+(f*z+g*w)*@w", "--chart", "z,w")
    assert code == 0
    assert out.strip() == ("(-2*z*w*A*e - 2*z*w*C*f - z^2*A*d + z^2*A*g"
                           " - z^2*B*f - w^2*B*e + w^2*C*d - w^2*C*g)*(@z^@w)")


def test_bracket_parse_error_exits_nonzero():
    code, _ = run_cli("bracket", "1.5*z", "@z", "--chart", "z,w")
    assert code == 2


def test_tables_ruled_json():
    code, out = run_cli("tables", "ruled", "--m-max", "4", "--json")
    assert code == 0
    rows = json.loads(out)
    f4 = [r for r in rows if r["manifold"] == "F4" and r["stratum"] == "e=0"]
    assert f4 and f4[0]["dim_h2"] == 1 and f4[0]["verdict"] == "obstructed"
    assert "witness" in f4[0]


def test_classify_commands():
    code, out = run_cli("classify", "ruled:4", "--poisson", "(z*xi + z*xi^2)*@z^@xi")
    assert code == 0
    assert json.loads(out)["verdict"] == "unobstructed_h2_zero"
    code, out = run_cli("classify", "ruled:6", "--poisson", "z*xi^2*@z^@xi")
    doc = json.loads(out)
    assert doc["verdict"] == "obstructed" and doc["data"]["dim_h2"] == 3
    code, out = run_cli("classify", "hopf:IV", "--poisson", "z^2*@z^@w")
    assert json.loads(out)["verdict"] == "undetermined"
    code, out = run_cli("classify", "hopf:III:p=2", "--poisson", "w^3*@z^@w")
    assert json.loads(out)["verdict"] == "undetermined"
    code, out = run_cli("classify", "hopf:III:p=2", "--poisson",
                        "(z*w + w^3)*@z^@w")
    assert json.loads(out)["verdict"] == "unobstructed_mc"
    code, out = run_cli("classify", "ep1", "--poisson", "(1+xi)*@z^@xi")
    assert json.loads(out)["verdict"] == "unobstructed_mc"
    code, out = run_cli("classify", "ep1", "--poisson", "0*@z^@xi")
    assert json.loads(out)["verdict"] == "obstructed"
    code, out = run_cli("classify", "tp1", "--poisson",
                        "(@z1^@z2) + (1+xi^2)*(@z2^@xi)")
    assert json.loads(out)["verdict"] == "unobstructed_mc"
    code, out = run_cli("classify", "torus:3", "--poisson", "@z1^@z2")
    assert json.loads(out)["data"]["dim_h1"] == 12


def test_verify_family_exit_codes():
    code, out = run_cli("verify-family", "ep1")
    assert code == 0 and json.loads(out)["ok"]
    code, out = run_cli("verify-family", "f5")
    assert code == 0 and json.loads(out)["dim_h1"] == 5
    code, out = run_cli("verify-family", "hopf-iib")
    assert code == 0 and json.loads(out)["h1_dim"] == 3


def test_mc_check():
    code, out = run_cli("mc-check", "ep1")
    assert code == 0 and json.loads(out)["defect_zero"]
    code, out = run_cli("mc-check", "tp1")
    assert code == 0
    doc = json.loads(out)
    assert doc["defect_zero"] and set(doc["pieces"]) == {"p14", "p15", "p16"}


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "6")
    code, out = run_cli("verify-family", "hopf-iic")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("argv", [
    ("tables", "hopf", "--degree", "1"),
    ("tables", "hopf", "--degree", "2"),
    ("tables", "hopf", "--degree", "-1"),
    ("tables", "hopf", "--p", "4", "--degree", "3"),
])
def test_unusable_degree_cap_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_degree_cap_env_below_minimum(monkeypatch, capsys):
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "1")
    code, out = run_cli("verify-family", "hopf-iic")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("tables", "hopf", "--p", "1"),
    ("tables", "hopf", "--p", "-3", "--degree", "5"),
])
def test_bad_exponent_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_degree_cap_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "five")
    code, out = run_cli("verify-family", "hopf-iic")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name,args", [
    ("ruled.md", ("tables", "ruled", "--m-max", "10", "--md")),
    ("hopf.md", ("tables", "hopf", "--md")),
    ("products.md", ("tables", "products", "--md")),
])
def test_markdown_tables_match_golden(name, args):
    code, out = run_cli(*args)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_report_matches_golden_and_is_deterministic():
    code, first = run_cli("report", "--m-max", "8")
    assert code == 0
    code, second = run_cli("report", "--m-max", "8")
    assert first == second
    assert first == (GOLDEN / "report.json").read_text()
