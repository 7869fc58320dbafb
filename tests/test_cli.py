import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import poissonlab.cli as cli_mod
import poissonlab.expr as expr_mod
from poissonlab.cli import FAMILY_NAMES, main

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
    code, out = run_cli("tables", "ruled", "--m-max", "4")
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
    # a negative power of a base that is not a monomial
    ("bracket", "0^-1*@z", "@w"),
    ("bracket", "(1+z)^-1*@z", "@w"),
])
def test_bad_exponent_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("bracket", "(@z", "@w"), "expected ')', found end of input"),
    (("bracket", "@z+", "@w"), "unexpected end of input"),
    (("classify", "ep1", "--poisson", "   "), "unexpected end of input"),
], ids=("open-paren", "trailing-plus", "blank"))
def test_input_that_stops_early_names_the_end_of_input(argv, message, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: {message} at line 1, column 4\n"


@pytest.mark.parametrize("source, char, col", [
    ("2²", "²", 2),
    ("z²*@z", "²", 2),
    ("①", "①", 1),
], ids=("superscript-digit", "superscript-after-name", "circled-digit"))
def test_non_ascii_digits_and_names_are_usage_errors(source, char, col, capsys):
    code, out = run_cli("bracket", source, "@z", "--chart", "z")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: unexpected character {char!r} at line 1, column {col}\n"


def test_cli_import_loads_every_layer_and_no_dataclasses():
    """A fresh interpreter (without `site`, so nothing is preloaded) that
    imports the CLI has loaded every layer module, as the benchmark's
    tracer needs, and neither `dataclasses` nor the `inspect` it pulls in."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import poissonlab.cli; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    layers = ("rational", "laurent", "multivector", "linalg", "obstruction",
              "ruled", "hopf", "products", "expr")
    assert {f"poissonlab.{m}" for m in layers} <= loaded


@pytest.mark.parametrize("spec", [
    "hopf:III:p=1", "hopf:III:p=x", "hopf:III", "hopf:V",
    "hopf:IV:p=3", "hopf:III:q=3",
])
def test_bad_hopf_spec_is_a_usage_error(spec, capsys):
    code, out = run_cli("classify", spec, "--poisson", "B*w^3*@z^@w")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("classify", "ruled", "--poisson", "z*@z^@xi"),
    ("classify", "torus", "--poisson", "1"),
    ("classify", "ruled:x", "--poisson", "z*@z^@xi"),
    ("classify", "ruled:13", "--poisson", "z*@z^@xi"),
    ("classify", "ruled:4:5", "--poisson", "z*@z^@xi"),
    ("classify", "torus:x", "--poisson", "@z1^@z2"),
    ("classify", "torus:0", "--poisson", "@z1^@z2"),
    ("tables", "ruled", "--m-max", "13"),
    ("tables", "ruled", "--m-max", "-1"),
    ("report", "--m-max", "13"),
])
def test_bad_manifold_spec_or_m_max_is_a_usage_error(argv, capsys):
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


def test_requests_replay_golden():
    """The requests of golden/requests.json, served one after another in
    this process, give their recorded exit codes, stdout and stderr; an
    exception that escapes `main` is recorded as `uncaught`."""
    for want in json.loads((GOLDEN / "requests.json").read_text()):
        out, err = io.StringIO(), io.StringIO()
        got = {"argv": want["argv"]}
        try:
            with redirect_stdout(out), redirect_stderr(err):
                got["exit"] = main(list(want["argv"]))
        except SystemExit as exc:
            got["exit"] = exc.code
        except Exception as exc:
            got["exit"] = None
            got["uncaught"] = f"{type(exc).__name__}: {exc}"
        got["stdout"], got["stderr"] = out.getvalue(), err.getvalue()
        assert got == want


@pytest.mark.parametrize("spec,src", [
    ("hopf:IV", "z^3*@z^@w"),
    ("hopf:III:p=2", "z^2*@z^@w"),
    ("hopf:IIc", "z^5*@z^@w"),
    ("ep1", "xi^3*@z^@xi"),
    ("ep1", "xi^-1*@z^@xi"),
    ("tp1", "xi^3*@z1^@xi"),
    ("tp1", "xi^-1*(@z2^@xi)"),
    ("tp1", "(@z1^@z2) + (1 + xi^4)*(@z2^@xi)"),
    ("torus:2", "z1*@z1^@z2"),
    ("torus:2", "A*@z1^@z2"),
    ("torus:2", "i*@z1^@z2"),
    ("torus:2", "@z1"),
    ("torus:3", "@z1^@z2^@z3"),
    ("torus:2", "@z1^@z3"),
])
def test_bivector_that_is_not_global_is_a_usage_error(spec, src, capsys):
    code, out = run_cli("classify", spec, "--poisson", src)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("classify", "ruled:5", "--poisson", "z^-1*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "z^8*xi^2*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "xi^3*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "@z"),
    ("classify", "ruled:5", "--poisson", "zp*@z^@xi"),
    ("bracket", "z*@z", "w*@w", "--chart", "z,z"),
])
def test_ruled_bivector_that_is_not_global_or_bad_chart_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# the verdict on each Hopf stratum's invariant bivector form
STRATUM_VERDICTS = {("IV", "zero"): "obstructed", ("III", "zero"): "obstructed",
                    ("III", "B"): "undetermined"}


@pytest.mark.parametrize("p", (2, 3))
def test_every_hopf_stratum_form_is_accepted(p):
    from poissonlab import hopf

    for t, stratum in hopf.strata(p):
        spec = f"hopf:{t.tag}" + (f":p={p}" if t.p else "")
        src = str(hopf.stratum_bivector(hopf.make_context(t), stratum))
        code, out = run_cli("classify", spec, "--poisson", src)
        assert code == 0
        expected = STRATUM_VERDICTS.get((t.tag, stratum), "unobstructed_mc")
        assert json.loads(out)["verdict"] == expected, (spec, src)


# symbolic type-IV input is placed by 4AC - B^2 as a polynomial in the
# parameters, with the verdict of its A = 1 instance
SYMBOLIC_IV = {
    "(A*z^2 + 2*A*z*w + A*w^2)*@z^@w": ("4AC-B^2=0", "undetermined"),
    "(A*A*z^2 + 2*A*z*w + w^2)*@z^@w": ("4AC-B^2=0", "undetermined"),
    "(A*z^2)*@z^@w": ("4AC-B^2=0", "undetermined"),
    "A*z*w*@z^@w": ("generic", "unobstructed_mc"),
}


@pytest.mark.parametrize("src", sorted(SYMBOLIC_IV))
def test_symbolic_hopf_iv_input_is_placed_by_its_discriminant(src):
    code, out = run_cli("classify", "hopf:IV", "--poisson", src)
    assert code == 0
    doc = json.loads(out)
    assert (doc["stratum"], doc["verdict"]) == SYMBOLIC_IV[src]
    instance = src.replace("A", "1")
    assert json.loads(run_cli("classify", "hopf:IV", "--poisson", instance)[1]) == doc


def test_tables_json_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("tables", "ruled", "--m-max", "4", "--json")
    assert exc.value.code == 2


def test_torus_passes_its_coefficients_on(monkeypatch):
    from fractions import Fraction

    from poissonlab import products
    seen, real = [], products.torus_dims

    def torus_dims(n, coeffs=None):
        seen.append((n, coeffs))
        return real(n, coeffs)

    monkeypatch.setattr(products, "torus_dims", torus_dims)
    code, out = run_cli("classify", "torus:3", "--poisson", "(@z1^@z2) - 1/2*(@z2^@z3)")
    assert code == 0 and json.loads(out)["data"]["dim_h1"] == 12
    assert seen == [(3, {"b_1_2": 1, "b_1_3": 0, "b_2_3": Fraction(-1, 2)})]


REUSE_SEQUENCE = (
    ("tables", "ruled", "--m-max", "4"),
    ("tables", "nope"),
    ("tables", "ruled", "--md"),
    ("classify", "ruled:5"),
    ("classify", "ruled:4", "--poisson", "(z*xi + z*xi^2)*@z^@xi"),
    ("tables", "products", "--md"),
)


def _served(argv):
    """Exit code, stdout and stderr of one `main` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reused_safely(monkeypatch):
    from poissonlab import cli

    cli.build_parser.cache_clear()
    reused = [_served(argv) for argv in REUSE_SEQUENCE]
    assert cli.build_parser.cache_info().misses == 1
    assert [r[0] for r in reused] == [0, 2, 0, 2, 0, 0]
    # the same calls, each on a parser of its own
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_served(argv) for argv in REUSE_SEQUENCE] == reused


def test_torus_parameter_names_stay_distinct_for_large_n():
    # the pairs (1, 112) and (11, 12) once both named their parameter b1112
    n = 112
    code, out = run_cli("classify", f"torus:{n}", "--poisson", "@z1^@z2")
    assert code == 0
    assert json.loads(out)["data"]["dim_h1"] == n * n + n * (n - 1) // 2


@pytest.mark.parametrize("n", [cli_mod.MAX_TORUS_N + 1, 100000, 1000000000000])
def test_torus_n_above_the_limit_exits_2_before_any_work(n, monkeypatch, capsys):
    from poissonlab import products

    def work(*args):
        raise AssertionError("torus work started for an n above the limit")

    monkeypatch.setattr(products, "torus_dims", work)
    monkeypatch.setattr(cli_mod, "_torus_coeffs", work)
    code, out = run_cli("classify", f"torus:{n}", "--poisson", "@z1^@z2")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: 'torus:{n}': N must be an integer 1..{cli_mod.MAX_TORUS_N}\n"


CAP, P = cli_mod.MAX_CAP, cli_mod.MAX_P


@pytest.mark.parametrize("argv, env, message", [
    (("tables", "hopf", "--degree", str(CAP + 1)), None,
     f"degree cap {CAP + 1} is above the maximum {CAP}"),
    (("tables", "hopf", "--degree", "1000"), None, f"degree cap 1000 is above the maximum {CAP}"),
    (("report", "--degree", str(CAP + 1)), None, f"degree cap {CAP + 1} is above the maximum {CAP}"),
    (("verify-family", "hopf-iv", "--degree", str(CAP + 1)), None,
     f"degree cap {CAP + 1} is above the maximum {CAP}"),
    (("tables", "hopf"), str(CAP + 1), f"degree cap {CAP + 1} is above the maximum {CAP}"),
    (("tables", "hopf", "--p", str(P + 1)), None, f"--p must be an integer in 2..{P}, got {P + 1}"),
    (("tables", "hopf", "--p", "1000"), None, f"--p must be an integer in 2..{P}, got 1000"),
    (("classify", f"hopf:III:p={P + 1}", "--poisson", "w*@z^@w"), None,
     f"'hopf:III:p={P + 1}': p must be an integer in 2..{P}"),
    (("classify", "hopf:IIa:p=1000", "--poisson", "w*@z^@w"), None,
     f"'hopf:IIa:p=1000': p must be an integer in 2..{P}"),
], ids=("degree", "degree-1000", "report", "verify-family", "env", "p", "p-1000",
        "iii-spec", "iia-spec"))
def test_hopf_cap_or_p_above_the_bound_exits_2_before_any_work(argv, env, message,
                                                                monkeypatch, capsys):
    from poissonlab import hopf, ruled

    def work(*args):
        raise AssertionError("work started for a cap or p above the bound")

    monkeypatch.setattr(hopf, "cover_model", work)
    monkeypatch.setattr(ruled, "table1_sweep", work)
    if env is not None:
        monkeypatch.setenv("POISSONLAB_DEGREE_CAP", env)
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_hopf_bounds_admit_their_largest_values():
    import argparse

    from poissonlab import hopf

    # the default cap p + 3 of the largest p is the largest cap
    assert CAP >= 40 and hopf.default_cap(hopf.HopfType("III", P)) == CAP
    assert cli_mod._degree_cap(argparse.Namespace(degree=CAP)) == CAP
    assert cli_mod._hopf_type(["hopf", "IIa", f"p={P}"]) == hopf.HopfType("IIa", P)


@pytest.mark.parametrize("p", [3, 5, P])
def test_stratum_b_is_classified_on_the_model_of_its_own_p(p):
    # the undetermined verdict once came from the p = 2 model for every p
    code, out = run_cli("classify", f"hopf:III:p={p}", "--poisson", f"w^{p + 1}*@z^@w")
    doc = json.loads(out)
    assert code == 0
    assert (doc["manifold"], doc["stratum"], doc["verdict"]) == (
        f"Hopf III(p={p})", "B", "undetermined")


STORED_GEOMETRY_REQUESTS = (
    ("classify", "ruled:7", "--poisson", "((z + 2*z^2)*xi + xi^2)*@z^@xi"),
    ("classify", "ruled:7", "--poisson", "(1 - z^9)*xi^2*@z^@xi"),
    ("classify", "ep1", "--poisson", "(1 + xi)*@z^@xi"),
    ("classify", "tp1", "--poisson", "(@z1^@z2) + (1 + xi^2)*(@z2^@xi)"),
)


def test_classify_builds_each_geometry_once_per_process(monkeypatch):
    """Two ruled:7 requests, then an ep1 and a tp1 request served twice, in
    one process: each geometry's bases are built once, and every request
    prints what it prints in a fresh process."""
    from poissonlab import products, ruled

    monkeypatch.setattr(ruled, "_SURFACE_CACHE", {})
    monkeypatch.setattr(products, "_FRAME_CACHE", {})
    built = []
    for module, name in ((ruled, "h_bases"), (products, "ep1_bases"), (products, "tp1_bases")):
        def counted(frame, real=getattr(module, name), name=name):
            built.append(name)
            return real(frame)
        monkeypatch.setattr(module, name, counted)
    argvs = STORED_GEOMETRY_REQUESTS + STORED_GEOMETRY_REQUESTS[2:]
    served = [_served(argv) for argv in argvs]
    assert sorted(built) == ["ep1_bases", "h_bases", "tp1_bases"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in STORED_GEOMETRY_REQUESTS:
        fresh = subprocess.run([sys.executable, "-m", "poissonlab.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert fresh.returncode == 0
        outputs = [s for a, s in zip(argvs, served) if a == argv]
        assert outputs == [(0, fresh.stdout, fresh.stderr)] * len(outputs)


def test_requests_with_their_own_parameter_names_store_no_surface():
    # 300 distinct name sets, each served once, leave the store as it was
    from poissonlab import ruled

    _served(("classify", "ruled:6", "--poisson", "(a0*z + 1)*xi^2*@z^@xi"))
    before = dict(ruled._SURFACE_CACHE)
    for k in range(300):
        code, out, _ = _served(("classify", "ruled:6", "--poisson", f"(a{k}*z + 1)*xi^2*@z^@xi"))
        assert code == 0 and json.loads(out)["verdict"] == "obstructed"
    assert ruled._SURFACE_CACHE == before


def test_numeric_ruled_requests_reuse_the_stored_surface(monkeypatch):
    from poissonlab import ruled

    monkeypatch.setattr(ruled, "_SURFACE_CACHE", {})
    built = []
    real = ruled.h_bases
    monkeypatch.setattr(ruled, "h_bases", lambda rs: built.append(rs) or real(rs))
    argv = ("classify", "ruled:6", "--poisson", "(2*z + 1)*xi^2*@z^@xi")
    served = [_served(argv) for _ in range(3)]
    assert served[0][0] == 0 and served.count(served[0]) == 3
    assert list(ruled._SURFACE_CACHE) == [(6, ())]
    assert built == [ruled._SURFACE_CACHE[6, ()][0]]


def test_hopf_classify_fails_when_its_family_checks_fail(monkeypatch, capsys):
    from poissonlab import hopf

    argv = ("classify", "hopf:IIc", "--poisson", "z*w*@z^@w")
    code, out = run_cli(*argv)
    assert code == 0 and json.loads(out)["data"]["dim_h1"] == 3
    capsys.readouterr()
    monkeypatch.setattr(hopf, "_MODEL_CACHE", {})
    monkeypatch.setattr(hopf, "family_invariance", lambda t: False)
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: the contraction family of type IIc is not invariant\n"
    monkeypatch.undo()

    def fails(t, cap=None):
        raise hopf.MembershipFails("bivector direction dies in the H0 cokernel")

    monkeypatch.setattr(hopf, "_MODEL_CACHE", {})
    monkeypatch.setattr(hopf, "d_membership", fails)
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: bivector direction dies in the H0 cokernel\n"


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_verify_family_passes_for_every_family(name):
    code, out = run_cli("verify-family", name)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_each_source_is_tokenized_once(monkeypatch):
    calls, real = [], expr_mod.tokenize

    def counted(src):
        calls.append(src)
        return real(src)

    monkeypatch.setattr(expr_mod, "tokenize", counted)
    monkeypatch.setattr(cli_mod, "tokenize", counted)
    src = "((1/2 + A*z)*xi + z^2*xi^2)*@z^@xi"
    code, _ = run_cli("classify", "ruled:7", "--poisson", src)
    assert code == 0 and calls == [src]
    calls.clear()
    left, right = "(A*z + B*w)*@z", "z*w*@w"
    code, _ = run_cli("bracket", left, right, "--chart", "z,w")
    assert code == 0 and calls == [left, right]


def test_a_tokenizer_error_of_any_source_is_reported_first():
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["bracket", "(z + @q", "1.5*w"])
    assert code == 2
    assert "decimal literals are not accepted" in err.getvalue()
