import functools
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import poissonlab.cli as cli_mod
import poissonlab.expr as expr_mod
from poissonlab import obstruction
from poissonlab.cli import FAMILY_NAMES, main
from poissonlab.linalg import MapFamily
from poissonlab.rational import decimal

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


_QS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_TRIPLES = st.lists(_QS, min_size=3, max_size=3)


@given(d=_QS, b=st.one_of(st.just([0, 0, 0]), _TRIPLES), c=st.one_of(st.none(), _TRIPLES),
       r=_QS)
@example(d=1, b=[0, 1, 0], c=[1, 0, 0], r=0)
@settings(max_examples=25, deadline=None)
def test_tp1_verdict_follows_proportionality(d, b, c, r):
    # D dz1^dz2 + b(xi) dz2^dxi + c(xi) dz1^dxi is Poisson exactly when the
    # coefficient vectors b and c are proportional; c = None draws c = r b
    c = [r * x for x in b] if c is None else c
    poly = lambda v: f"(({v[0]}) + ({v[1]})*xi + ({v[2]})*xi^2)"  # noqa: E731
    code, out, err = _served(("classify", "tp1", "--poisson",
                              f"({d})*(@z1^@z2) + {poly(b)}*(@z2^@xi) + {poly(c)}*(@z1^@xi)"))
    if any(b[i] * c[j] != b[j] * c[i] for i in range(3) for j in range(i + 1, 3)):
        assert (code, out, err) == (1, "", "error: bivector violates the Poisson identity\n")
        return
    class_id = 2 if any(b) else 3 if any(c) else 1
    doc = json.loads(out)
    assert code == 0 and doc["stratum"] == f"class-{class_id}"
    assert doc["data"] == {"dim_h1": 17 if class_id == 1 else 9}
    assert doc["verdict"] == ("obstructed" if class_id == 1 else "unobstructed_mc")


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
    # a suffix the kind does not take, and a kind that does not exist
    ("classify", "ep1:3", "--poisson", "@z^@xi"),
    ("classify", "tp1:x:y", "--poisson", "@z1^@z2"),
    ("classify", "foo", "--poisson", "@z^@w"),
])
def test_bad_manifold_spec_or_m_max_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_hopf_checks_the_degree_cap_env_before_any_work(monkeypatch, capsys):
    # the cap above the bound is a case of test_hopf_cap_or_p_above_the_bound_...
    from poissonlab import hopf

    def work(*args):
        raise AssertionError("work started for a degree cap below the minimum")

    monkeypatch.setattr(hopf, "cover_model", work)
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "2")
    code, out = run_cli("classify", "hopf:IIc", "--poisson", "z*w*@z^@w")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: degree cap 2 is below the minimum {cli_mod.MIN_CAP}\n"


def test_classify_hopf_at_the_degree_cap_env_matches_the_default_cap(monkeypatch):
    # every hopf: request of the golden replay, recorded with no variable set,
    # gives the same exit code and stdout at cap 6, which names the same one
    # cover model of each type
    from poissonlab import hopf

    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "6")
    wants = [want for want in json.loads((GOLDEN / "requests.json").read_text())
             if want["argv"][0] == "classify" and want["argv"][1].startswith("hopf:")]
    assert len(wants) == 11
    for want in wants:
        with redirect_stderr(io.StringIO()):
            assert run_cli(*want["argv"]) == (want["exit"], want["stdout"])
    assert {key for key in obstruction._STORE if key[0] == "Hopf"} == {
        ("Hopf", t) for t, _ in hopf.strata(2)}


def test_report_checks_the_hopf_families_at_its_degree_cap(monkeypatch):
    from poissonlab import hopf

    monkeypatch.setattr(obstruction, "_STORE", {})
    named, built = [], []
    real_name, real_build = hopf.cover_model, hopf._build_cover_model
    monkeypatch.setattr(hopf, "cover_model",
                        lambda ctx, cap: named.append((ctx.type, cap)) or real_name(ctx, cap))
    monkeypatch.setattr(hopf, "_build_cover_model",
                        lambda ctx: built.append(ctx.type) or real_build(ctx))
    code, out = run_cli("report", "--m-max", "4", "--degree", "6")
    assert code == 0 and json.loads(out)["families"]["hopf-iic"]["ok"]
    # one model per Hopf type: the tables name it at the report's cap, which
    # is checked there, and the families read the same model
    types = [t for t in dict.fromkeys(t for t, _ in hopf.strata(2))]
    assert built == types
    assert named == [(t, 6) for t in types] + [(t, None) for t in types]


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


@pytest.mark.parametrize("order", ["forward", "warm", "reverse"])
def test_requests_replay_golden(order, monkeypatch):
    """The requests of golden/requests.json, served one after another in
    this process from an empty store, give their recorded exit codes,
    stdout and stderr; an exception that escapes `main` is recorded as
    `uncaught`.  "warm" serves them all twice, the second pass from what
    the first stored, and "reverse" serves them last first."""
    wants = json.loads((GOLDEN / "requests.json").read_text())
    passes = {"forward": [wants], "warm": [wants, wants], "reverse": [wants[::-1]]}[order]
    monkeypatch.setattr(obstruction, "_STORE", {})
    for want in itertools.chain.from_iterable(passes):
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
    # a form part is rejected, not dropped
    ("ep1", "@z^@xi + ~z*@xi"),
    ("ep1", "~z*@z^@xi"),
])
def test_bivector_that_is_not_global_is_a_usage_error(spec, src, capsys):
    code, out = run_cli("classify", spec, "--poisson", src)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec,src", [
    ("hopf:IIc", "z^5*@z^@w"),
    ("hopf:IV", "z^9*@z^@w"),
])
def test_a_hopf_term_above_the_cap_is_told_it_is_off_weight_0(spec, src, capsys):
    # z^5 dz^dw and z^9 dz^dw have weights 3 and 7: off weight 0 at every
    # cap, which is the reason given, rather than the cap
    code, out = run_cli("classify", spec, "--poisson", src)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {src!r} is not an invariant bivector")
    assert err.endswith(": bivector has a term off weight 0\n")


def test_a_hopf_term_with_a_negative_exponent_is_told_so(capsys):
    # outside the monomial space at every weight: the reason names the exponent
    src = "z^-1*w*@z^@w"
    assert run_cli("classify", "hopf:IV", "--poisson", src) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {src!r} is not an invariant bivector on the Hopf surface of type IV: "
        "field has a term with a negative exponent\n")


@pytest.mark.parametrize("argv", [
    ("classify", "ruled:5", "--poisson", "z^-1*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "z^8*xi^2*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "xi^3*@z^@xi"),
    ("classify", "ruled:5", "--poisson", "@z"),
    ("classify", "ruled:5", "--poisson", "zp*@z^@xi"),
    ("bracket", "z*@z", "w*@w", "--chart", "z,z"),
    # --dbar takes the --chart check: no empty and no repeated name
    ("bracket", "@z", "~w", "--chart", "z", "--dbar", "w,"),
    ("bracket", "@z", "~w", "--chart", "z", "--dbar", "w,w"),
    ("bracket", "@z", "~w", "--chart", "z", "--dbar", ","),
    # and names chart variables only
    ("bracket", "~w*@z", "z*@z", "--chart", "z", "--dbar", "w"),
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
    monkeypatch.setattr(cli_mod, "_read", work)
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
    (("classify", "hopf:IIc", "--poisson", "z*w*@z^@w"), str(CAP + 1),
     f"degree cap {CAP + 1} is above the maximum {CAP}"),
], ids=("degree", "degree-1000", "report", "verify-family", "env", "p", "p-1000",
        "iii-spec", "iia-spec", "classify-env"))
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


def test_the_hopf_bounds_admit_their_largest_values(capsys):
    import argparse

    from poissonlab import hopf

    # the largest p has a valid cap, p + 1, within the cap's bounds
    assert CAP >= 40 and P + 1 <= CAP
    assert cli_mod._degree_cap(argparse.Namespace(degree=CAP)) == CAP
    assert cli_mod._hopf_type(["hopf", "IIa", f"p={P}"]) == hopf.HopfType("IIa", P)
    code, out = run_cli("tables", "hopf", "--p", str(P), "--degree", str(P + 1))
    assert code == 0 and json.loads(out)["classification"]
    assert capsys.readouterr().err == ""


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

    monkeypatch.setattr(obstruction, "_STORE", {})
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
    before = dict(obstruction._STORE)
    for k in range(300):
        code, out, _ = _served(("classify", "ruled:6", "--poisson", f"(a{k}*z + 1)*xi^2*@z^@xi"))
        assert code == 0 and json.loads(out)["verdict"] == "obstructed"
    assert obstruction._STORE == before


def test_numeric_ruled_requests_reuse_the_stored_surface(monkeypatch):
    from poissonlab import ruled

    monkeypatch.setattr(obstruction, "_STORE", {})
    built = []
    real = ruled.h_bases
    monkeypatch.setattr(ruled, "h_bases", lambda rs: built.append(rs) or real(rs))
    argv = ("classify", "ruled:6", "--poisson", "(2*z + 1)*xi^2*@z^@xi")
    served = [_served(argv) for _ in range(3)]
    assert served[0][0] == 0 and served.count(served[0]) == 3
    assert list(obstruction._STORE) == [("F", 6, ())]
    assert built == [obstruction._STORE["F", 6, ()]]


def _count_matrix_of_map(monkeypatch):
    """Record the domain name of every bracket matrix the ruled module builds:
    its per-basis maps (through `obstruction.bracket_family`) and its H0 map."""
    from poissonlab import obstruction, ruled

    built = []
    for module in (obstruction, ruled):
        def counted(op, dom, *rest, real=module.matrix_of_map):
            built.append(dom.space_name)
            return real(op, dom, *rest)
        monkeypatch.setattr(module, "matrix_of_map", counted)
    return built


def test_stored_ruled_surfaces_build_their_h1_maps_once(monkeypatch):
    # the maps [s_j, -] of the three e-part basis bivectors of F7, built with
    # the surface and summed by every request after it
    from poissonlab import ruled

    monkeypatch.setattr(obstruction, "_STORE", {})
    built = _count_matrix_of_map(monkeypatch)
    argvs = [("classify", "ruled:7", "--poisson", src) for src in
             ("((1 - 2*z^2)*xi + z*xi^2)*@z^@xi", "(3*z^9 + 1)*xi^2*@z^@xi",
              "(1/2*z*xi + xi^2)*@z^@xi")]
    counts = []
    for argv in argvs:
        code, out, _ = _served(argv)
        assert code == 0
        counts.append(len(built))
    assert built == ["H1(F7,Theta)"] * 3 and counts == [3, 3, 3]
    assert list(obstruction._STORE) == [("F", 7, ())]
    assert isinstance(obstruction._STORE["F", 7, ()].maps, MapFamily)


def test_requests_with_their_own_parameter_names_build_their_own_h1_maps(monkeypatch):
    from poissonlab import ruled

    _served(("classify", "ruled:7", "--poisson", "xi*@z^@xi"))
    before = dict(obstruction._STORE)
    built = _count_matrix_of_map(monkeypatch)
    for k in range(2):
        code, out, _ = _served(("classify", "ruled:7", "--poisson", f"(a*z + {k + 1})*xi*@z^@xi"))
        assert code == 0 and json.loads(out)["verdict"] == "unobstructed_h2_zero"
        assert built == ["H1(F7,Theta)"] * 3 * (k + 1)
    assert obstruction._STORE == before


def test_a_cap_below_p_plus_1_builds_no_model_of_its_type(monkeypatch, capsys):
    # cap 4 would cut the weight-0 blocks of III(p=5), whose fields reach
    # degree 6: refused before the model is built; the IV model named before it stays
    from poissonlab import hopf

    monkeypatch.setattr(obstruction, "_STORE", {})
    code, out = run_cli("tables", "hopf", "--p", "5", "--degree", "4")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == ("error: degree cap 4 is below 6, the largest degree "
                                       "of a weight-0 field of type III(p=5)\n")
    stored = [key[1] for key in obstruction._STORE if key[0] == "Hopf"]
    assert stored == [hopf.HopfType("IV")]
    # the refusal leaves nothing behind: with no cap the model of III(p=5) serves
    code, out = run_cli("classify", "hopf:III:p=5", "--poisson", "z*w*@z^@w")
    assert code == 0 and json.loads(out)["data"]["dim_h1"] == 3


def test_a_representative_above_the_cap_is_a_usage_error(monkeypatch, capsys):
    # IIa(p=5) at cap 4: the named M1 class (delta^5 z - w^5) @z has a term of
    # degree 5, and the weight-0 fields reach degree 6
    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "4")
    assert run_cli("classify", "hopf:IIa:p=5", "--poisson", "w^6*@z^@w") == (2, "")
    assert capsys.readouterr().err == ("error: degree cap 4 is below 6, the largest degree "
                                       "of a weight-0 field of type IIa(p=5)\n")
    assert not obstruction._STORE


@pytest.mark.parametrize("p", [3, 5, P])
def test_iia_at_the_cap_p_is_refused_and_at_p_plus_1_names_the_model(p, monkeypatch):
    # at the cap p a truncated IIa model lacked w^(p+1) d/dz ^ d/dw yet passed
    # its validation, and then failed on z*w*@z^@w with an uncaught error
    spec = f"hopf:IIa:p={p}"
    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", str(p))
    assert _served(("classify", spec, "--poisson", "z*w*@z^@w")) == (
        2, "", f"error: degree cap {p} is below {p + 1}, the largest degree of a weight-0 "
               f"field of type IIa(p={p})\n")
    assert not obstruction._STORE
    src = f"w^{p + 1}*@z^@w"
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", str(p + 1))
    at_cap = _served(("classify", spec, "--poisson", src))
    monkeypatch.delenv("POISSONLAB_DEGREE_CAP")
    monkeypatch.setattr(obstruction, "_STORE", {})
    assert at_cap[0] == 0 and at_cap == _served(("classify", spec, "--poisson", src))


@pytest.mark.parametrize("argv", (
    ("classify", "ep1", "--poisson", "(A + xi)*@z^@xi"),
    ("classify", "tp1", "--poisson", "A*@z1^@z2"),
), ids=("ep1", "tp1"))
def test_only_a_non_constant_coefficient_is_an_inexact_one(argv, monkeypatch, capsys):
    from poissonlab.laurent import LaurentPoly

    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == "error: classification needs exact rational coefficients\n"

    def broken(poly):
        raise RuntimeError("constant_value is broken")

    monkeypatch.setattr(LaurentPoly, "constant_value", broken)
    with pytest.raises(RuntimeError, match="constant_value is broken"):
        run_cli(*argv)


def test_hopf_classify_fails_when_its_family_checks_fail(monkeypatch, capsys):
    from poissonlab import hopf

    argv = ("classify", "hopf:IIc", "--poisson", "z*w*@z^@w")
    code, out = run_cli(*argv)
    assert code == 0 and json.loads(out)["data"]["dim_h1"] == 3
    capsys.readouterr()
    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setattr(hopf, "family_invariance", lambda t: False)
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: the contraction family of type IIc is not invariant\n"
    monkeypatch.undo()

    def fails(t, cap=None):
        raise hopf.MembershipFails("bivector direction dies in the H0 cokernel")

    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setattr(hopf, "d_membership", fails)
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: bivector direction dies in the H0 cokernel\n"


# per manifold kind of the classify table: a spec, an input it classifies and
# one outside the bivectors it reads
KIND_CASES = {
    "ruled": ("ruled:5", "z*xi^2*@z^@xi", "xi^3*@z^@xi"),
    "hopf": ("hopf:IIc", "z*w*@z^@w", "z^3*@z^@w"),
    "ep1": ("ep1", "(1 + xi)*@z^@xi", "xi^3*@z^@xi"),
    "tp1": ("tp1", "@z1^@z2", "xi^3*@z1^@xi"),
    "torus": ("torus:2", "@z1^@z2", "z1*@z1^@z2"),
}


def test_the_classify_table_is_the_one_list_of_manifold_kinds(capsys):
    assert tuple(cli_mod.GEOMETRIES) == tuple(KIND_CASES)
    for spec, valid, outside in KIND_CASES.values():
        code, out = run_cli("classify", spec, "--poisson", valid)
        assert code == 0 and json.loads(out)["verdict"]
        assert capsys.readouterr().err == ""
        assert run_cli("classify", spec, "--poisson", outside) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # an unknown kind is told every form the table takes
    assert run_cli("classify", "foo", "--poisson", "@z^@w") == (2, "")
    err = capsys.readouterr().err
    assert all(form in err for form, _ in cli_mod.GEOMETRIES.values())


def test_the_family_names_are_the_ruled_hopf_and_product_families():
    from poissonlab import hopf, ruled

    assert FAMILY_NAMES == (*ruled.FAMILIES, *(f"hopf-{tag.lower()}" for tag in hopf.TYPE_TAGS),
                            "ep1", "tp1")
    report = json.loads((GOLDEN / "report.json").read_text())
    assert set(report["families"]) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_verify_family_passes_for_every_family(name):
    code, out = run_cli("verify-family", name)
    assert code == 0
    assert json.loads(out)["ok"] is True


# the check each family report runs: a second request must run none of them
FAMILY_CHECKS = (("ruled", "verify_family"), ("hopf", "family_invariance"),
                 ("hopf", "d_membership"), ("products", "ep1_classify"),
                 ("products", "tp1_classify"))


def test_a_second_verify_family_is_answered_from_the_store(monkeypatch):
    """In one process, a second request for each of the 11 families prints
    the first one's bytes and checks nothing again."""
    import importlib

    monkeypatch.setattr(obstruction, "_STORE", {})
    first = {name: _served(("verify-family", name)) for name in FAMILY_NAMES}
    assert len(first) == 11 and {code for code, _, _ in first.values()} == {0}

    def checked_again(*args):
        raise AssertionError("a stored family was checked again")

    for module, name in FAMILY_CHECKS:
        monkeypatch.setattr(importlib.import_module(f"poissonlab.{module}"), name, checked_again)
    assert {name: _served(("verify-family", name)) for name in FAMILY_NAMES} == first


@pytest.mark.parametrize("name, module, check, exc", [
    ("f3", "ruled", "verify_family", AssertionError("residue check failed")),
    ("hopf-iic", "hopf", "d_membership", None),
    ("tp1", "products", "tp1_classify", AssertionError("expected dim H1 = 9 on this class")),
])
def test_a_family_check_that_raises_stores_nothing(name, module, check, exc, monkeypatch):
    # a check that raises once exits 1; restored, the same request exits 0
    # with the golden report
    import importlib

    from poissonlab import hopf

    exc = hopf.MembershipFails("pair 0 of type IIc: (id-f_*)B != [lam_s, A]") if exc is None else exc

    def fails(*args):
        raise exc

    monkeypatch.setattr(obstruction, "_STORE", {})
    with monkeypatch.context() as patched:
        patched.setattr(importlib.import_module(f"poissonlab.{module}"), check, fails)
        code, out, err = _served(("verify-family", name))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"family": name, "ok": False, "error": str(exc)}
    assert not [key for key in obstruction._STORE if key[0] == "family"]
    golden = json.loads((GOLDEN / "report.json").read_text())["families"][name]
    want = json.dumps(golden, sort_keys=True, indent=2) + "\n"
    assert _served(("verify-family", name)) == (0, want, "")


def test_only_the_hopf_families_read_the_degree_cap(monkeypatch):
    # POISSONLAB_DEGREE_CAP is a default of the Hopf computations only: a
    # ruled or product family neither reads it nor keys its report by it
    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "five")
    assert _served(("verify-family", "f2"))[0] == 0
    assert _served(("verify-family", "hopf-iic"))[0] == 2
    monkeypatch.setenv("POISSONLAB_DEGREE_CAP", "6")
    for name in ("ep1", "hopf-iic"):
        assert _served(("verify-family", name))[0] == 0
    assert [key for key in obstruction._STORE if key[0] == "family"] == [
        ("family", "f2"), ("family", "ep1"), ("family", "hopf-iic")]


@pytest.mark.parametrize("argv, message", [
    (("tables", "ruled", "--p", "99", "--m-max", "1"), "tables ruled does not read --p"),
    (("tables", "ruled", "--degree", "5"), "tables ruled does not read --degree"),
    (("tables", "products", "--p", "5"), "tables products does not read --p"),
    (("tables", "products", "--m-max", "3"), "tables products does not read --m-max"),
    (("tables", "products", "--degree", "7"), "tables products does not read --degree"),
    (("tables", "hopf", "--m-max", "3"), "tables hopf does not read --m-max"),
    (("verify-family", "f2", "--degree", "7"), "verify-family f2 does not read --degree"),
    (("verify-family", "ep1", "--degree", "7"), "verify-family ep1 does not read --degree"),
    (("verify-family", "tp1", "--degree", "1000"), "verify-family tp1 does not read --degree"),
])
def test_an_option_the_command_does_not_read_exits_2_before_any_work(argv, message,
                                                                    monkeypatch, capsys):
    import importlib

    from poissonlab import hopf, ruled

    def work(*args):
        raise AssertionError("work started for a request with an option it does not read")

    for module, name in FAMILY_CHECKS:
        monkeypatch.setattr(importlib.import_module(f"poissonlab.{module}"), name, work)
    monkeypatch.setattr(ruled, "table1_sweep", work)
    monkeypatch.setattr(hopf, "cover_model", work)
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def _bracket_in_a_subprocess(left: str) -> tuple:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "poissonlab.cli", "bracket", left, "@z"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("left, message", [
    ("((1+z)^100)^100*@z", "column 13 spans 10000 degrees in z, above the maximum 1000"),
    ("(1+z^2)^501*@z", "column 9 spans 1002 degrees in z, above the maximum 1000"),
    ("(z^-1 + A*w)^-2*@z", None),
    ("(1+z+w)^200*@z", "column 9 has an exponent box of 40401, above the maximum 5000"),
    ("(z+w)^70*@z", "column 7 has an exponent box of 5041, above the maximum 5000"),
    ("(A*z + w^-1)^600*@z", "column 14 has an exponent box of 217081801, above the maximum 5000"),
])
def test_a_power_whose_result_is_too_large_exits_2(left, message):
    # each was computed in full before the bound: the first and the fourth
    # ran for more than 10 s
    code, out, err = _bracket_in_a_subprocess(left)
    assert code == 2 and out == "" and err.count("\n") == 1
    if message is None:
        # a negative power of a base that is not a monomial keeps its message
        assert err.startswith("error: negative powers only apply to monomials")
    else:
        assert err == f"error: the power with the exponent at line 1, {message}\n"


@pytest.mark.parametrize("left, want", [
    ("z^1000*@z", "-1000*z^999*@z\n"),
    (f"2^{cli_mod.MAX_EXPONENT}*z*@z", f"-{decimal(2 ** 1000)}*@z\n"),
    # the bound's edges, span 1000 and a box of 4,900 (with 70 terms): the
    # SHA-256 digests of the outputs printed before the bound existed
    ("(1+z)^1000*@z", "93673a7b2bb551eb36a3f6f2af82c042f8fc3be4eaefb16f32ba2e7c8a0bd822"),
    ("(1+z^2)^500*@z", "c9bb5113d7b57f9c2f6f1d12a157e1517d1ddb7d6bb2ca13dbd905b1bdba1f27"),
    ("(z+w)^69*@z", "7b2cf262f9a08b5cc30b6796d6c6fcf51baf30588881c7941e7c03865c78609f"),
])
def test_a_power_within_the_bounds_keeps_its_output(left, want, capsys):
    import hashlib

    code, out = run_cli("bracket", left, "@z")
    assert code == 0 and capsys.readouterr().err == ""
    assert (out if want.endswith("\n") else hashlib.sha256(out.encode()).hexdigest()) == want


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


# random token strings at the input boundary: short, with exponents in -2..3
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(("+", "-", "*", "^", "/", "(", ")", "(", ")")),
    st.sampled_from(("z", "w", "xi", "z1", "z2", "zp", "A", "B", "qq", "i",
                     "@z", "@w", "@xi", "@z1", "@z2", "~z", "~w")),
    st.sampled_from(("0", "1", "2", "3", "1/2")),
    st.sampled_from(("^-2", "^-1", "^0", "^2", "^3")),
)
# good and malformed manifold specs
_FUZZ_SPECS = ("ruled:0", "ruled:3", "ruled:7", "hopf:IV", "hopf:III:p=2", "hopf:IIc", "ep1",
               "tp1", "torus:2", "torus:3", "ruled:x", "ruled:-1", "hopf:IX", "hopf:III:p=0",
               "ep1:3", "torus:0", "foo", "")


@settings(max_examples=150, deadline=None)
@given(st.lists(_FUZZ_TOKENS, max_size=12), st.sampled_from((" ", "")), st.data())
def test_random_token_strings_exit_0_1_or_2(texts, sep, data):
    # as a classify structure or as a bracket operand: a documented exit
    # code, an `error:` line on every failure, and no escaping exception
    src = sep.join(texts)
    if data.draw(st.booleans(), label="classify"):
        argv = ("classify", data.draw(st.sampled_from(_FUZZ_SPECS)), f"--poisson={src}")
    else:
        chart = data.draw(st.sampled_from(("z", "z,w", "z,xi", "z1,z2", "z,z", "", "w,")))
        dbar = data.draw(st.sampled_from(("", "z", "w", "z,w", "w,", "w,w")))
        other = data.draw(st.sampled_from(("@z", "z*@w", "A*@z^@w", "~z*@z")))
        left, right = data.draw(st.permutations((src, other)))
        argv = ("bracket", f"--chart={chart}", f"--dbar={dbar}", "--", left, right)
    code, out, err = _served(argv)
    assert code in (0, 1, 2)
    assert code == 0 or (out == "" and err.startswith("error: ") and err.count("\n") == 1)


# well-formed sources drawn from the grammar: chart variables, parameters,
# Gaussian scalars, @v and ~v under + - * ^, powers and parentheses
_SCALARS = ("0", "1", "2", "3", "(1/2)", "(-2/3)", "i", "(1 - i)", "(2*i)")
# spec -> its chart variables and its bivector frames
_GRAMMAR_SPECS = {
    "ruled:3": (("z", "xi"), ("@z^@xi",)),
    "ruled:7": (("z", "xi"), ("@z^@xi",)),
    "hopf:IV": (("z", "w"), ("@z^@w",)),
    "hopf:III:p=2": (("z", "w"), ("@z^@w",)),
    "hopf:IIc": (("z", "w"), ("@z^@w",)),
    "ep1": (("z", "xi"), ("@z^@xi",)),
    "tp1": (("z1", "z2", "xi"), ("@z1^@z2", "@z2^@xi", "@xi^@z1")),
    "torus:2": (("z1", "z2"), ("@z1^@z2",)),
    "torus:3": (("z1", "z2", "z3"), ("@z1^@z2", "@z2^@z3", "@z1^@z3")),
}


@functools.cache
def _grammar(names: tuple, fields: tuple):
    atoms = st.sampled_from(_SCALARS + names + ("A", "B") + fields)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from((" + ", " - ", "*", " ^ ")), inner).map("".join),
            inner.map(lambda s: f"({s})"),
            st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda s: f"-{s}"))

    return st.recursive(atoms, grow, max_leaves=8)


def _grammar_argv(data):
    """A classify request, its structure a sum of grammar coefficients times
    the spec's bivector frames or a grammar expression in its fields, or a
    bracket request of two grammar expressions."""
    if data.draw(st.booleans(), label="classify"):
        spec = data.draw(st.sampled_from(sorted(_GRAMMAR_SPECS)), label="spec")
        names, frames = _GRAMMAR_SPECS[spec]
        if data.draw(st.booleans(), label="by frames"):
            terms = data.draw(st.lists(st.tuples(_grammar(names, ()), st.sampled_from(frames)),
                                       min_size=1, max_size=3))
            src = " + ".join(f"({coef})*{frame}" for coef, frame in terms)
        else:
            src = data.draw(_grammar(names, tuple(f"@{n}" for n in names)))
        return ("classify", spec, f"--poisson={src}")
    dbar = data.draw(st.sampled_from(("", "z", "z,w")), label="dbar")
    fields = ("@z", "@w", "~z", "~w")
    left, right = (data.draw(_grammar(("z", "w"), fields)) for _ in range(2))
    return ("bracket", "--chart=z,w", f"--dbar={dbar}", "--", left, right)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grammar_sources_exit_0_1_or_2(data):
    # the engine, not only the reader, meets these: a documented exit code,
    # an `error:` line on every failure, and no escaping exception
    code, out, err = _served(_grammar_argv(data))
    assert code in (0, 1, 2)
    assert code == 0 or (out == "" and err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("cap", [12, 22, 30, 40])
def test_hopf_tables_at_high_degree_caps_match_the_golden(cap):
    # a cover model builds its weight-0 blocks only, so the tables do not
    # depend on the cap once it reaches p + 1
    code, out = run_cli("tables", "hopf", "--degree", str(cap), "--md")
    assert code == 0 and out == (GOLDEN / "hopf.md").read_text()


@pytest.mark.parametrize("argv", [
    ("bracket", "2^99999999999*z*@z", "@z"),
    ("bracket", "@z", "z^-99999999999*@z"),
    ("bracket", "@z", f"2^{cli_mod.MAX_EXPONENT + 1}*@z"),
    ("classify", "ruled:3", "--poisson", "z^99999999999*@z^@xi"),
    ("classify", "hopf:IV", "--poisson", "(A - 2^-99999999999)*z^2*@z^@w"),
])
def test_a_power_above_the_exponent_bound_is_refused_unread(argv, monkeypatch, capsys):
    def unread(*args):
        raise AssertionError("a source with a refused power was evaluated")

    monkeypatch.setattr(cli_mod, "eval_str", unread)
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: the exponent at line 1, column ")
    assert err.endswith(f" is above the maximum {cli_mod.MAX_EXPONENT}\n")


def test_numbers_of_any_length_are_read_and_printed_in_full():
    digits = "7" * 5000
    assert run_cli("bracket", f"{digits}*z*@z", "@z") == (0, f"-{digits}*@z\n")
    # 2^15000 as a product of powers at the bound: 4,516 digits
    src = "*".join([f"2^{cli_mod.MAX_EXPONENT}"] * 15) + "*z*@z"
    code, out = run_cli("bracket", src, "@z")
    assert code == 0 and out == f"-{decimal(2 ** 15000)}*@z\n"
