#!/usr/bin/env python3
"""Refresh the golden snapshots under tests/golden (maintenance only).

Run this after an intentional output change and review the diff; the
test suite byte-compares against these files.  `requests.json` records
the exit code, stdout and stderr of each argv list in REQUESTS, served
one after another by `cli.main` in this one process.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poissonlab.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


# One request of every classify_stream kind, then edge inputs of the
# expression evaluator and the CLI front end.
REQUESTS = (
    ["classify", "ruled:7", "--poisson", "(((-2/3) + (-2)*z^1 + (1/2)*z^2)*xi + ((2)*z^1 + (2)*z^2 + (4)*z^4 + (-4)*z^5 + (-2/3)*z^6 + (1)*z^7 + (-2)*z^8 + (-2)*z^9)*xi^2)*@z^@xi"],
    ["classify", "ruled:8", "--poisson", "(((3) + (-2)*z^1 + (-2)*z^2 + (1)*z^3 + (3)*z^4 + (4)*z^5 + (1)*z^6 + (1/2)*z^7 + (-1)*z^8 + (-1)*z^9 + (1)*z^10)*xi^2)*@z^@xi"],
    ["classify", "ruled:1", "--poisson", "(((1/2) + (-3)*z^1)*xi + ((2)*z^2)*xi^2)*@z^@xi"],
    ["classify", "hopf:IV", "--poisson", "0*@z^@w"],
    ["classify", "hopf:IV", "--poisson", "((3)*z^0*w^2 + (-2)*z^1*w^1 + (3)*z^2*w^0)*@z^@w"],
    ["classify", "hopf:IV", "--poisson", "((18)*z^0*w^2 + (-18)*z^1*w^1 + (9/2)*z^2*w^0)*@z^@w"],
    ["classify", "hopf:III:p=2", "--poisson", "0*@z^@w"],
    ["classify", "hopf:III:p=2", "--poisson", "((-2)*z^0*w^3)*@z^@w"],
    ["classify", "hopf:III:p=2", "--poisson", "((1)*z^0*w^3 + (-3)*z^1*w^1)*@z^@w"],
    ["classify", "hopf:IIa:p=2", "--poisson", "((-2/3)*z^0*w^3)*@z^@w"],
    ["classify", "hopf:IIb", "--poisson", "((-2)*z^0*w^2)*@z^@w"],
    ["classify", "hopf:IIc", "--poisson", "((-4)*z^1*w^1)*@z^@w"],
    ["classify", "ep1", "--poisson", "0*@z^@xi"],
    ["classify", "ep1", "--poisson", "((1) + (-4)*xi^1 + (3/2)*xi^2)*@z^@xi"],
    ["classify", "tp1", "--poisson", "(-2)*(@z1^@z2)"],
    ["classify", "tp1", "--poisson", "(-1)*(@z1^@z2) + ((-1) + (2)*xi^1)*(@z2^@xi) + (-3)*((-1) + (2)*xi^1)*(@z1^@xi)"],
    ["classify", "tp1", "--poisson", "(3)*(@z1^@z2) + (-1)*((-1) + (-1)*xi^1 + (2)*xi^2)*(@z1^@xi)"],
    # TxP1: a bivector that is not Poisson (its z2^xi and z1^xi blocks are not
    # proportional), one of class 3 and one of class 1
    ["classify", "tp1", "--poisson", "(@z1^@z2) + xi*(@z2^@xi) + (@z1^@xi)"],
    ["classify", "tp1", "--poisson", "@z1^@xi"],
    ["classify", "tp1", "--poisson", "0*@z1^@z2"],
    ["classify", "torus:3", "--poisson", "2*(@z1^@z2) - 1/3*(@z2^@z3)"],
    ["bracket", "(((-4) + (4/3)*i)*z^1*w^2)", "(A*z^1*w^0 + A*z^1*w^0 + ((3/2) + (-4)*i)*z^2*w^0)*@z + (((-4) + (-1)*i)*z^1*w^1 + ((-1/3) + (-1)*i)*z^2*w^2)*@w", "--chart", "z,w"],
    ["verify-family", "ep1"],
    ["verify-family", "tp1"],
    ["mc-check", "ep1"],
    ["mc-check", "tp1"],
    # edge inputs
    ["bracket", "(@z-@z)^2", "@w"],
    ["bracket", "(2*@z)^2", "@w"],
    ["bracket", "0^-1*@z", "@w"],
    ["bracket", "(1+z)^-1*@z", "@w"],
    ["bracket", "(z+@z)^2", "@w"],
    ["bracket", "(z^2*w)^-2*@z", "w*@w"],
    ["bracket", "@z^z", "z*@w"],
    ["bracket", "z*~z*~w*@w", "w*@z", "--dbar", "z,w"],
    ["bracket", "~w*~z*@z", "(z*w)*@z^@w", "--dbar", "z,w"],
    ["bracket", "~z*~z*@z + i*~z*@w", "z^2*@w", "--dbar", "z"],
    ["bracket", "(A*z + B^2*w^-1)*@z", "(A^-1*w)*@w"],
    ["bracket", "(1/2*A - i)^3*z*@z", "(A*w - B)*(@z^@w)"],
    ["bracket", "@q", "@z"],
    ["bracket", "~z*@z", "@w"],
    ["classify", "hopf:IV", "--poisson", "qq*z^2*@z^@w"],
    ["classify", "ep1", "--poisson", "(i*xi^2 + 1/2)*@z^@xi"],
    ["classify", "ruled:1", "--poisson", "(A*xi + z*xi^2)*@z^@xi"],
    # malformed and naming a U2 coordinate: either error may be reported
    ["classify", "ruled:2", "--poisson", "zp*@z^@xi +"],
    # ruled H1 maps: e != 0 at the largest m, e = 0, a d part, own names
    ["classify", "ruled:12", "--poisson", "(((-2)*z^1 + (3/2)*z^2)*xi + ((1)*z^3 + (-1)*z^14)*xi^2)*@z^@xi"],
    ["classify", "ruled:12", "--poisson", "(((2)*z^5 + (1/3)*z^14)*xi^2)*@z^@xi"],
    ["classify", "ruled:2", "--poisson", "((3) + ((1) + (-1)*z^2)*xi + ((2)*z^4)*xi^2)*@z^@xi"],
    ["classify", "ruled:6", "--poisson", "(a*z + b)*xi*@z^@xi"],
    # a cover model that fails validation: III(p=5) needs a cap above p
    ["tables", "hopf", "--p", "5", "--degree", "4"],
    # a form part, rejected rather than dropped
    ["classify", "ep1", "--poisson", "@z^@xi + ~z*@xi"],
    ["classify", "ep1", "--poisson", "~z*@z^@xi"],
    # a suffix the kind does not take, and a kind that does not exist
    ["classify", "ep1:3", "--poisson", "@z^@xi"],
    ["classify", "tp1:x:y", "--poisson", "@z1^@z2"],
    ["classify", "foo", "--poisson", "@z^@w"],
    # error order: a parse error anywhere beats an unknown name, and the
    # first evaluation error in reading order is the one reported
    ["classify", "hopf:IV", "--poisson", "qq*z^2*@z^@w +"],
    ["bracket", "(@z)^2*@q", "@w"],
    ["bracket", "@q*(@z)^2", "@w"],
    # an option the table or family does not read
    ["tables", "ruled", "--p", "99", "--m-max", "1"],
    ["tables", "products", "--p", "5"],
    ["verify-family", "f2", "--degree", "7"],
    # a power whose result would be too large, refused before it is computed
    ["bracket", "((1+z)^100)^100*@z", "@z"],
    ["bracket", "(1+z+w)^200*@z", "@z"],
)


def serve(argv) -> dict:
    """Exit code, stdout and stderr of one `main` call; an exception that
    escapes `main` is recorded as `uncaught` in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    doc = {"argv": list(argv)}
    try:
        with redirect_stdout(out), redirect_stderr(err):
            doc["exit"] = main(list(argv))
    except SystemExit as exc:
        doc["exit"] = exc.code
    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
        doc["exit"] = None
        doc["uncaught"] = f"{type(exc).__name__}: {exc}"
    doc["stdout"] = out.getvalue()
    doc["stderr"] = err.getvalue()
    return doc


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited with {code}")
    return buf.getvalue()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "ruled.md").write_text(capture(["tables", "ruled", "--m-max", "10", "--md"]))
    (GOLDEN / "hopf.md").write_text(capture(["tables", "hopf", "--md"]))
    (GOLDEN / "products.md").write_text(capture(["tables", "products", "--md"]))
    (GOLDEN / "report.json").write_text(capture(["report", "--m-max", "8"]))
    served = [serve(argv) for argv in REQUESTS]
    (GOLDEN / "requests.json").write_text(json.dumps(served, indent=1) + "\n")
    print(f"refreshed snapshots in {GOLDEN}")
