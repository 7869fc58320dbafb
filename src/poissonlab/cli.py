"""Command-line front end.

Subcommands reproduce the dimension tables, print Schouten brackets of
parsed expressions, classify Poisson structures into deformation
verdicts, and re-run the family and Maurer-Cartan verifications.  All
verification failures exit nonzero; JSON output is key-sorted and
deterministic.

Each command is one lookup: `tables` in `TABLES`, `verify-family` in
`FAMILIES`, `mc-check` in `SOLUTIONS`, and `classify` in `GEOMETRIES`,
the one list of manifold kinds and their spec forms.  A command reads
only the options its table or family uses: an explicit `--m-max`,
`--degree` or `--p` that it does not read is a usage error.  Every classify
source goes through one reader, `_read`: tokenized once, evaluated in
the geometry's own frame, and rejected unless it is a bivector with no
form part; each geometry then reads its coordinates through its own
check.  A source with an exponent above MAX_EXPONENT is refused from
its tokens, before any evaluation.  Usage errors exit 2 with one
`error:` line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import hopf, products, ruled
from .expr import (MAX_EXPONENT, ParseError, UnknownSymbol, context_for, eval_str, free_names,
                   tokenize)
from .laurent import LaurentError, VarRegistry
from .linalg import NotInSpan
from .multivector import Chart, ChartFrame, basis_coords, schouten_formed
from .obstruction import OBSTRUCTED, UNDETERMINED, UNOBSTRUCTED_MC, Certificate, stored

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the largest n of `classify torus:n`: the cost grows faster than n^3, from
# 0.4 s at n = 128 to about 26 s at n = 400 (one core of an AMD EPYC VM)
MAX_TORUS_N = 128
# the bounds of the Hopf degree cap: every cap names the one cover model of each type,
# so `tables hopf --degree 40` costs what `tables hopf` does; a cap below p + 1 is
# refused (`hopf.cover_model`)
MIN_CAP = 3
MAX_CAP = 40
# the largest p: the tests pin the exit-2 cases `--p 38` and `hopf:III:p=38`, and
# `tables hopf --p 37` takes about 0.09 s, as `tables hopf` does (median of 21 fresh
# processes with compiled bytecode, 2-vCPU Intel Xeon VM)
MAX_P = 37
DEFAULT_M_MAX = 10


class UsageError(Exception):
    pass


def _degree_cap(args) -> int | None:
    cap = getattr(args, "degree", None)
    env = os.environ.get("POISSONLAB_DEGREE_CAP")
    if cap is None and env:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"POISSONLAB_DEGREE_CAP must be an integer, got {env!r}") from None
    if cap is not None and cap < MIN_CAP:
        raise UsageError(f"degree cap {cap} is below the minimum {MIN_CAP}")
    if cap is not None and cap > MAX_CAP:
        raise UsageError(f"degree cap {cap} is above the maximum {MAX_CAP}")
    return cap


def _m_max(args) -> int:
    m_max = DEFAULT_M_MAX if args.m_max is None else args.m_max
    if not 0 <= m_max <= ruled.MAX_M:
        raise UsageError(f"--m-max must lie in 0..{ruled.MAX_M}, got {m_max}")
    return m_max


def _refuse_unread(args, command: str, reads: tuple[str, ...]):
    """An explicit --m-max, --degree or --p that `command` does not read is
    a usage error, raised before any work."""
    for option in ("m_max", "degree", "p"):
        if getattr(args, option, None) is not None and option not in reads:
            raise UsageError(f"{command} does not read --{option.replace('_', '-')}")


def _spec_number(parts, low: int, high: int) -> int:
    """The N of a `KIND:N` manifold spec, an integer in low..high."""
    spec = ":".join(parts)
    if len(parts) != 2:
        raise UsageError(f"{spec!r}: expected {parts[0]}:N with an integer N {low}..{high}")
    try:
        n = int(parts[1])
    except ValueError:
        n = None
    if n is None or not low <= n <= high:
        raise UsageError(f"{spec!r}: N must be an integer {low}..{high}")
    return n


# ----------------------------------------------------------------------
# table builders (shared with the report command)

def ruled_table(m_max: int) -> list[dict]:
    rows = []
    for row in ruled.table1_sweep(m_max):
        doc = {
            "manifold": f"F{row.m}",
            "stratum": row.stratum,
            "dim_h2": row.dim_h2,
            "verdict": row.certificate.verdict,
        }
        if row.certificate.witness:
            doc["witness"] = row.certificate.witness
            doc["class"] = row.certificate.class_repr
        rows.append(doc)
    return rows


def _types_by_tag(p: int) -> dict:
    """The five Hopf types by tag, the resonant ones at exponent p, in the
    order `hopf.strata(p)` first names them."""
    return {t.tag: t for t, _ in hopf.strata(p)}


def hopf_tables(cap: int | None, p: int) -> dict:
    models = {t: hopf.model_for(t, cap) for t in _types_by_tag(p).values()}
    classification = [hopf.table_dims(model) for model in models.values()]
    cohomology = [hopf.stratum_row(models[t], stratum) for t, stratum in hopf.strata(p)]
    families = []
    verdicts = {
        ("IV", "zero"): OBSTRUCTED, ("III", "zero"): OBSTRUCTED,
        ("IV", "generic"): UNOBSTRUCTED_MC, ("III", "A"): UNOBSTRUCTED_MC,
        ("IIa", "any"): UNOBSTRUCTED_MC, ("IIb", "any"): UNOBSTRUCTED_MC,
        ("IIc", "any"): UNOBSTRUCTED_MC,
        ("IV", "degenerate"): UNDETERMINED, ("III", "B"): UNDETERMINED,
    }
    for t, stratum in hopf.strata(p):
        key = (t.tag, stratum)
        entry = {"type": t.label(), "stratum": stratum, "verdict": verdicts[key]}
        if verdicts[key] == UNOBSTRUCTED_MC:
            entry["family_invariance"] = hopf.family_invariance(models[t].ctx)
        families.append(entry)
    families.append({"type": hopf.HopfType("IV").label(), "stratum": "4AC-B^2=0",
                     "verdict": UNDETERMINED})
    return {"classification": classification, "cohomology": cohomology,
            "families": families}


def products_tables() -> dict:
    (f0,) = ruled.table1_sweep(0)
    curve_rows = [
        {"manifold": "P1xP1", "stratum": f0.stratum, "verdict": f0.certificate.verdict,
         "note": "the untwisted ruled surface row"},
        {"manifold": "E1xE2", "stratum": "any", "verdict": UNOBSTRUCTED_MC,
         "dim_h1": products.torus_dims(2)},
    ]
    for cert in (products.ep1_classify(1, 0, 0), products.ep1_classify(0, 0, 0)):
        curve_rows.append({"manifold": "ExP1", "stratum": cert.stratum, "verdict": cert.verdict,
                           "dim_h1": cert.data["dim_h1"], "dim_h2": cert.data["dim_h2"]})
    tp1_rows = []
    for cid in (1, 2, 3):
        cert = products.tp1_classify(products.tp1_lambda0(cid))
        tp1_rows.append({"class": cid, "dim_h1": cert.data["dim_h1"],
                         "verdict": cert.verdict})
    torus_rows = [{"n": n, "dim_h1": products.torus_dims(n)} for n in (1, 2, 3)]
    return {"curve_products": curve_rows, "tp1": tp1_rows, "torus": torus_rows}


def _p(args) -> int:
    p = hopf.DEFAULT_P if args.p is None else args.p
    if not 2 <= p <= MAX_P:
        raise UsageError(f"--p must be an integer in 2..{MAX_P}, got {p}")
    return p


# table -> (the options it reads, its document from the parsed arguments, its
# markdown sections: the document key of each section's rows, None where the
# document is the rows, with the columns and the title)
TABLES = {
    "ruled": (("m_max",), lambda args: ruled_table(_m_max(args)),
              ((None, ("manifold", "stratum", "dim_h2", "verdict"), "Ruled surfaces"),)),
    "hopf": (("degree", "p"), lambda args: hopf_tables(p=_p(args), cap=_degree_cap(args)),
             (("classification", ("type", "dim_h0_theta", "dim_h0_sq"), "Hopf classification"),
              ("cohomology", ("type", "stratum", "dim_h0", "dim_h1", "dim_h2",
                              "automorphism_basis_verified"), "Hopf cohomology"),
              ("families", ("type", "stratum", "verdict"), "Hopf families"))),
    "products": ((), lambda args: products_tables(),
                 (("curve_products", ("manifold", "stratum", "verdict"), "Products of curves"),
                  ("tp1", ("class", "dim_h1", "verdict"), "Torus times projective line"),
                  ("torus", ("n", "dim_h1"), "Poisson tori"))),
}


def _md_rows(rows, columns, title):
    lines = [f"## {title}", "", "| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in columns) + " |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the input reader and the classify table

def _bounded(*sources: list[tuple]):
    """Refuse a power with an exponent above MAX_EXPONENT in the tokens of
    any source: `^` directly before an integer, or a minus and an integer,
    is a power (`expr`), so the tokens show every exponent."""
    for tokens in sources:
        for k, tok in enumerate(tokens):
            if tok[0] == "^":
                exp = tokens[k + 2] if tokens[k + 1][0] == "-" else tokens[k + 1]
                if exp[0] == "num" and exp[1] > MAX_EXPONENT:
                    raise UsageError(f"the exponent at line {exp[2]}, column {exp[3]} is "
                                     f"above the maximum {MAX_EXPONENT}")


def _read(src: str, frame_of) -> tuple:
    """The frame and the bivector of a `--poisson` source: its tokens,
    made once, are evaluated in frame_of(tokens), the frame of the chosen
    geometry, and anything but a bivector with no form part is rejected."""
    tokens = tokenize(src)
    _bounded(tokens)
    frame = frame_of(tokens)
    value = eval_str(tokens, frame)
    mv = value.part(())
    if value.parts.keys() - {()} or mv.grades() - {2}:
        raise UsageError("a Poisson structure must be a pure bivector expression")
    return frame, mv


def _coords(read, mv, src: str, span: str):
    """The coordinates `read` gives the bivector; its check failing is a
    usage error that names the span the bivector lies outside."""
    try:
        return read(mv)
    except (NotInSpan, ValueError) as exc:
        raise UsageError(f"{src!r} is not {span}: {exc}") from None


def _rational(coords) -> list:
    """Each coordinate as a rational; any other coordinate is a usage error."""
    try:
        values = [c.constant_value() for c in coords]
        if all(v.im == 0 for v in values):
            return [v.re for v in values]
    except LaurentError:
        pass
    raise UsageError("classification needs exact rational coefficients")


def _hopf_type(parts) -> hopf.HopfType:
    """The type of a `hopf:TAG` or `hopf:TAG:p=N` spec; rejects anything else."""
    spec = ":".join(parts)
    types = _types_by_tag(hopf.DEFAULT_P)
    if len(parts) < 2 or parts[1] not in types:
        raise UsageError(f"{spec!r}: the Hopf type must be one of {', '.join(types)}")
    tag, extras = parts[1], parts[2:]
    if types[tag].p is None:
        if extras:
            raise UsageError(f"{spec!r}: type {tag} takes no options")
        return types[tag]
    if len(extras) != 1 or not extras[0].startswith("p="):
        raise UsageError(f"{spec!r}: type {tag} needs exactly one option p=N")
    try:
        p = int(extras[0][2:])
    except ValueError:
        p = None
    if p is None or not 2 <= p <= MAX_P:
        raise UsageError(f"{spec!r}: p must be an integer in 2..{MAX_P}")
    return hopf.HopfType(tag, p)


def _classify_ruled(parts, args) -> Certificate:
    m, src = _spec_number(parts, 0, ruled.MAX_M), args.poisson

    def surface(tokens):
        names = sorted(free_names(tokens) - {"z", "xi"})
        for n in names:
            if n in ("zp", "xip"):
                raise UsageError(f"{src!r}: {n!r} is a coordinate of the chart U2; "
                                 "write the bivector in the U1 coordinates z, xi")
        # one with its own parameter names is never stored: names cannot grow the store
        return ruled.make_surface(m, names) if names else ruled.surface_for(m)

    rs, mv = _read(src, surface)
    pois = _coords(functools.partial(ruled.poisson_from_bivector, rs), mv, src,
                   f"a global Poisson structure on F{m}")
    return ruled.table1_verdict(rs, pois).certificate


def _classify_hopf(parts, args) -> Certificate:
    model = hopf.model_for(_hopf_type(parts), _degree_cap(args))
    _, mv = _read(args.poisson, lambda tokens: model.ctx)
    coords = _coords(model.bivector_coords, mv, args.poisson, "an invariant bivector on the "
                     f"Hopf surface of type {model.ctx.type.label()}")
    return hopf.stratum_certificate(model, hopf.stratum_of(model, coords))


def _product_bivector(name: str, src: str) -> tuple:
    """A bivector on "ExP1" or "TxP1", its coordinates on the stored basis
    of global bivectors, and those coordinates as the rationals they must be."""
    ctx, bases, _ = products.product_frame(name)
    _, mv = _read(src, lambda tokens: ctx)
    coords = _coords(basis_coords(bases["h0_sq"]), mv, src, f"a global bivector on {name}")
    return mv, coords, _rational(coords)


def _classify_torus(parts, args) -> Certificate:
    n = _spec_number(parts, 1, MAX_TORUS_N)
    names = tuple(f"z{i}" for i in range(1, n + 1))
    frame = ChartFrame(Chart(f"T{n}", names), VarRegistry(names, ()))
    # a bivector in the chart z1..zn has only the components zi^zj, i < j
    _, mv = _read(args.poisson, lambda tokens: frame)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    values = _rational(mv.coefficient((f"z{i}", f"z{j}")) for i, j in pairs)
    dim = products.torus_dims(n, {f"b_{i}_{j}": v for (i, j), v in zip(pairs, values)})
    return Certificate(f"T{n}", "constant", UNOBSTRUCTED_MC,
                       reason="translation-invariant deformation family", data={"dim_h1": dim})


# manifold kind -> (its spec form, its classifier): the only list of kinds; a spec
# has at most the parts of its form
GEOMETRIES = {
    "ruled": ("ruled:N", _classify_ruled),
    "hopf": ("hopf:TAG[:p=N]", _classify_hopf),
    "ep1": ("ep1", lambda parts, args: products.ep1_classify(
        *_product_bivector("ExP1", args.poisson)[2])),
    "tp1": ("tp1", lambda parts, args: products.tp1_classify(
        *_product_bivector("TxP1", args.poisson)[:2])),
    "torus": ("torus:N", _classify_torus),
}


# ----------------------------------------------------------------------
# the family and solution tables

def _ruled_family(name: str) -> dict:
    rep = ruled.verify_family(ruled.FAMILIES[name]())
    return {"ok": rep.ok, "dim_h1": rep.dim_h1, "n_params": rep.n_params, "h1_basis": rep.basis}


def _hopf_family(t: hopf.HopfType) -> dict:
    model = hopf.model_for(t)
    inv = hopf.family_invariance(model.ctx)
    mem = hopf.d_membership(model)
    return {"ok": bool(inv), "invariance": inv, "h1_dim": mem["h1_dim"], "pairs": mem["pairs"]}


def _product_family(cert: Certificate) -> dict:
    return {"ok": cert.verdict == UNOBSTRUCTED_MC, "verdict": cert.verdict, "dims": cert.data}


# Hopf family name -> its type: the only families whose command reads the degree cap
HOPF_FAMILIES = {f"hopf-{tag.lower()}": t for tag, t in _types_by_tag(hopf.DEFAULT_P).items()}
# family name -> its report
FAMILIES = {
    **{name: functools.partial(_ruled_family, name) for name in ruled.FAMILIES},
    **{name: functools.partial(_hopf_family, t) for name, t in HOPF_FAMILIES.items()},
    "ep1": lambda: _product_family(products.ep1_classify(None, None, None)),
    "tp1": lambda: _product_family(products.tp1_classify(products.tp1_lambda0(2))),
}
FAMILY_NAMES = tuple(FAMILIES)

# solution name -> its family, verified once per process
SOLUTIONS = {"ep1": products.ep1_family, "tp1": products.tp1_family}


# ----------------------------------------------------------------------
# subcommand handlers

def cmd_tables(args) -> int:
    reads, build, sections = TABLES[args.what]
    _refuse_unread(args, f"tables {args.what}", reads)
    doc = build(args)
    if args.md:
        print("".join(_md_rows(doc if key is None else doc[key], columns, title)
                      for key, columns, title in sections))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def _variables(option: str, text: str, what: str) -> tuple[str, ...]:
    """The comma-separated names of `--chart` or `--dbar`; an empty or a
    repeated name is a usage error."""
    names = tuple(text.split(","))
    if "" in names or len(set(names)) != len(names):
        raise UsageError(f"{option} {text!r}: the {what} must be nonempty and distinct")
    return names


def cmd_bracket(args) -> int:
    chart_vars = _variables("--chart", args.chart, "chart variables")
    dbar = _variables("--dbar", args.dbar, "antiholomorphic variables") if args.dbar else ()
    for name in dbar:
        if name not in chart_vars:
            raise UsageError(f"--dbar {args.dbar!r}: {name!r} is not one of the chart "
                             f"variables {args.chart}")
    # each source is tokenized once: every tokenizer error comes first
    left, right = tokenize(args.left), tokenize(args.right)
    _bounded(left, right)
    ctx = context_for([left, right], chart_vars, dbar)
    a = eval_str(left, ctx)
    b = eval_str(right, ctx)
    print(str(schouten_formed(a, b)))
    return EXIT_OK


def cmd_classify(args) -> int:
    parts = args.manifold.split(":")
    form, classify = GEOMETRIES.get(parts[0], ("", None))
    if classify is None or len(parts) > form.count(":") + 1:
        forms = ", ".join(form for form, _ in GEOMETRIES.values())
        raise UsageError(f"manifold spec {args.manifold!r} has none of the forms {forms}")
    print(classify(parts, args).to_json())
    return EXIT_OK


def cmd_verify_family(args) -> int:
    hopf_family = args.name in HOPF_FAMILIES
    _refuse_unread(args, f"verify-family {args.name}", ("degree",) if hopf_family else ())
    if hopf_family:
        # a cap within its bounds is at least p + 1 = 3 of every family's type, so it
        # names the one cover model the report reads
        _degree_cap(args)
    try:
        doc = verify_family_report(args.name)
    except (ruled.RationalPartSurvives, ruled.KSDegenerate,
            hopf.MembershipFails, AssertionError) as exc:
        doc = {"family": args.name, "ok": False, "error": str(exc)}
        if getattr(exc, "residual", None):
            doc["residual"] = exc.residual
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if doc["ok"] else EXIT_FAIL


def verify_family_report(name: str) -> dict:
    """The report of a family, verified once per process and stored; a
    check that raises stores nothing."""
    return stored(("family", name), lambda: {"family": name, **FAMILIES[name]()})


def cmd_mc_check(args) -> int:
    """The graded pieces of the stored family's identity, verified once per
    process over every coefficient; a failed identity reports its pieces."""
    try:
        pieces = SOLUTIONS[args.name]().pieces
    except products.IdentityFails as exc:
        pieces = exc.pieces
    printed = {k: str(v) for k, v in pieces.items()}
    # an identity of one piece prints it by name, a graded one all its pieces
    doc = {"solution": args.name, "defect_zero": all(v.is_zero() for v in pieces.values()),
           **(printed if len(printed) == 1 else {"pieces": printed})}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if doc["defect_zero"] else EXIT_FAIL


def cmd_report(args) -> int:
    m_max, cap = _m_max(args), _degree_cap(args)
    doc = {
        "ruled": ruled_table(m_max),
        "hopf": hopf_tables(cap, hopf.DEFAULT_P),
        "products": products_tables(),
        "families": {name: verify_family_report(name) for name in FAMILY_NAMES},
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on the first `main` call; `parse_args` never changes it
    (no append actions, no mutable defaults), so every call shares it."""
    ap = argparse.ArgumentParser(
        prog="poissonlab",
        description="exact deformation calculus for holomorphic Poisson surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="reproduce the dimension tables")
    tables.add_argument("what", choices=tuple(TABLES))
    # None where not given, so that an option the table does not read is refused
    tables.add_argument("--m-max", type=int, default=None)
    tables.add_argument("--degree", type=int, default=None)
    tables.add_argument("--p", type=int, default=None)
    tables.add_argument("--md", action="store_true", default=False)
    tables.set_defaults(func=cmd_tables)

    bracket = sub.add_parser("bracket", help="Schouten bracket of two expressions")
    bracket.add_argument("left")
    bracket.add_argument("right")
    bracket.add_argument("--chart", default="z,w")
    bracket.add_argument("--dbar", default="")
    bracket.set_defaults(func=cmd_bracket)

    classify = sub.add_parser("classify", help="deformation verdict for a structure")
    classify.add_argument("manifold")
    classify.add_argument("--poisson", required=True)
    classify.set_defaults(func=cmd_classify)

    vf = sub.add_parser("verify-family", help="re-run a family verification")
    vf.add_argument("name", choices=FAMILY_NAMES)
    vf.add_argument("--degree", type=int, default=None)
    vf.set_defaults(func=cmd_verify_family)

    mc = sub.add_parser("mc-check", help="Maurer-Cartan defect report")
    mc.add_argument("name", choices=tuple(SOLUTIONS))
    mc.set_defaults(func=cmd_mc_check)

    report = sub.add_parser("report", help="all tables and verifications as JSON")
    report.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    report.add_argument("--degree", type=int, default=None)
    report.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownSymbol, UsageError, hopf.TruncationUnstable) as exc:
        # TruncationUnstable: a degree cap below p + 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ruled.NotObstructedStratum, products.ConstraintViolation, hopf.MembershipFails,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
