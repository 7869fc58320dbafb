"""Command-line front end.

Subcommands reproduce the dimension tables, print Schouten brackets of
parsed expressions, classify Poisson structures into deformation
verdicts, and re-run the family and Maurer-Cartan verifications.  All
verification failures exit nonzero; --json output is key-sorted and
deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import hopf, products, ruled
from .expr import ParseError, UnknownSymbol, context_for, eval_str, parse
from .laurent import LaurentPoly
from .multivector import schouten_formed
from .obstruction import (OBSTRUCTED, UNDETERMINED, UNOBSTRUCTED_MC, Certificate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


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
    if cap is not None and cap < hopf.MIN_CAP:
        raise UsageError(f"degree cap {cap} is below the minimum {hopf.MIN_CAP}")
    return cap


def _emit(doc, args, md_render):
    if getattr(args, "md", False):
        print(md_render(doc))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


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


def hopf_types(p: int):
    return (hopf.HopfType("IV"), hopf.HopfType("III", p), hopf.HopfType("IIa", p),
            hopf.HopfType("IIb"), hopf.HopfType("IIc"))


def hopf_tables(cap: int | None, p: int) -> dict:
    classification = []
    for t in hopf_types(p):
        row = hopf.table_dims(t, cap)
        classification.append(row)
    cohomology = []
    for t, stratum in hopf.strata(p):
        h0, h1, h2 = hopf.table5_dims(t, stratum, cap)
        cohomology.append({
            "type": t.label(), "stratum": stratum,
            "dim_h0": h0, "dim_h1": h1, "dim_h2": h2,
            "automorphism_basis_verified": hopf.verify_table4(t, stratum, cap),
        })
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
            entry["family_invariance"] = hopf.family_invariance(t)
        families.append(entry)
    families.append({"type": hopf.HopfType("IV").label(), "stratum": "4AC-B^2=0",
                     "verdict": UNDETERMINED})
    return {"classification": classification, "cohomology": cohomology,
            "families": families}


def products_tables() -> dict:
    curve_rows = [
        {"manifold": "P1xP1", "stratum": "any", "verdict": "unobstructed_h2_zero",
         "note": "the untwisted ruled surface row"},
        {"manifold": "E1xE2", "stratum": "any", "verdict": UNOBSTRUCTED_MC,
         "dim_h1": products.torus_dims(2)},
        {"manifold": "ExP1", "stratum": "nonzero",
         "verdict": products.ep1_classify(1, 0, 0).verdict,
         "dim_h1": 3, "dim_h2": 1},
        {"manifold": "ExP1", "stratum": "zero",
         "verdict": products.ep1_classify(0, 0, 0).verdict,
         "dim_h1": 7, "dim_h2": 3},
    ]
    tp1_rows = []
    for cid in (1, 2, 3):
        cls = products.TP1PoissonClass(cid, {})
        cert = products.tp1_classify(cls)
        tp1_rows.append({"class": cid, "dim_h1": products.tp1_dims(cls)["dim_h1"],
                         "verdict": cert.verdict})
    torus_rows = [{"n": n, "dim_h1": products.torus_dims(n)} for n in (1, 2, 3)]
    return {"curve_products": curve_rows, "tp1": tp1_rows, "torus": torus_rows}


def _md_rows(rows, columns, title):
    lines = [f"## {title}", "", "| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in columns) + " |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommand handlers

def cmd_tables(args) -> int:
    if args.what == "ruled":
        rows = ruled_table(args.m_max)
        _emit(rows, args, lambda doc: _md_rows(
            doc, ("manifold", "stratum", "dim_h2", "verdict"), "Ruled surfaces"))
        return EXIT_OK
    if args.what == "hopf":
        if args.p < 2:
            raise UsageError(f"--p must be an integer >= 2, got {args.p}")
        doc = hopf_tables(_degree_cap(args), args.p)
        def render(d):
            out = _md_rows(d["classification"],
                           ("type", "dim_h0_theta", "dim_h0_sq"), "Hopf classification")
            out += _md_rows(d["cohomology"],
                            ("type", "stratum", "dim_h0", "dim_h1", "dim_h2",
                             "automorphism_basis_verified"), "Hopf cohomology")
            out += _md_rows(d["families"], ("type", "stratum", "verdict"), "Hopf families")
            return out
        _emit(doc, args, render)
        return EXIT_OK
    doc = products_tables()
    def render(d):
        out = _md_rows(d["curve_products"], ("manifold", "stratum", "verdict"),
                       "Products of curves")
        out += _md_rows(d["tp1"], ("class", "dim_h1", "verdict"),
                        "Torus times projective line")
        out += _md_rows(d["torus"], ("n", "dim_h1"), "Poisson tori")
        return out
    _emit(doc, args, render)
    return EXIT_OK


def cmd_bracket(args) -> int:
    chart_vars = tuple(args.chart.split(","))
    dbar = tuple(args.dbar.split(",")) if args.dbar else ()
    ctx = context_for([args.left, args.right], chart_vars, dbar)
    a = eval_str(args.left, ctx)
    b = eval_str(args.right, ctx)
    print(str(schouten_formed(a, b)))
    return EXIT_OK


def _rational_or_none(poly: LaurentPoly):
    try:
        c = poly.constant_value()
    except Exception:
        return None
    if c.im != 0:
        return None
    return c.re


def cmd_classify(args) -> int:
    spec = args.manifold
    parts = spec.split(":")
    kind = parts[0]
    cert = None
    if kind == "ruled":
        m = int(parts[1])
        src = args.poisson
        names = sorted(n for n in _free_names(src) if n not in ("z", "xi"))
        rs = ruled.make_surface(m, tuple(names))
        from .expr import EvalContext
        ectx = EvalContext(rs.chart1, rs.registry, ())
        mv = eval_str(src, ectx).part(())
        pois = ruled.poisson_from_bivector(rs, mv)
        row = ruled.table1_verdict(rs, pois)
        cert = row.certificate
        cert.data["dim_h2"] = row.dim_h2
    elif kind == "hopf":
        cert = _classify_hopf(parts, args)
    elif kind == "ep1":
        coeffs = _ep1_coeffs(args.poisson)
        cert = products.ep1_classify(*coeffs)
    elif kind == "tp1":
        cert = _classify_tp1(args.poisson)
    elif kind == "torus":
        n = int(parts[1])
        dim = products.torus_dims(n)
        cert = Certificate(f"T{n}", "constant", UNOBSTRUCTED_MC,
                           reason="translation-invariant deformation family",
                           data={"dim_h1": dim})
    else:
        print(f"unknown manifold spec {spec!r}", file=sys.stderr)
        return EXIT_USAGE
    print(cert.to_json())
    return EXIT_OK if cert.verdict != "error" else EXIT_FAIL


def _free_names(src: str):
    from .expr import collect_names
    return collect_names(parse(src))


def _require_bivector(mv):
    if mv.grades() - {2}:
        raise UnknownSymbol("a Poisson structure must be a pure bivector expression")
    return mv


def _ep1_coeffs(src: str):
    ctx = context_for([src], ("z", "xi"), ("z",))
    mv = _require_bivector(eval_str(src, ctx).part(()))
    coeff = mv.coefficient(("z", "xi"))
    buckets = coeff.coefficients_in("xi")
    out = []
    for k in (0, 1, 2):
        poly = buckets.get(k, LaurentPoly.zero(ctx.registry))
        val = _rational_or_none(poly)
        if val is None:
            raise UnknownSymbol("classification needs exact rational coefficients")
        out.append(val)
    return out


def _classify_hopf(parts, args) -> Certificate:
    tag = parts[1]
    p = None
    for extra in parts[2:]:
        if extra.startswith("p="):
            p = int(extra[2:])
    t = hopf.HopfType(tag, p if tag in ("III", "IIa") else None)
    ctx = hopf.make_context(t)
    from .expr import EvalContext
    names = sorted(n for n in _free_names(args.poisson) if n not in ("z", "w"))
    for n in names:
        if n not in ctx.registry.param_vars:
            raise UnknownSymbol(n)
    ectx = EvalContext(ctx.chart, ctx.registry, ())
    mv = _require_bivector(eval_str(args.poisson, ectx).part(()))
    coeff = mv.coefficient(("z", "w"))
    pp = ctx.p

    def num(mu, nu):
        d = coeff.coefficients_in("z").get(mu, LaurentPoly.zero(ctx.registry))
        poly = d.coefficients_in("w").get(nu, LaurentPoly.zero(ctx.registry))
        return _rational_or_none(poly)

    if tag == "IV":
        a, b, c = num(2, 0), num(1, 1), num(0, 2)
        if (a, b, c) == (0, 0, 0):
            return hopf.obstruction_certificate_hopf(t, {"A": 1, "d": 1})
        if None in (a, b, c):
            stratum = "generic"
        elif 4 * a * c - b * b == 0:
            return hopf.undetermined_certificate("iv-discriminant-zero")
        else:
            stratum = "generic"
        hopf.family_invariance(t)
        hopf.d_membership(t)
        return Certificate(f"Hopf {t.label()}", stratum, UNOBSTRUCTED_MC,
                           reason="verified contraction family", data={"dim_h1": 3})
    if tag == "III":
        a, b = num(1, 1), num(0, pp + 1)
        if (a, b) == (0, 0):
            return hopf.obstruction_certificate_hopf(t, {"B": 1, "d": 1})
        if a == 0:
            return hopf.undetermined_certificate("iii-b-nonzero")
        hopf.family_invariance(t)
        hopf.d_membership(t)
        return Certificate(f"Hopf {t.label()}", "A", UNOBSTRUCTED_MC,
                           reason="verified contraction family", data={"dim_h1": 3})
    hopf.family_invariance(t)
    hopf.d_membership(t)
    return Certificate(f"Hopf {t.label()}", "any", UNOBSTRUCTED_MC,
                       reason="verified contraction family", data={"dim_h1": 3})


def _classify_tp1(src: str) -> Certificate:
    ctx = products.tp1_context()
    from .expr import EvalContext
    ectx = EvalContext(ctx.chart, ctx.registry, ())
    mv = _require_bivector(eval_str(src, ectx).part(()))
    d = _rational_or_none(mv.coefficient(("z1", "z2")))
    bpoly = mv.coefficient(("z2", "xi"))
    cpoly = -mv.coefficient(("z1", "xi"))
    bs = [_rational_or_none(bpoly.coefficients_in("xi").get(k, LaurentPoly.zero(ctx.registry)))
          for k in (0, 1, 2)]
    cs = [_rational_or_none(cpoly.coefficients_in("xi").get(k, LaurentPoly.zero(ctx.registry)))
          for k in (0, 1, 2)]
    if d is None or None in bs or None in cs:
        raise UnknownSymbol("classification needs exact rational coefficients")
    if all(v == 0 for v in bs) and all(v == 0 for v in cs):
        cls = products.TP1PoissonClass(1, {"D": d})
    elif any(v != 0 for v in bs):
        ratio = None
        for b, c in zip(bs, cs):
            if b != 0:
                ratio = Fraction(c, b) if c else Fraction(0)
                break
        for b, c in zip(bs, cs):
            if Fraction(c) != ratio * b:
                raise products.ConstraintViolation("bivector violates the Poisson identity")
        cls = products.TP1PoissonClass(
            2, {"D": d, "A": bs[0], "B": bs[1], "C": bs[2], "k": ratio})
    else:
        cls = products.TP1PoissonClass(3, {"D": d, "A": cs[0], "B": cs[1], "C": cs[2]})
    return products.tp1_classify(cls)


FAMILY_NAMES = ("f2", "f3", "f4", "f5", "hopf-iv", "hopf-iii", "hopf-iia",
                "hopf-iib", "hopf-iic", "ep1", "tp1")


def cmd_verify_family(args) -> int:
    name = args.name
    try:
        doc = verify_family_report(name, _degree_cap(args))
    except (ruled.RationalPartSurvives, ruled.KSDegenerate,
            hopf.MembershipFails, AssertionError) as exc:
        doc = {"family": name, "ok": False, "error": str(exc)}
        if isinstance(exc, ruled.RationalPartSurvives) and exc.residual:
            doc["residual"] = exc.residual
        print(json.dumps(doc, sort_keys=True, indent=2))
        return EXIT_FAIL
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if doc["ok"] else EXIT_FAIL


def verify_family_report(name: str, cap: int | None = None) -> dict:
    if name in ruled.FAMILIES:
        fam = ruled.FAMILIES[name]()
        rep = ruled.verify_family(fam)
        return {"family": name, "ok": rep.ok, "dim_h1": rep.dim_h1,
                "n_params": rep.n_params, "h1_basis": rep.basis}
    if name.startswith("hopf-"):
        tag = {"hopf-iv": ("IV", None), "hopf-iii": ("III", hopf.DEFAULT_P),
               "hopf-iia": ("IIa", hopf.DEFAULT_P), "hopf-iib": ("IIb", None),
               "hopf-iic": ("IIc", None)}[name]
        t = hopf.HopfType(*tag)
        inv = hopf.family_invariance(t)
        mem = hopf.d_membership(t, cap)
        return {"family": name, "ok": bool(inv), "invariance": inv,
                "h1_dim": mem["h1_dim"], "pairs": mem["pairs"]}
    if name == "ep1":
        cert = products.ep1_classify(None, None, None)
        return {"family": name, "ok": cert.verdict == UNOBSTRUCTED_MC,
                "verdict": cert.verdict, "dims": cert.data}
    if name == "tp1":
        cert = products.tp1_classify(products.TP1PoissonClass(2, {}))
        return {"family": name, "ok": cert.verdict == UNOBSTRUCTED_MC,
                "verdict": cert.verdict, "dims": cert.data}
    raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")


def cmd_mc_check(args) -> int:
    name = args.name
    if name == "ep1":
        sol = products.ep1_mc_solution()
        defect = sol.defect()
        doc = {"solution": name, "defect_zero": defect.is_zero(),
               "defect": str(defect)}
    elif name == "tp1":
        sol = products.tp1_mc_solution(products.TP1PoissonClass(2, {}))
        pieces = products.tp1_integrability(sol)
        doc = {"solution": name,
               "defect_zero": all(v.is_zero() for v in pieces.values()),
               "pieces": {k: str(v) for k, v in pieces.items()}}
    else:
        print(f"unknown solution {name!r}; choose ep1 or tp1", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if doc["defect_zero"] else EXIT_FAIL


def cmd_report(args) -> int:
    doc = {
        "ruled": ruled_table(args.m_max),
        "hopf": hopf_tables(_degree_cap(args), hopf.DEFAULT_P),
        "products": products_tables(),
        "families": {name: verify_family_report(name) for name in FAMILY_NAMES},
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poissonlab",
        description="exact deformation calculus for holomorphic Poisson surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="reproduce the dimension tables")
    tables.add_argument("what", choices=("ruled", "hopf", "products"))
    tables.add_argument("--m-max", type=int, default=10)
    tables.add_argument("--degree", type=int, default=None)
    tables.add_argument("--p", type=int, default=hopf.DEFAULT_P)
    fmt = tables.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--md", action="store_true", default=False)
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
    mc.add_argument("name", choices=("ep1", "tp1"))
    mc.set_defaults(func=cmd_mc_check)

    report = sub.add_parser("report", help="all tables and verifications as JSON")
    report.add_argument("--m-max", type=int, default=10)
    report.add_argument("--degree", type=int, default=None)
    report.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownSymbol, UsageError, hopf.TruncationUnstable) as exc:
        # a cover model that fails validation means the degree cap is too small
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ruled.NotObstructedStratum, products.ConstraintViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
