"""Command-line front end.

Subcommands reproduce the dimension tables, print Schouten brackets of
parsed expressions, classify Poisson structures into deformation
verdicts, and re-run the family and Maurer-Cartan verifications.  All
verification failures exit nonzero; JSON output is key-sorted and
deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import hopf, products, ruled
from .expr import ParseError, UnknownSymbol, context_for, eval_str, free_names, tokenize
from .laurent import LaurentPoly
from .linalg import NotInSpan
from .multivector import ChartFrame, schouten_formed
from .obstruction import (OBSTRUCTED, UNDETERMINED, UNOBSTRUCTED_MC, Certificate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the largest n of `classify torus:n`: the cost grows faster than n^3, from
# 0.4 s at n = 128 to about 26 s at n = 400 (one core of an AMD EPYC VM)
MAX_TORUS_N = 128
# the largest Hopf degree cap, and the largest p, whose default cap p + 3 it is: the dense
# grade-1 id - f_* has side (cap + 1)(cap + 2), and `tables hopf --degree 40` takes
# 1.2-1.5 s and 100 MB peak RSS (same VM)
MAX_CAP = 40
MAX_P = MAX_CAP - 3


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
    if cap is not None and cap > MAX_CAP:
        raise UsageError(f"degree cap {cap} is above the maximum {MAX_CAP}")
    return cap


def _m_max(args) -> int:
    if not 0 <= args.m_max <= ruled.MAX_M:
        raise UsageError(f"--m-max must lie in 0..{ruled.MAX_M}, got {args.m_max}")
    return args.m_max


def _spec_number(parts, low: int, high: int | None = None) -> int:
    """The N of a `KIND:N` manifold spec, an integer in low..high."""
    spec = ":".join(parts)
    bounds = f"{low}..{high}" if high is not None else f">= {low}"
    if len(parts) != 2:
        raise UsageError(f"{spec!r}: expected {parts[0]}:N with an integer N {bounds}")
    try:
        n = int(parts[1])
    except ValueError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        raise UsageError(f"{spec!r}: N must be an integer {bounds}")
    return n


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
    models = {t: hopf.model_for(t, cap) for t in hopf_types(p)}
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
        cls = products.TP1PoissonClass(cid, {})
        cert = products.tp1_classify(cls)
        tp1_rows.append({"class": cid, "dim_h1": cert.data["dim_h1"],
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
        rows = ruled_table(_m_max(args))
        _emit(rows, args, lambda doc: _md_rows(
            doc, ("manifold", "stratum", "dim_h2", "verdict"), "Ruled surfaces"))
        return EXIT_OK
    if args.what == "hopf":
        if not 2 <= args.p <= MAX_P:
            raise UsageError(f"--p must be an integer in 2..{MAX_P}, got {args.p}")
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
    if "" in chart_vars or len(set(chart_vars)) != len(chart_vars):
        raise UsageError(f"--chart {args.chart!r}: the chart variables must be "
                         "nonempty and distinct")
    dbar = tuple(args.dbar.split(",")) if args.dbar else ()
    # each source is tokenized once: every tokenizer error comes first
    left, right = tokenize(args.left), tokenize(args.right)
    ctx = context_for([left, right], chart_vars, dbar)
    a = eval_str(left, ctx)
    b = eval_str(right, ctx)
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
        m = _spec_number(parts, 0, ruled.MAX_M)
        src = args.poisson
        tokens = tokenize(src)
        names = sorted(n for n in free_names(tokens) if n not in ("z", "xi"))
        for n in names:
            if n in ("zp", "xip"):
                raise UsageError(f"{src!r}: {n!r} is a coordinate of the chart U2; "
                                 "write the bivector in the U1 coordinates z, xi")
        # one with its own parameter names is never stored: names cannot grow the store
        rs = ruled.make_surface(m, names) if names else ruled.surface_for(m)
        mv = eval_str(tokens, rs).part(())
        try:
            pois = ruled.poisson_from_bivector(rs, mv)
        except ValueError as exc:
            raise UsageError(f"{src!r} is not a global Poisson structure on F{m}: "
                             f"{exc}") from None
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
        n = _spec_number(parts, 1, MAX_TORUS_N)
        dim = products.torus_dims(n, _torus_coeffs(args.poisson, n))
        cert = Certificate(f"T{n}", "constant", UNOBSTRUCTED_MC,
                           reason="translation-invariant deformation family",
                           data={"dim_h1": dim})
    else:
        print(f"unknown manifold spec {spec!r}", file=sys.stderr)
        return EXIT_USAGE
    print(cert.to_json())
    return EXIT_OK if cert.verdict != "error" else EXIT_FAIL


def _require_bivector(mv):
    if mv.grades() - {2}:
        raise UnknownSymbol("a Poisson structure must be a pure bivector expression")
    return mv


def _rationals(polys):
    out = [_rational_or_none(p) for p in polys]
    if None in out:
        raise UnknownSymbol("classification needs exact rational coefficients")
    return out


def _xi_quadratic(src: str, poly: LaurentPoly, manifold: str):
    """The rational coefficients of xi^0, xi^1, xi^2 in `poly`.

    A global bivector on a product with the projective line has xi-degree
    0..2 in this chart; any other degree is a usage error."""
    buckets = poly.coefficients_in("xi")
    outside = sorted(set(buckets) - {0, 1, 2})
    if outside:
        raise UsageError(f"{src!r} is not a global bivector on {manifold}: "
                         f"xi-degree {outside[0]} lies outside 0..2")
    return _rationals(buckets.get(k, LaurentPoly.zero(poly.registry)) for k in (0, 1, 2))


def _ep1_coeffs(src: str):
    tokens = tokenize(src)
    ctx = context_for([tokens], ("z", "xi"), ("z",))
    mv = _require_bivector(eval_str(tokens, ctx).part(()))
    return _xi_quadratic(src, mv.coefficient(("z", "xi")), "ExP1")


def _torus_coeffs(src: str, n: int) -> dict:
    """The constant coefficients b_ij of a bivector on the chart z1..zN."""
    names = tuple(f"z{i}" for i in range(1, n + 1))
    tokens = tokenize(src)
    ctx = context_for([tokens], names)
    mv = _require_bivector(eval_str(tokens, ctx).part(()))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    values = [_rational_or_none(mv.coefficient((f"z{i}", f"z{j}"))) for i, j in pairs]
    if None in values:
        raise UsageError(f"{src!r} is not a constant Poisson structure on T{n}: "
                         "the coefficients must be rational constants")
    return {f"b_{i}_{j}": v for (i, j), v in zip(pairs, values)}


def _hopf_type(parts) -> hopf.HopfType:
    """The type of a `hopf:TAG` or `hopf:TAG:p=N` spec; rejects anything else."""
    spec = ":".join(parts)
    if len(parts) < 2 or parts[1] not in hopf.TYPE_TAGS:
        raise UsageError(f"{spec!r}: the Hopf type must be one of {', '.join(hopf.TYPE_TAGS)}")
    tag, extras = parts[1], parts[2:]
    if tag not in ("III", "IIa"):
        if extras:
            raise UsageError(f"{spec!r}: type {tag} takes no options")
        return hopf.HopfType(tag)
    if len(extras) != 1 or not extras[0].startswith("p="):
        raise UsageError(f"{spec!r}: type {tag} needs exactly one option p=N")
    try:
        p = int(extras[0][2:])
    except ValueError:
        p = None
    if p is None or not 2 <= p <= MAX_P:
        raise UsageError(f"{spec!r}: p must be an integer in 2..{MAX_P}")
    return hopf.HopfType(tag, p)


def _classify_hopf(parts, args) -> Certificate:
    t = _hopf_type(parts)
    tag = t.tag
    model = hopf.model_for(t)
    ctx = model.ctx
    tokens = tokenize(args.poisson)
    names = sorted(n for n in free_names(tokens) if n not in ("z", "w"))
    for n in names:
        if n not in ctx.registry.param_vars:
            raise UnknownSymbol(n)
    mv = _require_bivector(eval_str(tokens, ctx).part(()))
    try:
        model.bivector_coords(mv)
    except NotInSpan:
        raise UsageError(f"{args.poisson!r} is not an invariant bivector "
                         f"on the Hopf surface of type {t.label()}") from None
    coeff = mv.coefficient(("z", "w"))
    zero = LaurentPoly.zero(ctx.registry)

    def coef(mu, nu):
        """The coefficient of z^mu w^nu, a polynomial in the parameters: one
        that is not zero as a polynomial is read at a generic point."""
        return coeff.coefficients_in("z").get(mu, zero).coefficients_in("w").get(nu, zero)

    if tag == "IV":
        a, b, c = coef(2, 0), coef(1, 1), coef(0, 2)
        stratum = ("zero" if coeff.is_zero()
                   else "degenerate" if (a * c * 4 - b * b).is_zero() else "generic")
    elif tag == "III":
        stratum = "zero" if coeff.is_zero() else "B" if coef(1, 1).is_zero() else "A"
    else:
        stratum = "any"
    return hopf.stratum_certificate(model, stratum)


def _classify_tp1(src: str) -> Certificate:
    ctx = products.tp1_context()
    # no dbar generators: a Poisson structure has no form part
    mv = _require_bivector(eval_str(src, ChartFrame(ctx.chart, ctx.registry)).part(()))
    (d,) = _rationals([mv.coefficient(("z1", "z2"))])
    bs = _xi_quadratic(src, mv.coefficient(("z2", "xi")), "TxP1")
    cs = _xi_quadratic(src, -mv.coefficient(("z1", "xi")), "TxP1")
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
        model = hopf.model_for(hopf.HopfType(*tag), cap)
        inv = hopf.family_invariance(model.ctx)
        mem = hopf.d_membership(model)
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
        sol = products.ep1_mc_solution(products.ep1_bracket_matrices())
        defect = sol.defect()
        doc = {"solution": name, "defect_zero": defect.is_zero(),
               "defect": str(defect)}
    elif name == "tp1":
        ctx = products.tp1_context()
        lam0 = products.tp1_lambda0(ctx, products.TP1PoissonClass(2, {}))
        sol = products.tp1_mc_solution(products.tp1_matrices(ctx, lam0))
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
    tables.add_argument("what", choices=("ruled", "hopf", "products"))
    tables.add_argument("--m-max", type=int, default=10)
    tables.add_argument("--degree", type=int, default=None)
    tables.add_argument("--p", type=int, default=hopf.DEFAULT_P)
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
    mc.add_argument("name", choices=("ep1", "tp1"))
    mc.set_defaults(func=cmd_mc_check)

    report = sub.add_parser("report", help="all tables and verifications as JSON")
    report.add_argument("--m-max", type=int, default=10)
    report.add_argument("--degree", type=int, default=None)
    report.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownSymbol, UsageError, hopf.TruncationUnstable) as exc:
        # a cover model that fails validation means the degree cap is too small
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ruled.NotObstructedStratum, products.ConstraintViolation, hopf.MembershipFails,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
