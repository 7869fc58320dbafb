"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is exact (zero tolerance), as befits symbolic identities.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from poissonlab import hopf, products, ruled
from poissonlab.cli import main as cli_main
from poissonlab.expr import EvalContext, eval_str
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import generic_rank, kernel_basis
from poissonlab.multivector import (Chart, FormedMultiVector, MultiVector,
                                    schouten, schouten_formed, wedge)
from poissonlab.obstruction import (OBSTRUCTED, UNDETERMINED,
                                    UNOBSTRUCTED_H2_ZERO, UNOBSTRUCTED_MC,
                                    verify_certificate)
from poissonlab.rational import GaussianRational
from ruled_cochains import cech_square, random_cocycle


def report(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_01_bracket_oracles():
    # quadratic bivector against a linear field on the plane chart
    reg = VarRegistry(("z", "w"), ("A", "B", "C", "d", "e", "f", "g"))
    ch = Chart("W", ("z", "w"))
    v = lambda n: LaurentPoly.var(reg, n)
    z, w = v("z"), v("w")
    A, B, C, d, e, f, g = (v(n) for n in ("A", "B", "C", "d", "e", "f", "g"))
    lam = MultiVector.term(ch, reg, A * z * z + B * z * w + C * w * w, ("z", "w"))
    X = (MultiVector.term(ch, reg, d * z + e * w, ("z",))
         + MultiVector.term(ch, reg, f * z + g * w, ("w",)))
    got = schouten(lam, X)
    want = MultiVector.term(
        ch, reg,
        (-(A * d) - B * f + g * A) * z * z
        + (-(A * e) * 2 - C * f * 2) * z * w
        + (C * d - B * e - C * g) * w * w, ("z", "w"))
    assert got == want

    # general bivector against a general field on the ruled chart
    names = tuple(f"{x}{i}" for x in "defgbc" for i in range(3))
    reg2 = VarRegistry(("z", "xi"), names)
    ch2 = Chart("U1", ("z", "xi"))

    def poly(letter):
        out = LaurentPoly.zero(reg2)
        for i in range(3):
            out = out + LaurentPoly.var(reg2, f"{letter}{i}") * LaurentPoly.var(reg2, "z") ** i
        return out

    dz, ez, fz, gz, bz, cz = (poly(a) for a in "defgbc")
    xi = LaurentPoly.var(reg2, "xi")
    lam2 = MultiVector.term(ch2, reg2, dz + ez * xi + fz * xi * xi, ("z", "xi"))
    X2 = (MultiVector.term(ch2, reg2, gz, ("z",))
          + MultiVector.term(ch2, reg2, bz * xi + cz * xi * xi, ("xi",)))
    got2 = schouten(lam2, X2)
    dp, ep, fp, gp = (p.partial("z") for p in (dz, ez, fz, gz))
    acoef = dz * gp - gz * dp + dz * bz
    bcoef = ez * gp - gz * ep + dz * cz * 2
    ccoef = fz * gp - gz * fp + cz * ez - bz * fz
    want2 = MultiVector.term(ch2, reg2, acoef + bcoef * xi + ccoef * xi * xi,
                             ("z", "xi"))
    assert got2 == want2
    report(1, "bracket oracles reproduce verbatim")


def test_02_bracket_axioms_randomized():
    reg = VarRegistry(("x", "y", "u"), ())
    ch = Chart("C", ("x", "y", "u"))
    rng = random.Random(20260808)

    def rand_mv(g):
        comps = {}
        for idx in itertools.combinations(range(3), g):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = {}
                for vi in range(3):
                    e = rng.randint(-2, 2)
                    if e:
                        key[vi] = e
                terms[tuple(sorted(key.items()))] = GaussianRational(
                    rng.randint(-3, 3), rng.randint(-1, 1))
            comps[idx] = LaurentPoly(reg, terms)
        return MultiVector(ch, reg, comps)

    checked = 0
    for _ in range(200):
        ga, gb, gc = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        a, b, c = rand_mv(ga), rand_mv(gb), rand_mv(gc)
        lhs = schouten(a, b)
        rhs = schouten(b, a)
        sign = -1 if ((ga - 1) * (gb - 1)) % 2 == 0 else 1
        assert lhs == (rhs if sign == 1 else -rhs)
        s = -1 if ((ga - 1) * (gb - 1)) % 2 else 1
        r2 = schouten(b, schouten(a, c))
        assert schouten(a, schouten(b, c)) == schouten(schouten(a, b), c) + (
            r2 if s == 1 else -r2)
        s2 = -1 if ((ga - 1) * gb) % 2 else 1
        tail = wedge(b, schouten(a, c))
        assert schouten(a, wedge(b, c)) == wedge(schouten(a, b), c) + (
            tail if s2 == 1 else -tail)
        checked += 1
    assert checked == 200
    report(2, "graded antisymmetry, Jacobi and Leibniz on 200 triples")


def test_03_table1_sweep_with_reverifiable_witnesses():
    rows = ruled.table1_sweep(10)
    seen = set()
    for row in rows:
        seen.add((row.m, row.stratum))
        if row.m <= 3 or row.stratum == "e!=0":
            assert row.dim_h2 == 0
            assert row.certificate.verdict == UNOBSTRUCTED_H2_ZERO
        else:
            assert row.dim_h2 == row.m - 3
            assert row.certificate.verdict == OBSTRUCTED
            # round-trip the witness and re-verify it against the model
            rs = ruled.make_surface(row.m, ("e0", "e1", "e2")
                                    + tuple(f"f{j}" for j in range(row.m + 3)))
            zero = LaurentPoly.zero(rs.registry)
            f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(row.m + 3)), zero)
            model = ruled.complex_model(rs, ruled.RuledPoisson(rs, zero, zero, f_sym))
            ectx = EvalContext(rs.chart1, rs.registry, ())
            assert verify_certificate(
                row.certificate, model, lambda s: eval_str(s, ectx).part(()))
    for m in range(11):
        assert (m, "any" if m <= 3 else "e!=0") in seen or (m, "e=0") in seen
    report(3, "Table-1 sweep with re-verified witnesses")


def test_04_family_suite():
    dims = {"f2": 10, "f3": 11, "f4": 5, "f5": 5}
    for name, dim in dims.items():
        rep = ruled.verify_family(ruled.FAMILIES[name]())
        assert rep.ok and rep.dim_h1 == dim
        with pytest.raises(ruled.RationalPartSurvives) as err:
            ruled.verify_family(ruled.FAMILIES[name](corrected=False))
        assert err.value.residual and err.value.residual != "0"
    report(4, "all four families verify; deleted corrections leave residues")


HOPF_TYPES = (hopf.HopfType("IV"), hopf.HopfType("III", 2),
              hopf.HopfType("IIa", 2), hopf.HopfType("IIb"), hopf.HopfType("IIc"))


def test_05_hopf_field_tables():
    dims_theta = []
    dims_sq = []
    for t in HOPF_TYPES:
        ctx = hopf.make_context(t)
        cap = hopf.default_cap(t)
        dims_theta.append(len(hopf.invariant_fields(ctx, cap)))
        dims_sq.append(len(hopf.invariant_bivectors(ctx, cap)))
    assert dims_theta == [4, 3, 2, 2, 2]
    assert dims_sq == [3, 2, 1, 1, 1]
    for t, stratum in hopf.STRATA:
        assert hopf.stratum_row(hopf.model_for(t), stratum)["automorphism_basis_verified"]
    report(5, "Hopf field dims and automorphism bases")


def test_06_m_bases_match_and_truncation_stable():
    expected_m2 = {
        "IV": ["z^2*(@z^@w)", "z*w*(@z^@w)", "w^2*(@z^@w)"],
        "III": ["z*w*(@z^@w)", "w^3*(@z^@w)"],
        "IIa": ["z*w*(@z^@w)"],
        "IIb": ["z^2*(@z^@w)"],
        "IIc": ["z*w*(@z^@w)"],
    }
    for t in HOPF_TYPES:
        model = hopf.model_for(t)
        hopf.model_for(t, model.cap + 2)  # validates again two caps higher
        assert [str(e) for e in model.m2] == expected_m2[t.tag]
    report(6, "first-cohomology models stable across truncations")


def test_07_table5_triples():
    expected = [(4, 7, 3), (2, 3, 1), (3, 5, 2), (2, 3, 1),
                (2, 3, 1), (2, 3, 1), (2, 3, 1), (2, 3, 1)]
    rows = [hopf.stratum_row(hopf.model_for(t), s) for t, s in hopf.STRATA]
    got = [(r["dim_h0"], r["dim_h1"], r["dim_h2"]) for r in rows]
    assert got == expected
    report(7, "all eight cohomology triples")


def test_08_family_invariance():
    for t in HOPF_TYPES:
        assert hopf.family_invariance(hopf.make_context(t))
    report(8, "five family structures invariant under the group generator")


def test_09_membership_and_sigma_independence():
    for t in HOPF_TYPES:
        rep = hopf.d_membership(hopf.model_for(t))
        assert rep["h1_dim"] == 3
    report(9, "tangent pairs satisfy the defining equation and fill H1")


def test_10_undetermined_strata():
    assert hopf.h95_degeneracy("iv-discriminant-zero") is True
    assert hopf.h95_degeneracy("iii-b-nonzero") is True
    assert hopf.h95_degeneracy("iic-control") is False
    for case in hopf.H95_CASES:
        t, stratum = hopf._h95_stratum(case)
        assert hopf.stratum_certificate(hopf.model_for(t), stratum).verdict == UNDETERMINED
    report(10, "degenerate candidate families and undetermined verdicts")


def test_11_elliptic_times_line():
    mats = products.ep1_bracket_matrices()
    m_h1, m_h0 = mats.m_h1, mats.m_h0
    rows = [[str(e) for e in r] for r in m_h1.rows]
    assert rows == [["0", "-B", "A", "0"], ["0", "-2*C", "0", "2*A"],
                    ["0", "0", "-C", "B"]]
    assert m_h0.rows == m_h1.rows
    assert generic_rank(m_h1) == 2
    assert [[str(p) for p in v] for v in kernel_basis(m_h1)] == [
        ["1", "0", "0", "0"], ["0", "A", "B", "C"]]
    sol = products.ep1_mc_solution(mats)
    assert sol.defect().is_zero()
    cert = products.ep1_classify(1, 0, 0)
    assert cert.verdict == UNOBSTRUCTED_MC
    assert cert.data == {"dim_h1": 3, "dim_h2": 1}
    zero_cert = products.ep1_classify(0, 0, 0)
    assert zero_cert.verdict == OBSTRUCTED
    # the witness bracket recomputes to a nonzero class
    ctx = products.ep1_context()
    ectx = EvalContext(ctx.chart, ctx.registry, ctx.dbar)
    a = eval_str(zero_cert.witness["a"], ectx)
    b = eval_str(zero_cert.witness["b"], ectx)
    assert not schouten_formed(a, b).is_zero()
    report(11, "product of the elliptic curve and the line")


def test_12_torus_times_line():
    ctx = products.tp1_context()
    mats = {cid: products.tp1_matrices(ctx, products.tp1_lambda0(
        ctx, products.TP1PoissonClass(cid, {}))) for cid in (1, 2, 3)}
    dims = {cid: products.tp1_dims(m, products.tp1_model(m, f"class-{cid}"))
            for cid, m in mats.items()}
    assert dims[1]["dim_h1"] == 17
    assert dims[2]["dim_h1"] == 9
    assert dims[3]["dim_h1"] == 9
    sol = products.tp1_mc_solution(mats[2])
    pieces = products.tp1_integrability(sol)
    assert all(v.is_zero() for v in pieces.values())
    # deletion residuals: strip each correction and recheck
    reg = ctx.registry
    z0 = {f"t{i}": LaurentPoly.const(reg, 0) for i in range(9)}

    def linear(mv):
        out = None
        for tn in (f"t{i}" for i in range(9)):
            piece = mv.map_coefficients(
                lambda p, tn=tn: p.partial(tn).substitute(z0)).scale(ctx.param(tn))
            out = piece if out is None else out + piece
        return out

    lam_full = sol.beta.part(())
    lam_lin = linear(lam_full)
    lam_corr = lam_full - lam_lin
    assert not lam_corr.is_zero()
    half = GaussianRational.of(1) / 2
    lam0f = FormedMultiVector.of(sol.lambda0, sol.beta.dbar_vars)
    lam_lin_f = FormedMultiVector.of(lam_lin, sol.beta.dbar_vars)
    p14_raw = (schouten_formed(lam0f, lam_lin_f)
               + schouten_formed(lam_lin_f, lam_lin_f).scale(half))
    corr_f = FormedMultiVector.of(lam_corr, sol.beta.dbar_vars)
    assert p14_raw == schouten_formed(lam0f, -corr_f) and not p14_raw.is_zero()
    phi_corr = None
    phi_lin = None
    for g in ("z1", "z2"):
        part = sol.alpha.part((g,))
        lp = linear(part)
        fc = FormedMultiVector.of(part - lp, sol.beta.dbar_vars, (g,))
        lc = FormedMultiVector.of(lp, sol.beta.dbar_vars, (g,))
        phi_corr = fc if phi_corr is None else phi_corr + fc
        phi_lin = lc if phi_lin is None else phi_lin + lc
    assert not phi_corr.is_zero()
    p15_raw = schouten_formed(lam0f, phi_lin) + schouten_formed(sol.beta, phi_lin)
    assert not p15_raw.is_zero()
    assert schouten_formed(lam_lin_f, phi_lin) == schouten_formed(lam0f, -phi_corr)
    report(12, "torus times line: dimensions, identities, residuals")


def test_13_torus():
    assert products.torus_dims(1) == 1
    assert products.torus_dims(2) == 5
    assert products.torus_dims(3) == 12
    report(13, "Poisson tori")


def test_14_cech_squares_randomized():
    rng = random.Random(808)
    rs = ruled.make_surface(6)
    zero = LaurentPoly.zero(rs.registry)
    pois = ruled.RuledPoisson(rs, zero, zero, rs.z(3) + rs.const(2))
    for _ in range(20):
        lam1, lam2, theta = random_cocycle(rs, pois, rng)
        cech_square(rs, pois.bivector(), lam1, lam2, theta)
    report(14, "two-chart squared cocycles, 20 random trials")


def test_15_deterministic_reports():
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["report", "--m-max", "8"])
        assert code == 0
        return buf.getvalue()

    first, second = run(), run()
    assert first == second
    assert first.encode() == second.encode()
    golden = Path(__file__).parent / "golden" / "report.json"
    assert first == golden.read_text()
    json.loads(first)
    report(15, "byte-identical consecutive reports")
