import pytest

from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import NotInSpan, generic_rank, kernel_basis, matrix_of_map
from poissonlab.multivector import (Chart, FormedMultiVector, MultiVector, basis_coords,
                                    schouten, schouten_formed)
from poissonlab import obstruction
from poissonlab.obstruction import OBSTRUCTED, UNOBSTRUCTED_MC, DeformationComplexModel
from poissonlab.products import (ConstraintViolation,
                                 ep1_bases, ep1_classify, ep1_context, ep1_lambda0,
                                 ep1_mc_solution, ep1_model, torus_dims,
                                 tp1_bases, tp1_classify, tp1_context,
                                 tp1_dims, tp1_integrability, tp1_model,
                                 tp1_lambda0, tp1_mc_solution)
from poissonlab.products import ep1_family, tp1_family
from poissonlab.rational import GaussianRational
import poissonlab.products as products_mod


def _tp1_model(class_id):
    return tp1_model(tp1_lambda0(class_id), f"class-{class_id}")


def _tp1_point(point):
    """The class-2 bivector at numeric D, A, B, C and k."""
    ctx = tp1_context()
    reg = ctx.registry
    return tp1_lambda0(2).map_coefficients(lambda p: p.substitute(
        {name: LaurentPoly.const(reg, v) for name, v in point.items()}))


def _tangent_columns(monkeypatch, run):
    """The class coordinate columns of the tangent directions that `run`
    hands to DeformationComplexModel.fills."""
    seen, real = [], DeformationComplexModel.fills
    monkeypatch.setattr(DeformationComplexModel, "fills",
                        lambda self, columns: seen.append(columns) or real(self, columns))
    run()
    (columns,) = seen
    return columns


def test_basis_dimensions():
    ctx = ep1_context()
    b = ep1_bases(ctx)
    assert tuple(len(b[k]) for k in ("h0_theta", "h1_theta", "h0_sq", "h1_sq")) == (4, 4, 3, 3)
    ctx2 = tp1_context()
    b2 = tp1_bases(ctx2)
    dims = tuple(len(b2[k]) for k in (
        "h0_theta", "h1_theta", "h2_theta", "h0_sq", "h1_sq", "h2_sq",
        "h0_cube", "h1_cube"))
    assert dims == (5, 10, 5, 7, 14, 7, 3, 6)


def test_ep1_matrices_match_displayed_form():
    model = ep1_model()
    m_h1, m_h0 = model.h1, model.h0
    rows = [[str(e) for e in r] for r in m_h1.rows]
    assert rows == [["0", "-B", "A", "0"],
                    ["0", "-2*C", "0", "2*A"],
                    ["0", "0", "-C", "B"]]
    assert m_h0.rows == m_h1.rows
    assert generic_rank(m_h1) == 2
    kers = kernel_basis(m_h1)
    assert [[str(p) for p in v] for v in kers] == [
        ["1", "0", "0", "0"], ["0", "A", "B", "C"]]


def test_ep1_specialized_ranks():
    m_h1 = ep1_model(0, 0, 0).h1
    assert generic_rank(m_h1) == 0
    m_h1 = ep1_model(1, 2, 1).h1
    assert generic_rank(m_h1) == 2
    m_h0 = ep1_model(1, 0, 0).h0
    assert generic_rank(m_h0) == 2


def test_nonzero_ep1_classify_builds_its_matrices_once(monkeypatch):
    calls, real = [], products_mod.ep1_model

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(products_mod, "ep1_model", counted)
    assert ep1_classify(1, 2, 0).verdict == UNOBSTRUCTED_MC
    assert calls == [(1, 2, 0)]


def test_the_frame_store_is_the_only_module_state():
    mutable = [name for name, value in vars(products_mod).items()
               if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert mutable == []
    # the product frames are built once, kept in the one store, and shared
    assert ep1_context() is ep1_context() and tp1_context() is tp1_context()
    assert ep1_model().h0_sq is ep1_model(1, 0, 0).h0_sq is obstruction._STORE["ExP1",][1]["h0_sq"]
    assert _tp1_model(1).h0_sq is _tp1_model(2).h0_sq is obstruction._STORE["TxP1",][1]["h0_sq"]
    assert obstruction._STORE["ExP1",][0] is ep1_context()
    assert obstruction._STORE["TxP1",][0] is tp1_context()


def test_ep1_mc_defect_vanishes_symbolically():
    sol = ep1_mc_solution(ep1_model())
    assert sol.defect().is_zero()


def test_ep1_mc_defect_vanishes_with_symbolic_cokernel_choice():
    # any (F0,F1,F2) kills the defect; the cokernel condition only
    # matters for the tangent map
    ctx = ep1_context()
    sol = ep1_mc_solution(ep1_model())
    fsym = (ctx.param("F0"), ctx.param("F1"), ctx.param("F2"))
    lam0 = ep1_lambda0(ctx)
    kpoly = lam0.coefficient(("z", "xi"))
    fpoly = fsym[0] + fsym[1] * ctx.xi() + fsym[2] * ctx.xi(2)
    t0, t1, t2 = (ctx.param(n) for n in ("t0", "t1", "t2"))
    beta = (ctx.formed(ctx.mv(t0 * fpoly, ("z", "xi")))
            + ctx.formed(ctx.mv(t0 * t2 * fpoly, ("xi",)), ("z",)))
    alpha = (ctx.formed(ctx.mv(t1 * ctx.const(1), ("z",)), ("z",))
             + ctx.formed(ctx.mv(t2 * kpoly, ("xi",)), ("z",)))
    from poissonlab.multivector import mc_defect
    assert mc_defect(lam0, beta + alpha).is_zero()
    del sol


def test_ep1_mc_t2_zero_slice():
    sol = ep1_mc_solution(ep1_model())
    reg = sol.lambda0.registry
    slice_sub = {"t2": LaurentPoly.const(reg, 0)}
    el = sol.element().map_coefficients(lambda p: p.substitute(slice_sub))
    from poissonlab.multivector import mc_defect
    assert mc_defect(sol.lambda0, el).is_zero()


def test_ep1_defect_residual_without_correction():
    ctx = ep1_context()
    lam0 = ep1_lambda0(ctx)
    sol = ep1_mc_solution(ep1_model())
    # drop the t0 t2 correction: the defect equals -t0 t2 [lam0, F dxi dzbar]
    corr = ctx.formed(ctx.mv(ctx.param("t0") * ctx.param("t2") * ctx.const(1), ("xi",)), ("z",))
    reps = sol.beta.part(()).coefficient(("z", "xi"))
    fpoly = reps.exact_div(ctx.param("t0"))
    corr = ctx.formed(ctx.mv(ctx.param("t0") * ctx.param("t2") * fpoly, ("xi",)), ("z",))
    raw = sol.element() - corr
    from poissonlab.multivector import mc_defect
    defect = mc_defect(lam0, raw)
    lam0f = FormedMultiVector.of(lam0, ctx.dbar)
    assert defect == schouten_formed(lam0f, -corr)
    assert not defect.is_zero()


def test_ep1_ks_identity_pattern(monkeypatch):
    columns = _tangent_columns(monkeypatch, lambda: ep1_classify(None, None, None))
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    n = len(rows)
    assert n == 3
    for i in range(n):
        for j in range(n):
            want = "1" if i == j else "0"
            assert str(rows[i][j]) == want


def test_ep1_classify():
    cert = ep1_classify(1, 0, 0)
    assert cert.verdict == UNOBSTRUCTED_MC
    assert cert.data == {"dim_h1": 3, "dim_h2": 1}
    cert = ep1_classify(0, 0, 5)
    assert cert.verdict == UNOBSTRUCTED_MC
    cert = ep1_classify(0, 0, 0)
    assert cert.verdict == OBSTRUCTED
    assert cert.witness == {"a": "(@z^@xi)", "b": "xi*@xi*~z"}
    assert cert.class_repr == "(@z^@xi)*~z"


def test_tp1_poisson_condition_equivalence():
    # [lam, lam] = 0 iff the three 2x2 minors of (b, c) vanish
    reg = VarRegistry(("z1", "z2", "xi"),
                      ("a", "b0", "b1", "b2", "c0", "c1", "c2"))
    ch = Chart("T", ("z1", "z2", "xi"))
    v = lambda n: LaurentPoly.var(reg, n)
    xi = v("xi")
    P2 = v("b0") + v("b1") * xi + v("b2") * xi * xi
    P3 = v("c0") + v("c1") * xi + v("c2") * xi * xi
    lam = (MultiVector.term(ch, reg, v("a"), ("z1", "z2"))
           + MultiVector.term(ch, reg, P2, ("z2", "xi"))
           - MultiVector.term(ch, reg, P3, ("z1", "xi")))
    sq = schouten(lam, lam)
    coeff = sq.coefficient(("z1", "z2", "xi"))
    minors = (v("b1") * v("c0") - v("b0") * v("c1"),
              v("b2") * v("c0") - v("b0") * v("c2"),
              v("b2") * v("c1") - v("b1") * v("c2"))
    expected = -(minors[0] + minors[1] * xi * 2 + minors[2] * xi * xi) * 2
    assert coeff == expected


def test_tp1_lambda0_is_poisson_per_class():
    for cid in (1, 2, 3):
        lam = tp1_lambda0(cid)
        assert schouten(lam, lam).is_zero()


def test_tp1_dims_table():
    def dims(class_id):
        return tp1_dims(_tp1_model(class_id))

    assert dims(1)["dim_h1"] == 17
    assert dims(2)["dim_h1"] == 9
    assert dims(3)["dim_h1"] == 9


def _variables(sol):
    """The names the solution's bivector and element use."""
    names = set()
    for mv in [sol.lambda0, *sol.element().parts.values()]:
        for poly in mv.components.values():
            names |= poly.variables()
    return names


@pytest.mark.parametrize("family, coefficients", [
    (ep1_family, ("A", "B", "C", "F0", "F1", "F2")),
    (tp1_family, ("D", "A", "B", "C", "k", "F0", "F1", "F2")),
], ids=["ep1", "tp1"])
def test_stored_families_hold_with_every_coefficient_symbolic(family, coefficients):
    fam = family()
    assert set(coefficients) <= _variables(fam.solution)
    assert fam.pieces and all(v.is_zero() for v in fam.pieces.values())
    # the stored pieces are the identity of the stored solution, recomputed
    sol = fam.solution
    again = ({"defect": sol.defect()} if sol.name == "ExP1" else tp1_integrability(sol))
    assert again == fam.pieces
    assert family() is fam


def _serve(argv):
    import io
    from contextlib import redirect_stdout

    from poissonlab import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_product_requests_read_one_verification_per_family(monkeypatch):
    monkeypatch.setattr(obstruction, "_STORE", {})
    calls = {"tp1_integrability": 0, "defect": 0, "fills": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(products_mod, "tp1_integrability",
                        counting("tp1_integrability", products_mod.tp1_integrability))
    monkeypatch.setattr(products_mod.MCSolution, "defect",
                        counting("defect", products_mod.MCSolution.defect))
    monkeypatch.setattr(DeformationComplexModel, "fills",
                        counting("fills", DeformationComplexModel.fills))
    filled = [["classify", "ep1", "--poisson", "(1 + 2*xi)*@z^@xi"],
              ["classify", "tp1", "--poisson", "2*(@z1^@z2) + (1 + xi^2)*(@z2^@xi)"
                                               " - 3*(1 + xi^2)*(@z1^@xi)"],
              ["classify", "ep1", "--poisson", "(3 - xi + 5*xi^2)*@z^@xi"],
              ["classify", "tp1", "--poisson", "(@z1^@z2) - (xi - 4)*(@z1^@xi)"],
              ["verify-family", "ep1"], ["verify-family", "tp1"]]
    checks = [["mc-check", "ep1"], ["mc-check", "tp1"]]
    for argv in checks + filled + checks:
        code, out = _serve(argv)
        assert code == 0
        assert '"unobstructed_mc"' in out or '"defect_zero": true' in out
    assert calls == {"tp1_integrability": 1, "defect": 1, "fills": len(filled)}


def _drop_tp1_correction(real):
    """The TxP1 builder without its bivector correction -t1 t2 F dz1^dxi."""
    def build(lam0, K, kpar, F):
        sol = real(lam0, K, kpar, F)
        ctx = tp1_context()
        t1t2F = ctx.param("t1") * ctx.param("t2") * F
        sol.beta = sol.beta + ctx.formed(ctx.mv(t1t2F, ("z1", "xi")))
        return sol
    return build


def _drop_ep1_correction(real):
    """The ExP1 builder without its correction t0 t2 F dxi dzbar."""
    def build(lam0, fpoly):
        sol = real(lam0, fpoly)
        ctx = ep1_context()
        t0t2F = ctx.param("t0") * ctx.param("t2") * fpoly
        sol.beta = sol.beta - ctx.formed(ctx.mv(t0t2F, ("xi",)), ("z",))
        return sol
    return build


@pytest.mark.parametrize("builder, corrupt, argv, key, message", [
    ("tp1_family_solution", _drop_tp1_correction,
     ["classify", "tp1", "--poisson", "(@z1^@z2) + (1 + xi)*(@z2^@xi)"],
     ("TxP1", "family"), "integrability piece p14 did not vanish"),
    ("ep1_family_solution", _drop_ep1_correction,
     ["classify", "ep1", "--poisson", "(1 + xi)*@z^@xi"],
     ("ExP1", "family"), "Maurer-Cartan defect did not vanish"),
], ids=["tp1", "ep1"])
def test_a_corrupted_family_fails_every_request_and_is_never_stored(
        monkeypatch, builder, corrupt, argv, key, message):
    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setattr(products_mod, builder, corrupt(getattr(products_mod, builder)))
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            _serve(argv)
        assert key not in obstruction._STORE
    # the report names the failing pieces, and still stores nothing
    code, out = _serve(["mc-check", argv[1]])
    assert code == 1 and '"defect_zero": false' in out
    assert key not in obstruction._STORE


def test_tp1_integrability_identities():
    sol = tp1_mc_solution(_tp1_model(2))
    pieces = tp1_integrability(sol)
    assert all(v.is_zero() for v in pieces.values())


def _tp1_split_linear(sol):
    ctx = tp1_context()
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
    phi_corr = None
    phi_lin = None
    for g in ("z1", "z2"):
        part = sol.alpha.part((g,))
        lp = linear(part)
        cp = part - lp
        fc = FormedMultiVector.of(cp, sol.beta.dbar_vars, (g,))
        lc = FormedMultiVector.of(lp, sol.beta.dbar_vars, (g,))
        phi_corr = fc if phi_corr is None else phi_corr + fc
        phi_lin = lc if phi_lin is None else phi_lin + lc
    return ctx, lam_lin, lam_corr, phi_lin, phi_corr


def test_tp1_deletion_residuals():
    sol = tp1_mc_solution(_tp1_model(2))
    ctx, lam_lin, lam_corr, phi_lin, phi_corr = _tp1_split_linear(sol)
    lam0 = sol.lambda0
    lam0f = FormedMultiVector.of(lam0, sol.beta.dbar_vars)
    # [lam(t), lam(t)] = [lam0, -2 t1 t2 F dxi^dz1] and the correction is
    # exactly minus half of the right-hand argument
    assert schouten(lam_lin, lam_lin) == schouten(lam0, lam_corr.scale(
        LaurentPoly.const(ctx.registry, -2)))
    # dropping the bivector correction breaks the first identity
    half = GaussianRational.of(1) / 2
    lam_lin_f = FormedMultiVector.of(lam_lin, sol.beta.dbar_vars)
    p14_raw = (schouten_formed(lam0f, lam_lin_f)
               + schouten_formed(lam_lin_f, lam_lin_f).scale(half))
    assert not p14_raw.is_zero()
    corr_f = FormedMultiVector.of(lam_corr, sol.beta.dbar_vars)
    assert p14_raw == schouten_formed(lam0f, -corr_f)
    # dropping the form correction breaks the mixed identity with the
    # displayed residual
    beta = sol.beta
    p15_raw = schouten_formed(lam0f, phi_lin) + schouten_formed(beta, phi_lin)
    assert not p15_raw.is_zero()
    assert schouten_formed(lam_lin_f, phi_lin) == schouten_formed(lam0f, -phi_corr)
    # mixed corrections cancel pairwise
    assert (schouten_formed(lam_lin_f, phi_corr)
            + schouten_formed(corr_f, phi_lin)).is_zero()
    assert schouten_formed(corr_f, phi_corr).is_zero()


def test_tp1_ks_matrix_full_rank(monkeypatch):
    columns = _tangent_columns(monkeypatch, lambda: tp1_classify(tp1_lambda0(2)))
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    assert len(rows) == 9
    from poissonlab.linalg import LabeledBasis, LinMap
    ctx = tp1_context()
    ks = LinMap(LabeledBasis("t", tuple(f"t{i}" for i in range(9))),
                LabeledBasis("H1", tuple(range(9))), rows, ctx.registry)
    assert generic_rank(ks) == 9


def test_tp1_classify():
    assert tp1_classify(tp1_lambda0(1)).verdict == OBSTRUCTED
    assert tp1_classify(tp1_lambda0(2)).verdict == UNOBSTRUCTED_MC
    cert3 = tp1_classify(tp1_lambda0(3))
    assert cert3.verdict == UNOBSTRUCTED_MC
    assert cert3.data == {"dim_h1": 9}
    # (A, B, C) = 0 leaves D dz1^dz2, a structure of class 1
    cert = tp1_classify(_tp1_point({"A": 0, "B": 0, "C": 0}))
    assert (cert.stratum, cert.verdict) == ("class-1", OBSTRUCTED)
    ctx = tp1_context()
    with pytest.raises(ConstraintViolation, match="bivector violates the Poisson identity"):
        tp1_classify(ctx.mv(ctx.xi(), ("z2", "xi")) + ctx.mv(ctx.const(1), ("z1", "xi")))


def test_tp1_class2_numeric_points():
    cert = tp1_classify(_tp1_point({"D": 0, "A": 1, "B": 0, "C": 0, "k": 0}))
    assert cert.verdict == UNOBSTRUCTED_MC
    cert = tp1_classify(_tp1_point({"D": 1, "A": 0, "B": 1, "C": 0, "k": 2}))
    assert cert.verdict == UNOBSTRUCTED_MC


def test_torus_dims():
    assert torus_dims(1) == 1
    assert torus_dims(2) == 5
    assert torus_dims(3) == 12
    assert torus_dims(2, {"b_1_2": 7}) == 5


# The bracket maps built straight from Schouten brackets of the whole
# bivector, one column per basis element: the reference the stored
# per-basis maps are summed against.

def _direct_ep1_maps(lam0):
    ctx = ep1_context()
    bases = ep1_bases(ctx)
    lam0f = FormedMultiVector.of(lam0, ctx.dbar)
    m_h0 = matrix_of_map(lambda x: schouten(lam0, x), bases["h0_theta"], bases["h0_sq"],
                         basis_coords(bases["h0_sq"]), ctx.registry)
    m_h1 = matrix_of_map(lambda x: schouten_formed(lam0f, x), bases["h1_theta"],
                         bases["h1_sq"], basis_coords(bases["h1_sq"]), ctx.registry)
    return m_h0, m_h1


def _direct_tp1_maps(lam0):
    ctx = tp1_context()
    bases = tp1_bases(ctx)
    lam0f = FormedMultiVector.of(lam0, ctx.dbar)
    m_h0 = matrix_of_map(lambda x: schouten(lam0, x), bases["h0_theta"], bases["h0_sq"],
                         basis_coords(bases["h0_sq"]), ctx.registry)
    m_sq_cube = matrix_of_map(lambda x: schouten(lam0, x), bases["h0_sq"], bases["h0_cube"],
                              basis_coords(bases["h0_cube"]), ctx.registry)
    m_h1 = matrix_of_map(lambda x: schouten_formed(lam0f, x), bases["h1_theta"],
                         bases["h1_sq"], basis_coords(bases["h1_sq"]), ctx.registry)
    return m_h0, m_sq_cube, m_h1


_TP1_POINTS = ({"D": 0, "A": 1, "B": 0, "C": 0, "k": 0},
               {"D": 1, "A": 0, "B": 1, "C": 0, "k": 2})


@pytest.mark.parametrize("abc", [(None, None, None), (0, 0, 0), (1, 0, 0), (0, 0, 5),
                                 (2, -3, 1)])
def test_ep1_summed_maps_equal_the_direct_brackets(abc):
    model = ep1_model(*abc)
    m_h0, m_h1 = _direct_ep1_maps(model.lam0)
    assert model.h0.rows == m_h0.rows
    assert model.h1.rows == m_h1.rows


@pytest.mark.parametrize("lam0", [lambda: tp1_lambda0(1), lambda: tp1_lambda0(2),
                                  lambda: tp1_lambda0(3)]
                         + [lambda point=point: _tp1_point(point) for point in _TP1_POINTS],
                         ids=[f"cls{k}" for k in range(5)])
def test_tp1_summed_maps_equal_the_direct_brackets(lam0):
    lam0 = lam0()
    model = tp1_model(lam0, "any")
    m_h0, m_sq_cube, m_h1 = _direct_tp1_maps(lam0)
    assert model.h0.rows == m_h0.rows
    sq_cube = obstruction._STORE["TxP1",][2]["sq_cube"]
    assert sq_cube.at(basis_coords(model.h0_sq)(lam0)).rows == m_sq_cube.rows
    assert model.h1.rows == m_h1.rows


def test_tp1_matrices_reject_a_bivector_outside_the_basis_span():
    ctx = tp1_context()
    with pytest.raises(NotInSpan):
        tp1_model(ctx.mv(ctx.param("z1"), ("z1", "z2")), "any")


def _tangents_reference(sol):
    """d/dt at t = 0, one parameter at a time."""
    reg = sol.lambda0.registry
    zero_t = {t: LaurentPoly.const(reg, 0) for t in sol.params}
    return [sol.element().map_coefficients(lambda p, t=t: p.partial(t).substitute(zero_t))
            for t in sol.params]


@pytest.mark.parametrize("sol", [
    lambda: ep1_mc_solution(ep1_model()),
    lambda: ep1_mc_solution(ep1_model(1, 2, 0)),
    lambda: tp1_mc_solution(_tp1_model(2)),
    lambda: tp1_mc_solution(tp1_model(_tp1_point(_TP1_POINTS[1]), "class-2")),
], ids=["ep1-symbolic", "ep1-numeric", "tp1-symbolic", "tp1-numeric"])
def test_tangents_equal_the_per_parameter_derivatives(sol):
    sol = sol()
    tangents = sol.tangents()
    assert len(tangents) == len(sol.params)
    assert tangents == _tangents_reference(sol)
    assert any(not t.is_zero() for t in tangents)


def test_zero_ep1_dimensions_come_from_the_h1_model(monkeypatch):
    assert ep1_classify(0, 0, 0).data == {"dim_h1": 7, "dim_h2": 3}

    class Shifted(DeformationComplexModel):
        dim_h1 = property(lambda self: DeformationComplexModel.dim_h1.fget(self) + 10)
        dim_h2 = property(lambda self: DeformationComplexModel.dim_h2.fget(self) + 20)

    monkeypatch.setattr(products_mod, "DeformationComplexModel", Shifted)
    assert ep1_classify(0, 0, 0).data == {"dim_h1": 17, "dim_h2": 23}


@pytest.mark.parametrize("lam0", [
    lambda: tp1_lambda0(1), lambda: tp1_lambda0(2), lambda: tp1_lambda0(3),
    lambda: _tp1_point({"D": 1, "A": 2, "B": 0, "C": -1, "k": 3}),
    lambda: _tp1_point({"D": 0, "A": 0, "B": 1, "C": 0, "k": 0}),
    lambda: tp1_context().zero(),
], ids=("class-1", "class-2", "class-3", "point", "point-d0", "zero"))
def test_tp1_h1_kernel_is_the_h0_kernel_in_each_block(lam0):
    # the H1 map is diag(m_h0, m_h0): the kernel the model is given equals,
    # vector for vector and in order, `kernel_basis` of the whole block matrix
    model = tp1_model(lam0(), "any")
    assert model.h1.n_rows == 14 and model.h1.n_cols == 10
    assert model.h1_kernel == kernel_basis(model.h1)
