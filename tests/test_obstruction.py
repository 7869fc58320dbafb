import random

import pytest

from poissonlab.expr import EvalContext, eval_str
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import Reducer
from poissonlab.multivector import (Chart, FormedMultiVector, MultiVector,
                                    schouten)
from poissonlab.obstruction import (OBSTRUCTED, UNDETERMINED, Certificate,
                                    DolbeaultModel, NotACocycle, class_is_zero,
                                    primary_obstruction, r4_search,
                                    verify_certificate)
from poissonlab.products import (ep1_bracket_matrices, ep1_context, ep1_dolbeault_model,
                                 ep1_mc_solution)
from poissonlab.ruled import RuledPoisson, complex_model, make_surface


def test_primary_obstruction_ep1_witness():
    model = ep1_dolbeault_model(0, 0, 0)
    ctx = ep1_context()
    lam = ctx.formed(ctx.mv(ctx.const(1), ("z", "xi")))
    theta = ctx.formed(ctx.mv(ctx.xi(), ("xi",)), ("z",))
    cls = primary_obstruction(model, lam, theta)
    assert not class_is_zero(cls)
    # the class is exactly 2[lam, theta] = 2 dz^dxi dzbar
    assert [str(p) for p in cls[(1, 2)]] == ["2", "0", "0"]


def test_primary_obstruction_vanishes_on_mc_tangent():
    # the first-order term of a verified solution has vanishing square class
    model = ep1_dolbeault_model()
    sol = ep1_mc_solution(ep1_bracket_matrices())
    ctx = ep1_context()
    reg = ctx.registry
    zero_t = {t: LaurentPoly.const(reg, 0) for t in sol.params}
    linear = None
    for tname in sol.params:
        piece = sol.element().map_coefficients(
            lambda p, tn=tname: p.partial(tn).substitute(zero_t)).scale(ctx.param(tname))
        linear = piece if linear is None else linear + piece
    lam_part = ctx.formed(linear.part(()))
    theta_part = linear - lam_part
    cls = primary_obstruction(model, lam_part, theta_part)
    assert class_is_zero(cls)


def test_primary_obstruction_quadratic_scaling():
    model = ep1_dolbeault_model(0, 0, 0)
    ctx = ep1_context()
    s = ctx.param("s")
    lam = ctx.formed(ctx.mv(ctx.const(1), ("z", "xi")))
    theta = ctx.formed(ctx.mv(ctx.xi(), ("xi",)), ("z",))
    base = primary_obstruction(model, lam, theta)
    scaled = primary_obstruction(model, lam.scale(s), theta.scale(s))
    for key, block in base.items():
        assert [p * s * s for p in block] == scaled[key]


def test_primary_obstruction_cocycle_guard():
    model = ep1_dolbeault_model()  # symbolic nonzero structure
    ctx = ep1_context()
    # on a surface every bivector is closed, but this form part is not
    lam = FormedMultiVector.zero(ctx.chart, ctx.registry, ctx.dbar)
    theta = ctx.formed(ctx.mv(ctx.xi(), ("xi",)), ("z",))
    with pytest.raises(NotACocycle):
        primary_obstruction(model, lam, theta)


def test_projective_space_demo():
    # a quadratic bivector on an affine chart of projective 3-space whose
    # self-bracket survives; with zero base structure the square class is
    # the self-bracket itself
    import itertools

    from poissonlab.rational import GaussianRational

    reg = VarRegistry(("x", "y", "u"), ())
    ch = Chart("P3-chart", ("x", "y", "u"))
    rng = random.Random(4)
    found = None
    for _ in range(50):
        comps = {}
        for idx in itertools.combinations(range(3), 2):
            terms = {}
            for _ in range(2):
                key = {}
                for vi in range(3):
                    e = rng.randint(0, 2)
                    if e:
                        key[vi] = e
                k = tuple(sorted(key.items()))
                terms[k] = terms.get(k, 0) + rng.randint(-2, 2)
            comps[idx] = LaurentPoly(
                reg, {k: GaussianRational(v) for k, v in terms.items() if v})
        lam = MultiVector(ch, reg, comps)
        sq = schouten(lam, lam)
        if not sq.is_zero():
            found = (lam, sq)
            break
    assert found is not None
    lam, sq = found

    def reduce_03(arg):
        key, piece = arg
        return [piece.coefficient(("x", "y", "u"))]

    model = DolbeaultModel("P3-demo", MultiVector.zero(ch, reg), (),
                           {(0, 3): Reducer("trivector coords", reduce_03)})
    cls = primary_obstruction(model, FormedMultiVector.of(lam, ()),
                              FormedMultiVector.zero(ch, reg, ()))
    assert not class_is_zero(cls)


def test_r4_search_certificates_and_reverify():
    rs = make_surface(6)
    zero = LaurentPoly.zero(rs.registry)
    pois = RuledPoisson(rs, zero, zero, rs.z(2))
    model = complex_model(rs, pois)
    cert = r4_search(model)
    assert cert.verdict == OBSTRUCTED
    # serialize, reload, re-verify through the expression parser
    text = cert.to_json()
    reloaded = Certificate.from_json(text)
    assert reloaded.witness == cert.witness
    ectx = EvalContext(rs.chart1, rs.registry, ())

    def parse_element(src):
        return eval_str(src, ectx).part(())

    assert verify_certificate(reloaded, model, parse_element)
    # tampering with the witness breaks re-verification
    bad = Certificate.from_json(text)
    bad.witness = dict(bad.witness)
    bad.witness["b"] = "z^2*@xi"
    assert not verify_certificate(bad, model, parse_element)


def test_r4_search_unobstructed_and_undetermined():
    rs = make_surface(3)
    zero = LaurentPoly.zero(rs.registry)
    model = complex_model(rs, RuledPoisson(rs, zero, zero, zero))
    assert r4_search(model).verdict == "unobstructed_h2_zero"
    from poissonlab.hopf import HopfType, deformation_model, model_for
    cert = r4_search(deformation_model(model_for(HopfType("IV")), "degenerate"))
    assert cert.verdict == UNDETERMINED


def test_h1_kernel_computed_once_per_search(monkeypatch):
    from poissonlab import linalg, obstruction, ruled
    searches, kernels = [], []
    real_search, real_kernel = obstruction.r4_search, linalg.kernel_basis

    def search(model):
        searches.append(model.h1_matrix is not None)
        return real_search(model)

    def kernel(m):
        kernels.append(m)
        return real_kernel(m)

    monkeypatch.setattr(ruled, "r4_search", search)
    monkeypatch.setattr(obstruction, "kernel_basis", kernel)
    monkeypatch.setattr(ruled, "kernel_basis", kernel)
    ruled.table1_sweep(12)
    assert len(searches) == 22
    assert len(kernels) == sum(searches) == 20



def test_r4_search_brackets_nothing_when_h2_is_zero(monkeypatch):
    from poissonlab import obstruction, ruled
    seen = []

    def search(model):
        brackets = []
        bracket = model.bracket
        model.bracket = lambda a, b: brackets.append(1) or bracket(a, b)
        cert = obstruction.r4_search(model)
        seen.append((model, cert.verdict, len(brackets)))
        return cert

    monkeypatch.setattr(ruled, "r4_search", search)
    ruled.table1_sweep(12)
    decided = [(model, verdict, n) for model, verdict, n in seen if model.h2_dim == 0]
    assert len(decided) == 13
    for model, verdict, n in decided:
        assert (verdict, n) == ("unobstructed_h2_zero", 0)
        # the fact the early return rests on: the H1 image is the whole window
        assert model.h1_image_space().rank == len(model.h1_sq)
    # the e = 0 rows still search, and find their witness by bracketing
    assert all(verdict == OBSTRUCTED and n > 0
               for model, verdict, n in seen if model.h2_dim > 0)

def test_certificate_json_round_trip_stable():
    cert = Certificate("F6", "e=0", OBSTRUCTED,
                       witness={"a": "xi*(@z^@xi)", "b": "(z^-1)*@xi"},
                       class_repr="(-z^-1)*(@z^@xi)")
    text = cert.to_json()
    assert Certificate.from_json(text).to_json() == text
