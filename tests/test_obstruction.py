import random

import pytest

from poissonlab import hopf, obstruction, products, ruled
from poissonlab.expr import EvalContext, eval_str
from poissonlab.hopf import (HopfType, deformation_model, h0_bracket_matrix,
                             m_bracket_matrix, model_for, stratum_bivector)
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import generic_rank
from poissonlab.multivector import (Chart, FormedMultiVector, MultiVector,
                                    schouten)
from poissonlab.obstruction import (OBSTRUCTED, UNDETERMINED, Certificate,
                                    DeformationComplexModel, DolbeaultModel, NotACocycle,
                                    class_is_zero, primary_obstruction, r4_search,
                                    verify_certificate)
from poissonlab.products import (ep1_classify, ep1_context, ep1_dolbeault_model,
                                 ep1_mc_solution, ep1_model, tp1_classify, tp1_dims,
                                 tp1_context, tp1_lambda0, tp1_model)
from poissonlab.ruled import (FAMILIES, KSDegenerate, RuledPoisson, complex_model,
                              make_surface, verify_family)
from hopf_cases import STRATA


def _mutable_state(module) -> list[str]:
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("__") and isinstance(value, (dict, list, set)))


def test_the_one_store_is_the_only_module_state(monkeypatch):
    # each geometry keeps its built objects here, not in module state of its own
    assert _mutable_state(obstruction) == ["_STORE"]
    assert _mutable_state(products) == _mutable_state(hopf) == []
    assert _mutable_state(ruled) == ["FAMILIES"]
    monkeypatch.setattr(obstruction, "_STORE", {})
    ep1_context(), tp1_context(), ruled.surface_for(5), model_for(HopfType("IIb"), 4)
    assert sorted(key[0] for key in obstruction._STORE) == ["ExP1", "F", "Hopf", "TxP1"]

    def fails():
        raise ValueError("no build")

    with pytest.raises(ValueError):
        obstruction.stored(("F", 0, ()), fails)
    assert ("F", 0, ()) not in obstruction._STORE


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
    sol = ep1_mc_solution(ep1_model())
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
                           {(0, 3): reduce_03})
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


@pytest.mark.parametrize("model, frame, want", [
    (lambda: ep1_model(0, 0, 0), ep1_context, ("(@z^@xi)", "xi*@xi*~z", "(@z^@xi)*~z")),
    (lambda: tp1_model(tp1_lambda0(1), "class-1"), tp1_context,
     ("(@z2^@xi)", "xi*@xi*~z1", "(@z2^@xi)*~z1")),
], ids=["ExP1", "TxP1"])
def test_r4_search_and_reverification_on_formed_models(model, frame, want):
    # the search brackets a global bivector with a formed first-cohomology field
    model, ctx = model(), frame()
    cert = r4_search(model)
    assert cert.verdict == OBSTRUCTED
    assert (cert.witness["a"], cert.witness["b"], cert.class_repr) == want
    assert verify_certificate(Certificate.from_json(cert.to_json()), model,
                              lambda src: eval_str(src, ctx))


@pytest.mark.parametrize("part, tampered", [("b", "@xi*~z"), ("b", "@z*~z"),
                                             ("a", "xi*(@z^@xi)")])
def test_a_tampered_ep1_witness_is_rejected(part, tampered):
    # each tampered pair brackets to no class outside the H1 bracket image
    model, ctx = ep1_model(0, 0, 0), ep1_context()
    bad = Certificate.from_json(r4_search(model).to_json())
    bad.witness = {**bad.witness, part: tampered}
    assert not verify_certificate(bad, model, lambda src: eval_str(src, ctx))


def test_search_and_reverification_share_one_image_space(monkeypatch):
    # the H1 image is eliminated once per model, like its kernel
    built, real = [], obstruction.image_space
    monkeypatch.setattr(obstruction, "image_space", lambda m: built.append(m) or real(m))
    rs = make_surface(6)
    zero = LaurentPoly.zero(rs.registry)
    model = complex_model(rs, RuledPoisson(rs, zero, zero, rs.z(2)))
    cert = r4_search(model)
    ectx = EvalContext(rs.chart1, rs.registry, ())
    assert cert.verdict == OBSTRUCTED
    assert verify_certificate(Certificate.from_json(cert.to_json()), model,
                              lambda src: eval_str(src, ectx).part(()))
    assert built == [model.h1]


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
        before = len(kernels)
        cert = real_search(model)
        searches.append(len(kernels) - before)
        return cert

    def kernel(m):
        kernels.append(m)
        return real_kernel(m)

    monkeypatch.setattr(ruled, "r4_search", search)
    monkeypatch.setattr(obstruction, "kernel_basis", kernel)
    ruled.table1_sweep(12)
    # every search has an H1 map, F0 and F1 one with no columns
    assert len(searches) == 22
    assert searches == [1] * 22
    assert len(kernels) == 22


def test_r4_search_brackets_nothing_when_h2_is_zero(monkeypatch):
    from poissonlab import obstruction, ruled
    seen, brackets = [], []
    real_bracket = obstruction.bracket

    def search(model):
        before = len(brackets)
        cert = obstruction.r4_search(model)
        seen.append((model, cert.verdict, len(brackets) - before))
        return cert

    monkeypatch.setattr(obstruction, "bracket",
                        lambda a, b: brackets.append(1) or real_bracket(a, b))
    monkeypatch.setattr(ruled, "r4_search", search)
    ruled.table1_sweep(12)
    decided = [(model, verdict, n) for model, verdict, n in seen if model.dim_h2 == 0]
    assert len(decided) == 13
    for model, verdict, n in decided:
        assert (verdict, n) == ("unobstructed_h2_zero", 0)
        # the fact the early return rests on: the H1 image is the whole window
        assert model.h1_image.rank == len(model.h1_sq)
    # the e = 0 rows still search, and find their witness by bracketing
    assert all(verdict == OBSTRUCTED and n > 0
               for model, verdict, n in seen if model.dim_h2 > 0)


def test_certificate_json_round_trip_stable():
    cert = Certificate("F6", "e=0", OBSTRUCTED,
                       witness={"a": "xi*(@z^@xi)", "b": "(z^-1)*@xi"},
                       class_repr="(-z^-1)*(@z^@xi)")
    text = cert.to_json()
    assert Certificate.from_json(text).to_json() == text


# one family each of ruled, ExP1 and TxP1: the check, the error it raises
# when the tangent directions do not fill H1, and the message
ONTO_CHECKS = {
    "ruled-f4": (lambda: verify_family(FAMILIES["f4"]()), KSDegenerate,
                 "the map onto first cohomology classes is not onto"),
    "ep1": (lambda: ep1_classify(None, None, None), AssertionError,
            "tangent map is not onto first cohomology"),
    "tp1": (lambda: tp1_classify(tp1_lambda0(2)), AssertionError,
            "tangent map does not fill the 9 directions"),
}


@pytest.mark.parametrize("name", sorted(ONTO_CHECKS))
def test_fills_rejects_a_tangent_column_replaced_by_a_copy(name, monkeypatch):
    check, error, message = ONTO_CHECKS[name]
    seen, real = [], DeformationComplexModel.fills
    monkeypatch.setattr(DeformationComplexModel, "fills",
                        lambda self, columns: seen.append((self, columns)) or real(self, columns))
    check()
    ((model, columns),) = seen
    assert len(columns) == model.dim_h1
    assert real(model, columns)
    assert not real(model, [columns[1]] + columns[1:])
    monkeypatch.setattr(DeformationComplexModel, "fills",
                        lambda self, columns: real(self, [columns[1]] + columns[1:]))
    with pytest.raises(error, match=message):
        check()


def test_table1_verdicts_build_no_h0_bracket_map(monkeypatch):
    from poissonlab import obstruction, ruled

    def refuse(*args):
        raise AssertionError("the H0 bracket map or its cokernel was built")

    monkeypatch.setattr(ruled, "h0_bracket_matrix", refuse)
    monkeypatch.setattr(obstruction, "cokernel_space", refuse)
    assert len(ruled.table1_sweep(12)) == 22


def _ruled_ranks(m, e_zero):
    """dim H2 of the model of F_m, symbolic in e (or e = 0) and f, and the
    corank of its H1 map by an independent rank."""
    rs = make_surface(m, ("e0", "e1", "e2") + tuple(f"f{j}" for j in range(m + 3)))
    zero = LaurentPoly.zero(rs.registry)
    f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(m + 3)), zero)
    e_sym = zero if e_zero else rs.param("e0") + rs.param("e1") * rs.z()
    model = complex_model(rs, RuledPoisson(rs, zero, e_sym, f_sym))
    return model.dim_h2, model.h1.n_rows - generic_rank(model.h1)


def _hopf_ranks(t, stratum):
    """(dim H0, dim H1, dim H2) of a Hopf stratum's model, and the same
    triple counted by the ranks of its two bracket maps."""
    cover = model_for(t)
    lam0 = stratum_bivector(cover.ctx, stratum)
    h0m, mm = h0_bracket_matrix(cover, lam0), m_bracket_matrix(cover, lam0)
    r0, r1 = generic_rank(h0m), generic_rank(mm)
    model = deformation_model(cover, stratum)
    return ((model.dim_h0, model.dim_h1, model.dim_h2),
            (h0m.n_cols - r0, (h0m.n_rows - r0) + (mm.n_cols - r1), mm.n_rows - r1))


def _tp1_dim_h1(class_id):
    model = tp1_model(tp1_lambda0(class_id), f"class-{class_id}")
    return tp1_dims(model)["dim_h1"], {1: 17, 2: 9}[class_id]


def _one_model_cases():
    cases = {f"F{m}-{'e=0' if e_zero else 'e!=0'}": (_ruled_ranks, m, e_zero)
             for m in range(7) for e_zero in (False, True)}
    cases.update({f"hopf-{t.tag}-{stratum}": (_hopf_ranks, t, stratum) for t, stratum in STRATA})
    cases.update({f"tp1-class-{c}": (_tp1_dim_h1, c) for c in (1, 2)})
    return cases


ONE_MODEL_CASES = _one_model_cases()


@pytest.mark.parametrize("case", ONE_MODEL_CASES)
def test_one_model_agrees_with_independent_ranks(case):
    count, *args = ONE_MODEL_CASES[case]
    got, reference = count(*args)
    assert got == reference
