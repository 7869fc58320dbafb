import random
from fractions import Fraction

import pytest

import poissonlab.hopf as hopf_mod
from poissonlab import cli, obstruction
from poissonlab.laurent import LaurentPoly
from poissonlab.linalg import (LabeledBasis, LinMap, NotInSpan, generic_rank, image_space,
                               kernel_basis, quotient_coords, quotient_space)
from poissonlab.multivector import combination, pushforward, schouten
from poissonlab.obstruction import OBSTRUCTED, UNDETERMINED
from poissonlab.hopf import (HopfType, MembershipFails, TruncationUnstable,
                             cover_model, d_membership, default_cap, deformation_model,
                             family_data, family_invariance, family_stratum,
                             h95_degeneracy, invariant_bivectors,
                             invariant_fields, make_context,
                             membership_pairs, model_for,
                             obstruction_certificate_hopf, stratum_bivector,
                             stratum_certificate, stratum_row, table4_basis)
import cover_matrices
from cover_matrices import cover_matrix, triangular_order, truncated_space
from hopf_cases import H95_CASES, STRATA, table6_pairs

ALL_TYPES = (HopfType("IV"), HopfType("III", 2), HopfType("IIa", 2),
             HopfType("IIb"), HopfType("IIc"))


def test_contractions_invert():
    for t in ALL_TYPES:
        ctx = make_context(t)
        ctx.contraction.check_inverse()


def test_invariant_field_dims_match_classification():
    expected = {"IV": 4, "III": 3, "IIa": 2, "IIb": 2, "IIc": 2}
    for t in ALL_TYPES:
        ctx = make_context(t)
        fields = invariant_fields(ctx, default_cap(t))
        assert len(fields) == expected[t.tag]


def test_invariant_bivector_bases():
    expected = {
        "IV": ["z^2*(@z^@w)", "z*w*(@z^@w)", "w^2*(@z^@w)"],
        "III": ["z*w*(@z^@w)", "w^3*(@z^@w)"],
        "IIa": ["w^3*(@z^@w)"],
        "IIb": ["w^2*(@z^@w)"],
        "IIc": ["z*w*(@z^@w)"],
    }
    for t in ALL_TYPES:
        ctx = make_context(t)
        bivs = invariant_bivectors(ctx, default_cap(t))
        assert [str(b) for b in bivs] == expected[t.tag]


def test_id_minus_fstar_diagonal_forms():
    # type IV, grade 1: diagonal entries 1 - alpha^(1 - mu - nu)
    t = HopfType("IV")
    ctx = make_context(t)
    space = truncated_space(ctx, 1, 3)
    mat = cover_matrix(ctx, space)
    al = ctx.param("alpha")
    one = ctx.const(1)
    for k, e in enumerate(space.basis):
        (idx, mono), = e.components.items()
        (mk, _), = mono.terms.items()
        kd = dict(mk)
        deg = kd.get(0, 0) + kd.get(1, 0)
        expected = one - al ** (1 - deg)
        assert mat.rows[k][k] == expected
        for j in range(mat.n_cols):
            if j != k:
                assert mat.rows[k][j].is_zero()
    # type IIc, grade 2: diagonal entries 1 - alpha^(1-mu) delta^(1-nu)
    t = HopfType("IIc")
    ctx = make_context(t)
    space = truncated_space(ctx, 2, 3)
    mat = cover_matrix(ctx, space)
    de = ctx.param("delta")
    al = ctx.param("alpha")
    one = ctx.const(1)
    for k, e in enumerate(space.basis):
        (idx, mono), = e.components.items()
        (mk, _), = mono.terms.items()
        kd = dict(mk)
        mu, nu = kd.get(0, 0), kd.get(1, 0)
        assert mat.rows[k][k] == one - al ** (1 - mu) * de ** (1 - nu)


def test_identity_contraction_gives_zero_map():
    from poissonlab.multivector import ChartMap

    t = HopfType("IV")
    ctx = make_context(t)
    space = truncated_space(ctx, 1, 2)
    z = ctx.z()
    w = ctx.w()
    ident = ChartMap(ctx.chart, ctx.chart, {"z": z, "w": w}, {"z": z, "w": w})
    for v in space.basis:
        assert (v - pushforward(ident, v)).is_zero()


def test_m1_m2_match_named_lists():
    expected_m1 = {
        "IV": ["z*@z", "w*@z", "z*@w", "w*@w"],
        "III": ["z*@z", "w^2*@z", "w*@w"],
        "IIa": ["(z*delta^2 - w^2)*@z", "w*@w"],
        "IIb": ["(z*alpha - w)*@z + w*alpha*@w", "(z*alpha - w)*@w"],
        "IIc": ["z*@z", "w*@w"],
    }
    for t in ALL_TYPES:
        model = model_for(t)
        assert [str(e) for e in model.m1] == expected_m1[t.tag]


def test_truncation_stability_at_higher_p():
    # the weight-0 blocks carry the whole model: their matrices, the M1/M2
    # representatives on them and their kernels are the same two caps higher
    for t in (HopfType(tag, p) for tag in ("III", "IIa") for p in (2, 3)):
        low = model_for(t)
        high = model_for(t, low.cap + 2)
        for a, b in ((low.block1, high.block1), (low.block2, high.block2)):
            assert a.domain.elements == b.domain.elements and a.rows == b.rows
        assert low.m1_space.reps == high.m1_space.reps
        assert low.m2_space.reps == high.m2_space.reps
        assert (low.fields, low.bivectors) == (high.fields, high.bivectors)


def test_degree_blocks_above_the_kernel_range_are_invertible():
    # grade-2 blocks: degree > 2 for IV/IIb, degree > p+1 otherwise
    for t in ALL_TYPES:
        ctx = make_context(t)
        cap = default_cap(t)
        space = truncated_space(ctx, 2, cap)
        mat = cover_matrix(ctx, space)
        threshold = 2 if t.tag in ("IV", "IIb") else ctx.p + 1
        degs = []
        for e in space.basis:
            (idx, mono), = e.components.items()
            (mk, _), = mono.terms.items()
            kd = dict(mk)
            degs.append(kd.get(0, 0) + kd.get(1, 0))
        for d in range(threshold + 1, cap + 1):
            rows = [i for i, dd in enumerate(degs) if dd == d]
            block = [[mat.rows[i][j] for j in rows] for i in rows]
            from poissonlab.linalg import LinMap, LabeledBasis
            sub = LinMap(LabeledBasis("c", tuple(range(len(rows)))),
                         LabeledBasis("r", tuple(range(len(rows)))),
                         block, ctx.registry)
            assert generic_rank(sub) == len(rows)


def test_dim_h0_sq_equals_dim_m2():
    for t in ALL_TYPES:
        ctx = make_context(t)
        cap = default_cap(t)
        assert len(invariant_bivectors(ctx, cap)) == len(model_for(t).m2)


TABLE5 = {
    ("IV", "zero"): (4, 7, 3),
    ("IV", "generic"): (2, 3, 1),
    ("III", "zero"): (3, 5, 2),
    ("III", "B"): (2, 3, 1),
    ("III", "A"): (2, 3, 1),
    ("IIa", "any"): (2, 3, 1),
    ("IIb", "any"): (2, 3, 1),
    ("IIc", "any"): (2, 3, 1),
}


def table5_dims(t, stratum):
    row = stratum_row(model_for(t), stratum)
    return row["dim_h0"], row["dim_h1"], row["dim_h2"]


def test_table5_dims():
    for t, stratum in STRATA:
        assert table5_dims(t, stratum) == TABLE5[(t.tag, stratum)]


def test_table5_alternating_sum_vanishes():
    for t, stratum in STRATA:
        h0, h1, h2 = table5_dims(t, stratum)
        assert h0 - h1 + h2 == 0


def test_table5_specializations_agree():
    # the generic type-IV stratum keeps its dimensions at special
    # nonzero points, including the discriminant-zero ones
    from poissonlab.hopf import h0_bracket_matrix, m_bracket_matrix
    model = model_for(HopfType("IV"))
    ctx = model.ctx
    for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 1)):
        lam0 = ctx.mv(ctx.const(a) * ctx.z(2) + ctx.const(b) * ctx.z() * ctx.w()
                      + ctx.const(c) * ctx.w(2), ("z", "w"))
        h0m = h0_bracket_matrix(model, lam0)
        mm = m_bracket_matrix(model, lam0)
        r0, r1 = generic_rank(h0m), generic_rank(mm)
        assert (h0m.n_cols - r0, (h0m.n_rows - r0) + (mm.n_cols - r1),
                mm.n_rows - r1) == (2, 3, 1)


def test_table4_all_rows():
    for t, stratum in STRATA:
        assert stratum_row(model_for(t), stratum)["automorphism_basis_verified"]


def test_table4_explicit_generic_iv():
    basis = table4_basis(make_context(HopfType("IV")), "generic")
    assert [str(b) for b in basis] == ["z*@z + w*@w", "(z*B + w*C)*@z - z*A*@w"]


def test_family_invariance_all_types():
    for t in ALL_TYPES:
        assert family_invariance(make_context(t))


def test_family_invariance_is_nontrivial():
    # perturbing the map breaks the identity
    t = HopfType("IIa", 2)
    ctx = make_context(t)
    lam, F, _, _ = family_data(ctx)
    F_bad = dict(F)
    F_bad["z"] = F["z"] + ctx.w()
    jac = (F_bad["z"].partial("z") * F_bad["w"].partial("w")
           - F_bad["z"].partial("w") * F_bad["w"].partial("z"))
    assert lam.substitute({"z": F_bad["z"], "w": F_bad["w"]}) != lam * jac


def test_d_membership_all_types():
    for t in ALL_TYPES + TYPES_AT_P:
        model = model_for(t)
        rep = d_membership(model)
        assert rep["h1_dim"] == deformation_model(model, family_stratum(t)).dim_h1 == 3


def test_d_membership_fails_on_wrong_field():
    t = HopfType("IV")
    ctx = make_context(t)
    lam_s = stratum_bivector(ctx, "generic")
    bad_field = ctx.mv(ctx.z(), ("w",))
    lhs = ctx.zero()
    rhs = schouten(lam_s, bad_field)
    assert lhs != rhs  # the membership equation fails
    orig = hopf_mod.membership_pairs

    def tampered(cctx):
        pairs = orig(cctx)
        return [(pairs[0][0], bad_field)] + pairs[1:]

    hopf_mod.membership_pairs = tampered
    try:
        with pytest.raises(MembershipFails):
            d_membership(model_for(t))
    finally:
        hopf_mod.membership_pairs = orig


@pytest.mark.parametrize("t", ALL_TYPES, ids=HopfType.label)
@pytest.mark.parametrize("tamper", ("duplicate-field", "zero-bivector"))
def test_d_membership_fails_when_the_classes_do_not_fill_h1(monkeypatch, t, tamper):
    # each tampered pair still solves (id - f_*)B = [lam_s, A] exactly, so
    # only the fills check can reject it
    real = hopf_mod.membership_pairs

    def tampered(ctx):
        pairs = real(ctx)
        if tamper == "duplicate-field":
            return [pairs[0], pairs[0], pairs[2]]
        return pairs[:2] + [(ctx.zero(), ctx.zero())]

    monkeypatch.setattr(hopf_mod, "membership_pairs", tampered)
    with pytest.raises(MembershipFails, match="do not fill H1"):
        d_membership(model_for(t))


def test_h95_degeneracies():
    assert h95_degeneracy("iv-discriminant-zero") is True
    assert h95_degeneracy("iii-b-nonzero") is True
    assert h95_degeneracy("iic-control") is False


def test_undetermined_certificates():
    for case in H95_CASES:
        t, stratum = hopf_mod._h95_stratum(case)
        cert = stratum_certificate(model_for(t), stratum)
        assert cert.verdict == UNDETERMINED


def test_obstruction_certificates():
    cert = obstruction_certificate_hopf(model_for(HopfType("IV")))
    assert cert.verdict == OBSTRUCTED
    assert cert.witness == {"a": "z^2*(@z^@w)", "b": "z*@z"}
    assert cert.class_repr == "-z^2*(@z^@w)"
    cert = obstruction_certificate_hopf(model_for(HopfType("III", 2)))
    assert cert.verdict == OBSTRUCTED
    assert cert.witness == {"a": "w^3*(@z^@w)", "b": "z*@z"}
    assert cert.class_repr == "w^3*(@z^@w)"
    with pytest.raises(ValueError, match="only obstructed for types IV and III"):
        obstruction_certificate_hopf(model_for(HopfType("IIc")))


def test_the_stratum_of_each_stratum_bivector_is_its_own():
    for t, stratum in STRATA + ((HopfType("IV"), "degenerate"),):
        model = model_for(t)
        lam = stratum_bivector(model.ctx, stratum)
        assert hopf_mod.stratum_of(model, model.bivector_coords(lam)) == stratum


@pytest.mark.parametrize("p", (2, 3, 5, cli.MAX_P))
def test_the_strata_name_the_five_types_in_tag_order(p):
    # `cli` reads the types of a p, for its tables and its family names, off strata(p)
    types = tuple(dict.fromkeys(t for t, _ in hopf_mod.strata(p)))
    assert tuple(t.tag for t in types) == hopf_mod.TYPE_TAGS
    assert all(t.p == (p if t.tag in ("III", "IIa") else None) for t in types)


@pytest.mark.parametrize("p", (2, 3, 5, cli.MAX_P))
def test_membership_pairs_are_the_table_6_pairs(p):
    # the pairs derived from the contraction family equal the ones the
    # paper lists, in value and as printed by `verify-family hopf-*`
    for t in dict.fromkeys(t for t, _ in hopf_mod.strata(p)):
        ctx = make_context(t)
        derived, listed = membership_pairs(ctx), table6_pairs(ctx)
        assert derived == listed
        assert [(str(b), str(a)) for b, a in derived] == [(str(b), str(a)) for b, a in listed]


def test_membership_equations_hold_exactly():
    for t in ALL_TYPES:
        ctx = make_context(t)
        lam_s = stratum_bivector(ctx, family_stratum(t))
        for bv, av in membership_pairs(ctx):
            assert (bv - pushforward(ctx.contraction, bv)) == schouten(lam_s, av)


def test_cover_models_build_no_matrix_wider_than_their_weight_0_blocks(monkeypatch):
    # id - f_* stays sparse columns: the only matrices a model builds, with
    # its invariant fields and bivectors, are its two weight-0 blocks
    from poissonlab.linalg import LinMap

    sizes = []
    real = LinMap.__init__

    def init(self, domain, codomain, rows, registry=None):
        sizes.append((len(domain), len(codomain)))
        real(self, domain, codomain, rows, registry)

    monkeypatch.setattr(obstruction, "_STORE", {})
    monkeypatch.setattr(LinMap, "__init__", init)
    for t in ALL_TYPES:
        sizes.clear()
        model = model_for(t, 30)
        model.fields, model.bivectors
        blocks = {(len(space.basis), len(space.basis)) for space in (model.space1,
                                                                     model.space2)}
        assert sizes and set(sizes) <= blocks


def test_cover_model_store_keys_on_type_and_cap():
    # every context of a type has the same registry, so the key needs none
    t = HopfType("IV")
    a, b = make_context(t), make_context(t)
    assert a.registry == b.registry == make_context(HopfType("IIc")).registry
    assert cover_model(a, 4) is cover_model(b, 4) is not cover_model(a, 5)
    fields = invariant_fields(b, 4)
    assert fields and all(f.registry == a.registry for f in fields)


def test_hopf_tables_build_each_cover_matrix_and_kernel_once(monkeypatch):
    from poissonlab import cli

    monkeypatch.setattr(obstruction, "_STORE", {})
    calls = {"id_minus_fstar": 0, "kernel_basis": 0}
    for name in calls:
        def counted(*args, _orig=getattr(hopf_mod, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(hopf_mod, name, counted)
    cli.hopf_tables(None, 2)
    # one grade-1 and one grade-2 matrix and kernel per Hopf type
    assert calls == {"id_minus_fstar": 10, "kernel_basis": 10}
    cli.hopf_tables(None, 2)
    assert calls == {"id_minus_fstar": 10, "kernel_basis": 10}


def test_hopf_tables_build_each_h0_bracket_matrix_once(monkeypatch):
    from poissonlab import cli

    monkeypatch.setattr(obstruction, "_STORE", {})
    built = []
    real = hopf_mod.h0_bracket_matrix
    monkeypatch.setattr(hopf_mod, "h0_bracket_matrix",
                        lambda *args: built.append(args) or real(*args))
    cli.hopf_tables(None, 2)
    # one per stratum: its ranks give both the triple and the automorphism check
    assert len(built) == len(hopf_mod.strata(2)) == 8
    # the stored complexes keep their maps
    cli.hopf_tables(None, 2)
    assert len(built) == 8


def test_report_builds_each_stratum_bracket_map_once(monkeypatch):
    import io
    from contextlib import redirect_stdout

    from poissonlab import cli

    monkeypatch.setattr(obstruction, "_STORE", {})
    built = {"h0_bracket_matrix": 0, "m_bracket_matrix": 0}
    for name in built:
        def counted(*args, _orig=getattr(hopf_mod, name), _name=name):
            built[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(hopf_mod, name, counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--m-max", "4"]) == 0
    # the family checks read the complexes the cohomology rows built
    assert built == {"h0_bracket_matrix": 8, "m_bracket_matrix": 8}


def test_repeated_family_classify_verifies_the_family_once(monkeypatch):
    import io
    from contextlib import redirect_stdout

    from poissonlab import cli

    monkeypatch.setattr(obstruction, "_STORE", {})
    calls = []
    real = hopf_mod.d_membership
    monkeypatch.setattr(hopf_mod, "d_membership",
                        lambda model: calls.append(model) or real(model))
    argv = ["classify", "hopf:IIc", "--poisson", "z*w*@z^@w"]
    outs = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        outs.append(out.getvalue())
        assert len(calls) == 1
    assert outs[0] == outs[1]


def test_each_stratum_verdict_is_searched_once_per_model(monkeypatch):
    import io
    from contextlib import redirect_stdout

    monkeypatch.setattr(obstruction, "_STORE", {})
    searched = []
    real = hopf_mod.r4_search
    monkeypatch.setattr(hopf_mod, "r4_search",
                        lambda model: searched.append((model.name, model.stratum)) or real(model))
    requests = [["classify", "hopf:III:p=2", "--poisson", "3*w^3*@z^@w"],
                ["classify", "hopf:IV", "--poisson", "(z^2 + 2*z*w + w^2)*@z^@w"],
                ["classify", "hopf:III:p=2", "--poisson", "(-1)*w^3*@z^@w"],
                ["classify", "hopf:IV", "--poisson", "z^2*@z^@w"]]
    outs = []
    for argv in requests * 2:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        outs.append(out.getvalue())
    assert searched == [("Hopf III(p=2)", "B"), ("Hopf IV", "4AC-B^2=0")]
    assert outs[:4] == outs[4:] and all(UNDETERMINED in out for out in outs)


def test_a_stored_verdict_is_never_changed_by_its_requests(monkeypatch):
    import io
    from contextlib import redirect_stdout

    monkeypatch.setattr(obstruction, "_STORE", {})
    argv = ["classify", "hopf:IV", "--poisson", "(4*z^2 + 4*z*w + w^2)*@z^@w"]
    outs = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        outs.append(out.getvalue())
    stored = model_for(HopfType("IV")).certificates["degenerate"]
    assert outs[0] == outs[1] == stored.to_json() + "\n"
    assert stored.data == {} and stored.verdict == UNDETERMINED


def test_the_model_store_is_the_only_module_state():
    assert not hasattr(hopf_mod, "_CONTEXT_CACHE")
    mutable = [name for name, value in vars(hopf_mod).items()
               if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert mutable == []
    # contexts are built fresh; equal ones still share one model from the one store
    t = HopfType("IIb")
    a, b = make_context(t), make_context(t)
    assert a is not b and a == b
    assert cover_model(a, 4) is cover_model(b, 4) is model_for(t, 4)
    assert obstruction._STORE["Hopf", t, 4] is model_for(t, 4)


def test_invariant_lists_do_not_share_the_model_copy():
    ctx = make_context(HopfType("IIc"))
    cap = default_cap(HopfType("IIc"))
    fields = invariant_fields(ctx, cap)
    fields.clear()
    bivs = invariant_bivectors(ctx, cap)
    bivs.append(bivs[0])
    assert [str(f) for f in invariant_fields(ctx, cap)] == ["z*@z", "w*@w"]
    assert [str(b) for b in invariant_bivectors(ctx, cap)] == ["z*w*(@z^@w)"]


# the five types, the resonant ones at p = 2, 3, 5
TYPES_AT_P = (HopfType("IV"), HopfType("IIb"), HopfType("IIc"),
              *(HopfType(tag, p) for tag in ("III", "IIa") for p in (2, 3, 5)))
# zero diagonal entries of id - f_* on grade 1 and grade 2, once the cap
# reaches every resonant monomial (degree p + 1)
ZERO_DIAGONALS = {"IV": (4, 3), "III": (3, 2), "IIa": (3, 2), "IIb": (4, 3), "IIc": (2, 1)}


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_cover_matrices_are_triangular_up_to_a_permutation(t):
    ctx = make_context(t)
    for cap in range(3, 13):
        for grade in (1, 2):
            mat = cover_matrix(ctx, truncated_space(ctx, grade, cap))
            order = triangular_order(mat)
            assert sorted(order) == list(range(mat.n_rows))
            pos = {j: k for k, j in enumerate(order)}
            # an order with every nonzero entry on or above the diagonal
            # exists exactly when the off-diagonal pattern is acyclic
            assert all(pos[i] <= pos[j] for i, row in enumerate(mat.rows)
                       for j, entry in enumerate(row) if not entry.is_zero())
            if cap >= ctx.p + 1:
                zeros = sum(mat.rows[k][k].is_zero() for k in range(mat.n_rows))
                assert zeros == ZERO_DIAGONALS[t.tag][grade - 1]


# size of the weight-0 block on grade 1 and grade 2, once the cap reaches
# every resonant monomial (degree p + 1)
WEIGHT0_SIZES = {"IV": (4, 3), "III": (3, 2), "IIa": (3, 2), "IIb": (4, 3), "IIc": (4, 3)}


def _weight(t, comp, mu, nu):
    """wt(z) mu + wt(w) nu - wt(frame), wt(z) = p and wt(w) = 1 for III and IIa."""
    wt = (t.p, 1) if t.tag in ("III", "IIa") else (1, 1)
    return wt[0] * mu + wt[1] * nu - sum(wt[i] for i in comp)


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_cover_matrices_are_block_diagonal_by_weight(t):
    # the facts the cover models rest on: no entry joins two weights, every
    # diagonal entry off weight 0 is nonzero, and the weight-0 block has a
    # size that does not depend on the cap; a model's weight-0 space lists
    # the weight-0 fields in the order of the whole space
    ctx = make_context(t)
    for cap in range(3, 13):
        for grade in (1, 2):
            space = truncated_space(ctx, grade, cap)
            mat = cover_matrix(ctx, space)
            weights = []
            for k, e in enumerate(space.basis):
                (comp, mono), = e.components.items()
                (key, _), = mono.terms.items()
                kd = dict(key)
                assert space.index[comp, kd.get(0, 0), kd.get(1, 0)] == k
                weights.append(_weight(t, comp, kd.get(0, 0), kd.get(1, 0)))
            assert space.weights == tuple(weights)
            assert all(weights[i] == weights[j] for i, row in enumerate(mat.rows)
                       for j, entry in enumerate(row) if entry.terms)
            assert all(mat.rows[k][k].terms for k in range(mat.n_rows) if weights[k])
            if cap >= ctx.p + 1:
                assert len(space.resonant) == WEIGHT0_SIZES[t.tag][grade - 1]
            w0 = hopf_mod.weight0_space(ctx, grade, cap)
            assert w0.basis.elements == tuple(space.basis[k] for k in space.resonant)
            assert list(w0.index) == [key for key, k in space.index.items() if not weights[k]]


def _rank_at(columns, name, value):
    """The rank over Q of columns of real polynomials in the parameter
    `name` alone, at name = `value`, by Gaussian elimination on Fractions."""
    idx = columns[0][0].registry.index(name)
    assert all(c.im == 0 for col in columns for p in col for c in p.terms.values())
    rows = [[sum(c.re * Fraction(value) ** dict(key).get(idx, 0) for key, c in p.terms.items())
             for p in col] for col in columns]
    rank = 0
    for k in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][k]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][k] / rows[rank][k]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_a_dense_target_reduces_against_eight_columns_of_a_weight_block():
    # the weight-7 block of IIb, grade 2, cap 12, from the oracle's checked
    # columns: reducing an integer target against its first 8 columns once
    # took seconds, the remainders of univar_gcd swelling in Euclid's algorithm
    ctx = make_context(HopfType("IIb"))
    space = truncated_space(ctx, 2, 12)
    cols = cover_matrices.id_minus_fstar(ctx, space)
    rows = [k for k, wt in enumerate(space.weights) if wt == 7]
    zero = LaurentPoly.zero(ctx.registry)
    block = [[cols[j].get(i, zero) for i in rows] for j in rows]
    assert len(block) == 10 and all(p.uses_only(("alpha",)) for col in block for p in col)
    image = quotient_space(block[:8], (), 10, ctx.registry)
    target = [ctx.const(k + 1) for k in range(10)]
    # rank 9 at alpha = 2 makes the 8 columns and the target independent
    # over Q(alpha) too, since a nonzero minor at a point is a nonzero minor
    assert _rank_at(block[:8] + [target], "alpha", 2) == 9
    assert not image.contains(target)
    combined = [sum((ctx.const(j + 1) * block[j][i] for j in range(8)), zero) for i in range(10)]
    assert image.contains(combined)


@pytest.mark.parametrize("corruption", ("join", "diagonal", "cycle"))
def test_a_corrupted_cover_matrix_raises_before_elimination(monkeypatch, corruption):
    # an entry joining two weights, a zero diagonal entry off weight 0 or a
    # cycle in the nonzero pattern would leave a block that may be singular:
    # the lemma's oracle checks all three on the whole operator, and a
    # model checks that its weight-0 block joins no other weight
    t = HopfType("IIa", 2)
    real = cover_matrices.cover_columns

    def corrupted(ctx, space, images):
        cols = real(ctx, space, images)
        wts = space.weights
        # a column off weight 0 with an entry off its diagonal
        j, i = next((j, i) for j, col in enumerate(cols) if wts[j] for i in col if i != j)
        if corruption == "join":
            cols[j][wts.index(wts[j] + 1)] = ctx.const(1)
        elif corruption == "diagonal":
            del cols[j][j]
        else:
            cols[i][j] = ctx.const(1)
        return cols

    kernels = []
    monkeypatch.setattr(cover_matrices, "cover_columns", corrupted)
    monkeypatch.setattr(cover_matrices, "kernel_basis", lambda *args: kernels.append(args))
    message = {"join": "joins two weights", "diagonal": "zero diagonal entry off weight 0",
               "cycle": "not triangular"}[corruption]
    with pytest.raises(RuntimeError, match=message):
        cover_matrices.full_kernel(make_context(t), 1, default_cap(t))
    assert not kernels
    if corruption == "join":
        real_push = hopf_mod.pushforward

        def joined(cm, v):
            # a constant coefficient sends z*@z onto the bare frame @z, of
            # weight -p, and each weight-0 field onto its bare frame
            bare = v.map_coefficients(lambda poly: LaurentPoly.one(poly.registry))
            return real_push(cm, v) + bare

        monkeypatch.setattr(obstruction, "_STORE", {})
        monkeypatch.setattr(hopf_mod, "pushforward", joined)
        monkeypatch.setattr(hopf_mod, "kernel_basis", lambda *args: kernels.append(args))
        with pytest.raises(RuntimeError, match=message):
            model_for(t).fields
        assert not kernels


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_triangular_kernels_equal_kernel_basis(t):
    ctx = make_context(t)
    for cap in range(max(hopf_mod.MIN_CAP, ctx.p + 1), 13):
        model = cover_model(ctx, cap)
        for found, grade in ((model.fields, 1), (model.bivectors, 2)):
            assert list(found) == cover_matrices.full_kernel(ctx, grade, cap)


def _class_or_error(reduce, v):
    try:
        return reduce(v)
    except NotInSpan as exc:
        return str(exc)


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_ordered_quotients_equal_unordered_ones(t):
    # class reduction through the weight-0 blocks, eliminated in their
    # triangular orders, equals reduction against the whole image
    ctx = make_context(t)
    model = cover_model(ctx, default_cap(t) + 1)
    for grade, ordered, reps in ((1, model.m1_space, model.m1), (2, model.m2_space, model.m2)):
        space = truncated_space(ctx, grade, model.cap)
        mono = cover_matrices.mono_coords(ctx, space)
        plain = image_space(cover_matrix(ctx, space))
        for rep in reps:
            plain.add(mono(rep), rep=True)
        n = len(space.basis)
        assert plain.rank == ordered.rank + n - ordered.dim
        for v in space.basis:
            assert (_class_or_error(model.reduce_m(grade), v)
                    == _class_or_error(lambda v: quotient_coords(plain, mono(v)), v))


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_reductions_drop_terms_off_weight_0_as_the_whole_image_does(t):
    # a field with terms at every weight has the class the whole image
    # gives it, at every cap where the model validates
    ctx = make_context(t)
    rng = random.Random(t.label())
    for cap in range(3, 13):
        try:
            model = cover_model(ctx, cap)
        except TruncationUnstable:
            assert cap < ctx.p + 1
            continue
        for grade, reps in ((1, model.m1), (2, model.m2)):
            space = truncated_space(ctx, grade, cap)
            classes = cover_matrices.full_classes(ctx, space, reps)
            for _ in range(2):
                coeffs = [ctx.const(rng.randint(-3, 3)) for _ in space.basis]
                coeffs[-1] = ctx.const(1)  # the top field, of weight cap - p or more
                v = combination(coeffs, space.basis)
                assert model.reduce_m(grade)(v) == classes(v)


@pytest.mark.parametrize("t", TYPES_AT_P, ids=HopfType.label)
def test_id_minus_fstar_equals_the_pushforward_of_each_basis_field(t):
    # the oracle's matrix, built from pushed frames and monomial images,
    # equals, column by column, v - f_* v pushed forward whole and truncated
    # at the cap; so does the model's weight-0 block, which has no term off
    # weight 0
    ctx = make_context(t)
    for cap in range(3, 13):
        for grade in (1, 2):
            space = truncated_space(ctx, grade, cap)
            mat = cover_matrix(ctx, space)
            red = cover_matrices.mono_coords(ctx, space)
            for j, v in enumerate(space.basis):
                image = _truncate(pushforward(ctx.contraction, v), cap)
                assert mat.column(j) == red(v - image)
            w0 = hopf_mod.weight0_space(ctx, grade, cap)
            block = hopf_mod.id_minus_fstar(ctx, w0)
            red0 = hopf_mod.mono_coords(ctx, w0, "off weight 0")
            for j, v in enumerate(w0.basis):
                image = _truncate(pushforward(ctx.contraction, v), cap)
                assert block.column(j) == red0(v - image)


def _truncate(mv, cap):
    """The terms of `mv` of total (z, w) degree at most `cap`."""
    return mv.map_coefficients(lambda poly: hopf_mod._low_degree(poly, cap))


# the five types, the resonant ones at p = 2, 3, 5 and at the CLI's largest p
LEMMA_TYPES = (HopfType("IV"), HopfType("IIb"), HopfType("IIc"),
               *(HopfType(tag, p) for tag in ("III", "IIa") for p in (2, 3, 5, cli.MAX_P)))
# caps up to the CLI's largest, on both sides of p + 1 for each p
LEMMA_CAPS = (3, 4, 5, 6, 7, 12, 22, 30, cli.MAX_P, cli.MAX_P + 1, cli.MAX_CAP)


@pytest.mark.parametrize("t", LEMMA_TYPES, ids=HopfType.label)
def test_the_block_lemma_holds_on_the_whole_truncated_operator(t):
    # the whole operator, as sparse columns, joins no two weights, has no
    # zero diagonal entry off weight 0 and an acyclic pattern (checked as it
    # is built).  So each block off weight 0 is triangular with a nonzero
    # diagonal, hence invertible, and the whole operator has the kernel and
    # the cokernel of its weight-0 block, which must be the model's
    ctx = make_context(t)
    for cap in LEMMA_CAPS:
        try:
            model = cover_model(ctx, cap)
        except TruncationUnstable:
            model = None
        valid = True
        for grade, named in zip((1, 2), hopf_mod._named_m_reps(ctx)):
            space = truncated_space(ctx, grade, cap)
            cols = cover_matrices.id_minus_fstar(ctx, space)
            mono = cover_matrices.mono_coords(ctx, space)
            res = space.resonant
            basis = LabeledBasis(f"grade {grade}, weight 0", tuple(space.basis[k] for k in res))
            block = LinMap(basis, basis, cover_matrices.weight0_block(ctx, space, cols),
                           ctx.registry)
            assert hopf_mod.weight0_space(ctx, grade, cap).basis.elements == basis.elements
            kernel = [combination(v, basis) for v in kernel_basis(block)]
            for v in kernel:
                # killed by every column of the whole operator
                image = {}
                for j, c in enumerate(mono(v)):
                    for i, entry in cols[j].items() if c.terms else ():
                        image[i] = image.get(i, 0) + entry * c
                assert all(x.is_zero() for x in image.values())
            quot = image_space(block)
            ok = len(res) - quot.rank == len(named)
            for rep in named if ok else ():
                try:
                    coords = mono(rep)
                    quot.add([coords[k] for k in res], rep=True)
                except NotInSpan:
                    ok = False
            valid = valid and ok
            if model is not None:
                found, ours, ours_quot = ((model.fields, model.block1, model.m1_space)
                                          if grade == 1 else
                                          (model.bivectors, model.block2, model.m2_space))
                assert ours.rows == block.rows
                assert list(found) == kernel
                assert ours_quot.reps == quot.reps
        assert (model is not None) == valid
        assert valid or cap < ctx.p + 1


@pytest.mark.parametrize("t", ALL_TYPES, ids=HopfType.label)
def test_bivector_coords_reject_terms_off_weight_0_and_above_the_cap(t):
    model = model_for(t)
    ctx = model.ctx
    lam = model.bivectors[-1]
    assert model.bivector_coords(lam)[-1] == ctx.const(1)
    # z*@z^@w weighs 1 - wt(z) - wt(w) = -p
    off = lam + ctx.mv(ctx.z(), ("z", "w"))
    with pytest.raises(NotInSpan, match="bivector has a term off weight 0"):
        model.bivector_coords(off)
    # w^(cap+1)*@z^@w weighs cap - p, off weight 0 at every cap: that is
    # the reason given, before the cap; without the message, the reducer
    # drops a term off weight 0 only up to the cap
    high = ctx.mv(ctx.w(model.cap + 1), ("z", "w"))
    plain = hopf_mod.mono_coords(ctx, model.space2)
    for v in (lam + high, off + high):
        with pytest.raises(NotInSpan, match="bivector has a term off weight 0"):
            model.bivector_coords(v)
        with pytest.raises(NotInSpan, match="field not inside the truncated monomial space"):
            plain(v)
    # a negative exponent is outside the monomial space at every weight
    with pytest.raises(NotInSpan, match="field not inside the truncated monomial space"):
        model.bivector_coords(off + ctx.mv(ctx.w(-1), ("z", "w")))


def test_an_automorphism_basis_with_a_field_off_weight_0_is_not_verified(monkeypatch):
    # every field kills the zero structure of type IV; a field with a term
    # off weight 0 is not invariant, though the basis stays free
    model = model_for(HopfType("IV"))
    assert stratum_row(model, "zero")["automorphism_basis_verified"]
    real = hopf_mod.table4_basis

    def tampered(ctx, stratum):
        basis = real(ctx, stratum)
        return basis[:-1] + [basis[-1] + ctx.mv(ctx.z(2), ("z",))]

    monkeypatch.setattr(hopf_mod, "table4_basis", tampered)
    assert not stratum_row(model, "zero")["automorphism_basis_verified"]


def test_hopf_tables_push_each_weight0_field_once(monkeypatch):
    from poissonlab import cli

    monkeypatch.setattr(obstruction, "_STORE", {})
    calls = {"id_minus_fstar": 0, "pushforward": 0}
    for name in calls:
        def counted(*args, _orig=getattr(hopf_mod, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(hopf_mod, name, counted)
    cli.hopf_tables(None, 2)
    # one pushforward per weight-0 field of each grade, in each of five models
    fields = sum(len(model.space1.basis) + len(model.space2.basis)
                 for model in map(model_for, dict.fromkeys(t for t, _ in hopf_mod.strata(2))))
    assert calls == {"id_minus_fstar": 10, "pushforward": fields}
    cli.hopf_tables(None, 2)
    assert calls == {"id_minus_fstar": 10, "pushforward": fields}


def test_zero_structure_certificate_brackets_only_its_witness(monkeypatch):
    # with the cover model built, the certificate behind
    # `classify hopf:IV --poisson "0*@z^@w"` brackets and reduces the witness
    # pair once and builds no M1 -> M2 bracket matrix
    import io
    import json
    from contextlib import redirect_stdout

    from poissonlab import cli

    argv = ["classify", "hopf:IV", "--poisson", "0*@z^@w"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # the first request stored the verdict on the model: drop it, so the
    # next request builds it again on the built model
    model_for(HopfType("IV")).certificates.clear()
    calls = {"schouten": 0, "quotient_coords": 0}
    inside = []
    for name in calls:
        def counted(*args, _orig=getattr(hopf_mod, name), _name=name):
            calls[_name] += bool(inside)
            return _orig(*args)
        monkeypatch.setattr(hopf_mod, name, counted)

    def certificate(*args, _orig=hopf_mod.obstruction_certificate_hopf):
        inside.append(True)
        try:
            return _orig(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(hopf_mod, "obstruction_certificate_hopf", certificate)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    doc = json.loads(out.getvalue())
    assert (doc["manifold"], doc["verdict"], doc["class"]) == (
        "Hopf IV", OBSTRUCTED, "-z^2*(@z^@w)")
    assert calls == {"schouten": 1, "quotient_coords": 1}
