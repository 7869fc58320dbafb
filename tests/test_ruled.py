import random

import pytest

from poissonlab.laurent import LaurentPoly
from poissonlab.linalg import NotInSpan, generic_rank, matrix_of_map
from poissonlab.multivector import MultiVector, pushforward, schouten
from poissonlab.obstruction import OBSTRUCTED, UNOBSTRUCTED_H2_ZERO, NotACocycle
from poissonlab.ruled import (FAMILIES, NotObstructedStratum,
                              RationalPartSurvives, RuledPoisson, complex_model,
                              bases_for, h1_bracket_matrix, h_bases, hyper_h1,
                              lemma_r4_certificate, make_surface,
                              poisson_from_bivector, reduce_h1_sq, split_sq,
                              split_theta, surface_for, table1_sweep,
                              table1_verdict, verify_family)
import poissonlab.ruled as ruled_mod
from ruled_cochains import cech_square, random_cocycle, random_poisson


def zero(rs):
    return LaurentPoly.zero(rs.registry)


def h_dims(m: int) -> tuple[int, int, int, int]:
    b = h_bases(make_surface(m))
    return (len(b["h0_theta"]), len(b["h0_sq"]), len(b["h1_theta"]), len(b["h1_sq"]))


def test_h_dims_against_formulas():
    assert h_dims(0) == (6, 9, 0, 0)
    assert h_dims(2) == (7, 9, 1, 0)
    assert h_dims(5) == (10, 11, 4, 2)
    for m in range(11):
        t, sq, h1t, h1sq = h_dims(m)
        assert t == (6 if m == 0 else m + 5)
        assert sq == (9 if m <= 2 else m + 6)
        assert h1t == max(m - 1, 0)
        assert h1sq == max(m - 3, 0)


def test_basis_elements_extend_to_second_chart():
    for m in (0, 1, 3, 5):
        rs = make_surface(m)
        bases = h_bases(rs)
        for v in list(bases["h0_theta"]) + list(bases["h0_sq"]):
            pushed = pushforward(rs.transition, v)
            for poly in pushed.components.values():
                assert poly.is_holomorphic(("zp", "xip"))


def test_h1_theta_pushforward_normal_form():
    # z^-k d/dxi expressed on the second chart is z'^(k-m) d/dxi'
    for m in (2, 4, 6):
        rs = make_surface(m)
        for k in range(1, m):
            v = rs.mv(rs.z(-k), ("xi",))
            pushed = pushforward(rs.transition, v)
            zp = LaurentPoly.var(rs.registry, "zp")
            want = MultiVector.term(rs.chart2, rs.registry, zp ** (k - m), ("xip",))
            assert pushed == want


def test_split_reconstructs_and_parts_live_on_their_charts():
    rs = make_surface(5)
    v = (rs.mv(rs.z(-2) + rs.z(3), ("z",))
         + rs.mv(rs.z(-4) + rs.z(-2) + rs.const(7) + rs.z(-1) * rs.xi()
                  + rs.z(-3) * rs.xi(2), ("xi",)))
    p1, p2, window = split_theta(rs, v)
    rebuilt = p1 + p2
    for k, coeff in window.items():
        rebuilt = rebuilt + rs.mv(coeff * rs.z(-k), ("xi",))
    assert rebuilt == v
    assert set(window) == {2, 4}
    for poly in p1.components.values():
        assert poly.is_holomorphic(("z",))
    pushed = pushforward(rs.transition, p2)
    for poly in pushed.components.values():
        assert poly.is_holomorphic(("zp", "xip"))


def test_split_sq_windows():
    rs = make_surface(6)
    v = rs.mv(rs.z(-1) + rs.z(-3) + rs.z(-5) + rs.z(2), ("z", "xi"))
    p1, p2, window = split_sq(rs, v)
    assert set(window) == {1, 3}
    pushed = pushforward(rs.transition, p2)
    for poly in pushed.components.values():
        assert poly.is_holomorphic(("zp", "xip"))


def test_reduce_rejects_malformed_sections():
    rs = make_surface(4)
    bad = rs.mv(rs.xi(3), ("xi",))
    with pytest.raises(NotInSpan):
        split_theta(rs, bad)
    bad2 = rs.mv(rs.xi() * rs.z(), ("z",))
    with pytest.raises(NotInSpan):
        split_theta(rs, bad2)


def test_banded_matrix_shape():
    rs = make_surface(7, ("e0", "e1", "e2"))
    e = rs.param("e0") + rs.param("e1") * rs.z() + rs.param("e2") * rs.z(2)
    pois = RuledPoisson(rs, zero(rs), e, zero(rs))
    mat = h1_bracket_matrix(rs, h_bases(rs), pois)
    # the bracket map matrix is minus the shifted coefficient band
    for i in range(mat.n_rows):
        for j in range(mat.n_cols):
            want = {i: "-e0", i + 1: "-e1", i + 2: "-e2"}.get(j, "0")
            assert str(mat.rows[i][j]) == want
    assert generic_rank(mat) == 4


@pytest.mark.parametrize("m", range(4, ruled_mod.MAX_M + 1))
def test_h1_bracket_matrix_is_banded_toeplitz_in_e(m):
    # on the stored F_m with symbolic e and f, [lam0, -] on the H1 windows
    # is the (m-3) x (m-1) matrix whose row j holds -e0, -e1, -e2 in
    # columns j, j+1, j+2; f drops out
    rs = surface_for(m, ("e0", "e1", "e2") + tuple(f"f{j}" for j in range(m + 3)))
    e = [rs.param(f"e{k}") for k in range(3)]
    e_sym = e[0] + e[1] * rs.z() + e[2] * rs.z(2)
    f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(m + 3)), zero(rs))
    mat = h1_bracket_matrix(rs, bases_for(rs), RuledPoisson(rs, zero(rs), e_sym, f_sym))
    want = [[-e[col - row] if 0 <= col - row <= 2 else zero(rs) for col in range(m - 1)]
            for row in range(m - 3)]
    assert [list(r) for r in mat.rows] == want


@pytest.mark.parametrize("e_zero", (False, True), ids=("symbolic-e", "e=0"))
@pytest.mark.parametrize("m", range(ruled_mod.MAX_M + 1))
def test_h1_bracket_matrix_equals_the_full_bracket(m, e_zero):
    # h1_bracket_matrix brackets only the xi-degree <= 1 part of lam0; the
    # reference brackets the whole lam0 = (d + e xi + f xi^2) dz ^ dxi with
    # symbolic d (where its degree cap 2 - m allows one), e and f
    d_names = tuple(f"d{k}" for k in range(3 - m))
    f_names = tuple(f"f{j}" for j in range(m + 3))
    rs = surface_for(m, d_names + ("e0", "e1", "e2") + f_names)
    d_sym = sum((rs.param(name) * rs.z(k) for k, name in enumerate(d_names)), zero(rs))
    e_sym = (zero(rs) if e_zero else
             rs.param("e0") + rs.param("e1") * rs.z() + rs.param("e2") * rs.z(2))
    f_sym = sum((rs.param(name) * rs.z(j) for j, name in enumerate(f_names)), zero(rs))
    pois = RuledPoisson(rs, d_sym, e_sym, f_sym)
    lam0 = pois.bivector()
    bases = bases_for(rs)
    full = matrix_of_map(lambda b: schouten(lam0, b), bases["h1_theta"], bases["h1_sq"],
                         reduce_h1_sq(rs), rs.registry)
    mat = h1_bracket_matrix(rs, bases, pois)
    assert (mat.n_rows, mat.n_cols) == (full.n_rows, full.n_cols) == (max(m - 3, 0), max(m - 1, 0))
    assert [list(r) for r in mat.rows] == [list(r) for r in full.rows]
    # the comparison is not vacuous: with e != 0 the window sees e
    nonzero = any(not p.is_zero() for r in full.rows for p in r)
    assert nonzero == (m >= 4 and not e_zero)


def test_the_surface_store_is_the_only_module_state():
    mutable = sorted(name for name, value in vars(ruled_mod).items()
                     if not name.startswith("__") and isinstance(value, (dict, list, set)))
    # FAMILIES is the fixed table of family builders
    assert mutable == ["FAMILIES", "_SURFACE_CACHE"]
    # make_surface builds a fresh surface; equal ones share the stored bases
    a, b = make_surface(5, ("a",)), make_surface(5, ("a",))
    assert a is not b and a == b
    stored = surface_for(5, ("a",))
    assert stored is surface_for(5, ["a"]) and stored == a
    assert bases_for(a) is bases_for(b) is bases_for(stored)
    assert surface_for(5) is not stored and bases_for(surface_for(5)) is not bases_for(a)


def test_table1_matches_stratification():
    rows = table1_sweep(10)
    for row in rows:
        if row.m <= 3 or row.stratum == "e!=0":
            assert row.dim_h2 == 0 and not row.obstructed
            assert row.certificate.verdict == UNOBSTRUCTED_H2_ZERO
        else:
            assert row.dim_h2 == row.m - 3 and row.obstructed
            assert row.certificate.verdict == OBSTRUCTED


def test_table1_random_structures():
    rng = random.Random(71)
    for m in range(0, 11):
        rs = make_surface(m)
        for _ in range(5):
            pois = random_poisson(rs, rng)
            row = table1_verdict(rs, pois)
            expect_unobstructed = m <= 3 or not pois.e_is_zero()
            assert row.obstructed == (not expect_unobstructed)
            if row.obstructed:
                assert row.dim_h2 == m - 3


def test_lemma_r4_certificate_and_stratum_guard():
    rs = make_surface(4)
    pois = RuledPoisson(rs, zero(rs), zero(rs), rs.z() * 3)
    cert = lemma_r4_certificate(rs, pois)
    assert cert.witness == {"a": "xi*(@z^@xi)", "b": "(z^-1)*@xi"}
    assert cert.class_repr == "(-z^-1)*(@z^@xi)"
    rs5 = make_surface(5)
    pois5 = RuledPoisson(rs5, zero(rs5), zero(rs5), rs5.z(2))
    cert5 = lemma_r4_certificate(rs5, pois5)
    cls = reduce_h1_sq(rs5)(schouten(rs5.mv(rs5.xi(), ("z", "xi")),
                                     rs5.mv(rs5.z(-1), ("xi",))))
    assert not all(p.is_zero() for p in cls)
    rs3 = make_surface(3)
    with pytest.raises(NotObstructedStratum):
        lemma_r4_certificate(rs3, RuledPoisson(rs3, zero(rs3), zero(rs3), zero(rs3)))


def test_hyper_h1_oracles():
    rs4 = make_surface(4)
    p4 = RuledPoisson(rs4, zero(rs4), rs4.z(), rs4.z())
    m4 = hyper_h1(rs4, p4)
    assert [str(e) for e in m4.elements] == [
        "xi*(@z^@xi)", "z*xi*(@z^@xi)", "z^6*xi^2*(@z^@xi)",
        "(z^-1)*@xi", "(z^-3)*@xi"]
    rs5 = make_surface(5)
    p5 = RuledPoisson(rs5, zero(rs5), rs5.z(), zero(rs5))
    m5 = hyper_h1(rs5, p5)
    assert [str(e) for e in m5.elements] == [
        "z*xi*(@z^@xi)", "xi^2*(@z^@xi)", "z^7*xi^2*(@z^@xi)",
        "(z^-1)*@xi", "(z^-4)*@xi"]
    rs2 = make_surface(2)
    p2 = RuledPoisson(rs2, zero(rs2), zero(rs2), zero(rs2))
    assert hyper_h1(rs2, p2).dim == 10


def test_hyper_h1_generically_constant_on_strata():
    rng = random.Random(5)
    for m in (4, 5):
        rs = make_surface(m)
        for force, expected in ((True, None), (False, 3)):
            dims = {hyper_h1(rs, random_poisson(rs, rng, force_e_zero=force)).dim
                    for _ in range(10)}
            assert len(dims) == 1
            if expected is not None:
                assert dims == {expected}


EXPECTED_BASES = {
    "f4": ["xi*(@z^@xi)", "z*xi*(@z^@xi)", "z^6*xi^2*(@z^@xi)",
           "(z^-1)*@xi", "(z^-3)*@xi"],
    "f5": ["z*xi*(@z^@xi)", "xi^2*(@z^@xi)", "z^7*xi^2*(@z^@xi)",
           "(z^-1)*@xi", "(z^-4)*@xi"],
}


@pytest.mark.parametrize("name,dim", [("f2", 10), ("f3", 11), ("f4", 5), ("f5", 5)])
def test_families_verify(name, dim):
    rep = verify_family(FAMILIES[name](), EXPECTED_BASES.get(name))
    assert rep.ok and rep.dim_h1 == dim


@pytest.mark.parametrize("name", ["f2", "f3", "f4", "f5"])
def test_families_fail_without_corrections(name):
    fam = FAMILIES[name](corrected=False)
    with pytest.raises(RationalPartSurvives) as err:
        verify_family(fam)
    assert err.value.residual


def test_f2_raw_residual_matches_expected_rational_part():
    fam = FAMILIES["f2"](corrected=False)
    with pytest.raises(RationalPartSurvives) as err:
        verify_family(fam)
    rs = fam.surface
    reg = rs.registry
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    t = {i: rs.param(f"t{i}") for i in (1, 5, 9, 10)}
    expected = MultiVector.term(
        rs.chart2, reg,
        (t[1] * t[5] * zp ** -1 - t[1] * t[1] * t[9] * zp ** -1
         + t[1] * t[10] * xip * zp ** -1 * 2 - t[1] * t[1] * t[10] * zp ** -2),
        ("zp", "xip"))
    assert err.value.residual == str(expected)


def test_family_base_structures():
    f4 = FAMILIES["f4"]()
    assert f4.base.e == f4.surface.z()
    assert f4.base.f == f4.surface.z()
    f5 = FAMILIES["f5"]()
    assert f5.base.e == f5.surface.z()
    assert f5.base.f.is_zero()


def test_family_poisson_identity():
    for name in ("f2", "f4"):
        fam = FAMILIES[name]()
        assert schouten(fam.lambda_t, fam.lambda_t).is_zero()


def test_cech_square_example():
    rs = make_surface(4)
    lam0 = rs.zero()
    lam1 = rs.mv(rs.xi(), ("z", "xi"))
    lam2 = pushforward(rs.transition, lam1)
    theta = rs.mv(rs.z(-1), ("xi",))
    sq = cech_square(rs, lam0, lam1, lam2, theta)
    assert sq.eta12 == rs.mv(rs.z(-1) * 2, ("z", "xi"))
    assert sq.gamma1.is_zero()


def test_cech_square_trivial():
    rs = make_surface(4)
    lam0 = rs.zero()
    theta = rs.mv(rs.z(2), ("xi",))  # holomorphic on both charts
    sq = cech_square(rs, lam0, rs.zero(),
                     MultiVector.zero(rs.chart2, rs.registry), theta)
    assert sq.eta12.is_zero() and sq.gamma1.is_zero()


def test_cech_square_rejects_non_cocycles():
    rs = make_surface(4)
    pois = RuledPoisson(rs, zero(rs), rs.z(), zero(rs))
    lam0 = pois.bivector()
    theta = rs.mv(rs.z(-1), ("xi",))
    # lam_j = 0 does not satisfy the middle cocycle identity here
    with pytest.raises(NotACocycle):
        cech_square(rs, lam0, rs.zero(),
                    MultiVector.zero(rs.chart2, rs.registry), theta)


def test_cech_square_randomized_f6():
    rng = random.Random(13)
    rs = make_surface(6)
    pois = RuledPoisson(rs, zero(rs), zero(rs), rs.z(2) * 3 + rs.const(1))
    for _ in range(20):
        lam1, lam2, theta = random_cocycle(rs, pois, rng)
        cech_square(rs, pois.bivector(), lam1, lam2, theta)
    pois2 = random_poisson(rs, rng, force_e_zero=False)
    for _ in range(5):
        lam1, lam2, theta = random_cocycle(rs, pois2, rng)
        cech_square(rs, pois2.bivector(), lam1, lam2, theta)


def test_complex_model_compose_check():
    # the complex property [lam0, [lam0, x]] = 0 on the global fields of
    # the model; trivially graded away on a surface chart but computed anyway
    rs = make_surface(4)
    pois = RuledPoisson(rs, zero(rs), rs.z(), rs.z())
    complex_model(rs, pois)
    lam0 = pois.bivector()
    for x in bases_for(rs)["h0_theta"]:
        assert schouten(lam0, schouten(lam0, x)).is_zero()


def test_poisson_from_bivector_validates():
    rs = make_surface(4)
    ok = rs.mv(rs.z() * rs.xi(), ("z", "xi"))
    pois = poisson_from_bivector(rs, ok)
    assert pois.e == rs.z()
    bad = rs.mv(rs.xi(3), ("z", "xi"))
    with pytest.raises(ValueError):
        poisson_from_bivector(rs, bad)
    bad2 = rs.mv(rs.z(5), ("z", "xi"))  # too deep for m = 4 (d must vanish)
    with pytest.raises(ValueError):
        poisson_from_bivector(rs, bad2)



@pytest.mark.parametrize("m", range(13))
def test_degree_caps_decide_extension_to_the_second_chart(m):
    # RuledPoisson checks only the z-degree caps; a monomial part passes them
    # exactly when its bivector is holomorphic on U1 and its pushforward
    # is holomorphic in zp, xip
    rs = make_surface(m)
    for part in ("d", "e", "f"):
        for k in range(-1, m + 5):
            parts = {name: zero(rs) for name in "def"}
            parts[part] = rs.z(k)
            biv = rs.mv(parts["d"] + parts["e"] * rs.xi() + parts["f"] * rs.xi(2),
                        ("z", "xi"))
            pushed = pushforward(rs.transition, biv)
            extends = (all(p.is_holomorphic(("z", "xi")) for p in biv.components.values())
                       and all(p.is_holomorphic(("zp", "xip"))
                               for p in pushed.components.values()))
            try:
                RuledPoisson(rs, parts["d"], parts["e"], parts["f"])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == extends, (part, k)

def _random_bivector_section(rs, rng):
    """A bivector on U1 with z-degrees -(m+3)..m+3, xi-degrees 0..2 and
    parameter coefficients."""
    coeff = zero(rs)
    for _ in range(8):
        c = rs.const(rng.randint(-3, 3)) + rs.param("a") * rng.randint(-2, 2)
        coeff = coeff + c * rs.z(rng.randint(-rs.m - 3, rs.m + 3)) * rs.xi(rng.randint(0, 2))
    return rs.mv(coeff, ("z", "xi"))


@pytest.mark.parametrize("m", range(13))
def test_reduce_h1_sq_reads_the_split_sq_window(m):
    rng = random.Random(100 + m)
    rs = make_surface(m, ("a",))
    red = reduce_h1_sq(rs)
    for _ in range(10):
        v = _random_bivector_section(rs, rng)
        _, _, window = split_sq(rs, v)
        assert red(v) == [window.get(k, zero(rs)) for k in range(1, m - 2)]


def test_reduce_h1_sq_rejects_malformed_sections():
    rs = make_surface(5)
    red = reduce_h1_sq(rs)
    on_u2 = MultiVector.term(rs.chart2, rs.registry, rs.const(1), ("zp", "xip"))
    field = rs.mv(rs.z(-1), ("xi",))
    cubic = rs.mv(rs.z(-1) * rs.xi(3), ("z", "xi"))
    for bad in (on_u2, field, cubic):
        with pytest.raises(NotInSpan):
            red(bad)
        with pytest.raises(NotInSpan):
            split_sq(rs, bad)
