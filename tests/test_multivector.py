import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.multivector import (Chart, ChartMap, ChartMismatch,
                                    FormedMultiVector, MultiVector, mc_defect,
                                    pushforward, schouten, schouten_formed,
                                    wedge)
from poissonlab.rational import GaussianRational

REG = VarRegistry(("x", "y", "u"), ("a", "b"))
CH = Chart("C", ("x", "y", "u"))


def poly(draw_terms):
    out = LaurentPoly.zero(REG)
    for key, c in draw_terms:
        out = out + LaurentPoly(REG, {key: GaussianRational(c)})
    return out


@st.composite
def small_polys(draw):
    out = {}
    for _ in range(draw(st.integers(1, 2))):
        key = {}
        for idx in range(3):
            e = draw(st.integers(-1, 2))
            if e:
                key[idx] = e
        out[tuple(sorted(key.items()))] = GaussianRational(draw(st.integers(-3, 3)))
    return LaurentPoly(REG, out)


@st.composite
def multivectors(draw, grades=(0, 1, 2, 3)):
    g = draw(st.sampled_from(grades))
    comps = {}
    for idx in itertools.combinations(range(3), g):
        comps[idx] = draw(small_polys())
    return MultiVector(CH, REG, comps)


def grade(m):
    gs = m.grades()
    return max(gs) if gs else 0


def test_wedge_basics():
    one = LaurentPoly.const(REG, 1)
    x = LaurentPoly.var(REG, "x")
    y = LaurentPoly.var(REG, "y")
    dx = MultiVector.term(CH, REG, one, ("x",))
    dy = MultiVector.term(CH, REG, one, ("y",))
    assert wedge(dx, dy) == MultiVector.term(CH, REG, one, ("x", "y"))
    assert wedge(dy, dx) == -wedge(dx, dy)
    a = MultiVector.term(CH, REG, x, ("x",))
    b = MultiVector.term(CH, REG, y, ("y",))
    assert wedge(a, b) == MultiVector.term(CH, REG, x * y, ("x", "y"))
    assert wedge(dx, dx).is_zero()


def test_wedge_graded_commutativity_random():
    rng = random.Random(3)
    for _ in range(40):
        ga, gb = rng.randint(0, 3), rng.randint(0, 3)
        a = _random_mv(rng, ga)
        b = _random_mv(rng, gb)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (ga * gb) % 2:
            rhs = -rhs
        assert lhs == rhs


def _random_mv(rng, g):
    comps = {}
    for idx in itertools.combinations(range(3), g):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = {}
            for vi in range(3):
                e = rng.randint(-1, 2)
                if e:
                    key[vi] = e
            terms[tuple(sorted(key.items()))] = GaussianRational(rng.randint(-3, 3))
        comps[idx] = LaurentPoly(REG, terms)
    return MultiVector(CH, REG, comps)


def test_schouten_is_lie_bracket_on_fields():
    x = LaurentPoly.var(REG, "x")
    y = LaurentPoly.var(REG, "y")
    X = MultiVector.term(CH, REG, x, ("y",))
    Y = MultiVector.term(CH, REG, y, ("x",))
    out = schouten(X, Y)
    # [x d_y, y d_x] = x d_x - y d_y
    expected = (MultiVector.term(CH, REG, x, ("x",))
                - MultiVector.term(CH, REG, y, ("y",)))
    assert out == expected
    assert schouten(X, X).is_zero()


def test_schouten_directional_derivative():
    x = LaurentPoly.var(REG, "x")
    f = MultiVector.function(CH, REG, x * x)
    X = MultiVector.term(CH, REG, LaurentPoly.const(REG, 1), ("x",))
    assert schouten(X, f) == MultiVector.function(CH, REG, x * 2)


def test_bivector_self_bracket_vanishes_on_surface_chart():
    reg = VarRegistry(("z", "xi"), ("a", "b"))
    ch = Chart("S", ("z", "xi"))
    rng = random.Random(11)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            key = {}
            for vi in range(2):
                e = rng.randint(0, 3)
                if e:
                    key[vi] = e
            terms[tuple(sorted(key.items()))] = GaussianRational(rng.randint(-3, 3))
        lam = MultiVector(ch, reg, {(0, 1): LaurentPoly(reg, terms)})
        assert schouten(lam, lam).is_zero()


@settings(max_examples=200, deadline=None)
@given(multivectors(), multivectors(), multivectors(grades=(0, 1, 2)))
def test_bracket_axioms(a, b, c):
    ga, gb = grade(a), grade(b)
    lhs = schouten(a, b)
    rhs = schouten(b, a)
    sign = -1 if ((ga - 1) * (gb - 1)) % 2 == 0 else 1
    assert lhs == (rhs if sign == 1 else -rhs)
    jac_l = schouten(a, schouten(b, c))
    jac_r1 = schouten(schouten(a, b), c)
    jac_r2 = schouten(b, schouten(a, c))
    s = -1 if ((ga - 1) * (gb - 1)) % 2 else 1
    assert jac_l == jac_r1 + (jac_r2 if s == 1 else -jac_r2)
    leib_l = schouten(a, wedge(b, c))
    leib_r = wedge(schouten(a, b), c)
    s2 = -1 if ((ga - 1) * gb) % 2 else 1
    tail = wedge(b, schouten(a, c))
    assert leib_l == leib_r + (tail if s2 == 1 else -tail)


# Reference: the bracket of single terms f d_I and g d_J by the graded
# Leibniz recursion, with the Lie bracket and the directional derivative
# as base cases.  `schouten` computes the same thing in one pass.

def _lie_terms(chart, reg, f, i, g, j):
    """[f d_i, g d_j] for single coordinate directions."""
    vi, vj = chart.vars[i], chart.vars[j]
    return MultiVector(chart, reg, {(j,): f * g.partial(vi)}) - MultiVector(
        chart, reg, {(i,): g * f.partial(vj)})


def _sch_terms(chart, reg, f, I, g, J) -> MultiVector:
    """[f d_I, g d_J] by graded Leibniz recursion."""
    p, q = len(I), len(J)
    one = LaurentPoly.const(reg, 1)

    def mv(coeff, idx):
        return MultiVector(chart, reg, {idx: coeff})

    if p == 0 and q == 0:
        return MultiVector.zero(chart, reg)
    if p == 1:
        if q == 0:
            return MultiVector(chart, reg, {(): f * g.partial(chart.vars[I[0]])})
        if q == 1:
            return _lie_terms(chart, reg, f, I[0], g, J[0])
        # second-slot Leibniz, |a| = 1 so no sign
        head = _sch_terms(chart, reg, f, I, g, (J[0],))
        rest = _sch_terms(chart, reg, f, I, one, J[1:])
        return wedge(head, mv(one, J[1:])) + wedge(mv(g, (J[0],)), rest)
    if p == 0:
        # [f, t1 ^ rest] = [f, t1] ^ rest - t1 ^ [f, rest]
        head = MultiVector(chart, reg, {(): -(g * f.partial(chart.vars[J[0]]))})
        rest = _sch_terms(chart, reg, f, (), one, J[1:])
        return wedge(head, mv(one, J[1:])) - wedge(mv(g, (J[0],)), rest)
    # p >= 2: first-slot Leibniz
    # [a ^ b, c] = a ^ [b, c] + (-1)^{(p-1)(q-1)} [a, c] ^ b
    bpart = _sch_terms(chart, reg, one, I[1:], g, J)
    apart = _sch_terms(chart, reg, f, (I[0],), g, J)
    out = wedge(mv(f, (I[0],)), bpart)
    tail = wedge(apart, mv(one, I[1:]))
    if ((p - 1) * (q - 1)) % 2:
        tail = -tail
    return out + tail


REG4 = VarRegistry(("x", "y", "u", "v"), ("a", "b"))
CH4 = Chart("C4", ("x", "y", "u", "v"))


@st.composite
def param_polys(draw, reg):
    """Laurent polynomials in every chart variable and parameter of reg."""
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        key = {}
        for idx in range(len(reg.names)):
            e = draw(st.integers(-2, 2))
            if e:
                key[idx] = e
        out[tuple(sorted(key.items()))] = GaussianRational(draw(st.integers(-3, 3)),
                                                           draw(st.integers(-1, 1)))
    return LaurentPoly(reg, out)


@pytest.mark.parametrize("chart,reg,p,q", [
    (chart, reg, p, q)
    for chart, reg in ((CH, REG), (CH4, REG4))
    for p in range(chart.dim + 1) for q in range(chart.dim + 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_schouten_matches_leibniz_reference_on_single_terms(chart, reg, p, q, data):
    I = tuple(sorted(data.draw(st.permutations(range(chart.dim)))[:p]))
    J = tuple(sorted(data.draw(st.permutations(range(chart.dim)))[:q]))
    f, g = data.draw(param_polys(reg)), data.draw(param_polys(reg))
    got = schouten(MultiVector(chart, reg, {I: f}), MultiVector(chart, reg, {J: g}))
    assert got == _sch_terms(chart, reg, f, I, g, J)


def _fm_surface(m):
    reg = VarRegistry(("z", "xi", "zp", "xip"), ("a", "b"))
    U1, U2 = Chart("U1", ("z", "xi")), Chart("U2", ("zp", "xip"))
    z = LaurentPoly.var(reg, "z")
    xi = LaurentPoly.var(reg, "xi")
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    trans = ChartMap(U1, U2, {"zp": z ** -1, "xip": z ** m * xi},
                     {"z": zp ** -1, "xi": zp ** m * xip})
    return reg, U1, U2, trans


@pytest.mark.parametrize("m", [0, 2, 4, 5])
def test_pushforward_frame_identity(m):
    reg, U1, U2, trans = _fm_surface(m)
    one = LaurentPoly.const(reg, 1)
    biv2 = MultiVector.term(U2, reg, one, ("zp", "xip"))
    got = pushforward(trans.inverse_map(), biv2)
    z = LaurentPoly.var(reg, "z")
    assert got == MultiVector.term(U1, reg, -(z ** (2 - m)), ("z", "xi"))


def test_pushforward_identity_map():
    reg, U1, _, _ = _fm_surface(2)
    z = LaurentPoly.var(reg, "z")
    xi = LaurentPoly.var(reg, "xi")
    ident = ChartMap(U1, U1, {"z": z, "xi": xi}, {"z": z, "xi": xi})
    a = MultiVector.term(U1, reg, z * xi, ("z", "xi"))
    assert pushforward(ident, a) == a


def test_pushforward_scaling_contraction():
    # under (alpha z, alpha w) a field coefficient z^mu w^nu picks up
    # alpha^(1 - mu - nu)
    reg = VarRegistry(("z", "w"), ("alpha",))
    ch = Chart("W", ("z", "w"))
    z, w = LaurentPoly.var(reg, "z"), LaurentPoly.var(reg, "w")
    al = LaurentPoly.var(reg, "alpha")
    f = ChartMap(ch, ch, {"z": al * z, "w": al * w},
                 {"z": al ** -1 * z, "w": al ** -1 * w})
    for mu, nu in ((0, 0), (1, 0), (2, 1)):
        v = MultiVector.term(ch, reg, z ** mu * w ** nu, ("z",))
        got = pushforward(f, v)
        want = MultiVector.term(ch, reg, al ** (1 - mu - nu) * z ** mu * w ** nu, ("z",))
        assert got == want


@pytest.mark.parametrize("m", [2, 5])
def test_pushforward_naturality(m):
    reg, U1, U2, trans = _fm_surface(m)
    rng = random.Random(100 + m)

    def rand_mv(g):
        comps = {}
        for idx in itertools.combinations(range(2), g):
            terms = {}
            for _ in range(2):
                key = {}
                e = rng.randint(0, 2)
                if e:
                    key[0] = e
                e2 = rng.randint(0, 1)
                if e2:
                    key[1] = e2
                terms[tuple(sorted(key.items()))] = GaussianRational(rng.randint(-2, 2))
            comps[idx] = LaurentPoly(reg, terms)
        return MultiVector(U1, reg, comps)

    for ga, gb in ((1, 1), (2, 1), (1, 2), (0, 2), (2, 2)):
        a, b = rand_mv(ga), rand_mv(gb)
        assert pushforward(trans, schouten(a, b)) == schouten(
            pushforward(trans, a), pushforward(trans, b))


def compose(outer: ChartMap, inner: ChartMap) -> ChartMap:
    """outer o inner: a map inner.source -> outer.target."""
    if inner.target != outer.source:
        raise ChartMismatch("composition chart mismatch")
    fwd = {tv: expr.substitute(dict(inner.forward)) for tv, expr in outer.forward.items()}
    inv = {sv: expr.substitute(dict(outer.inverse)) for sv, expr in inner.inverse.items()}
    return ChartMap(inner.source, outer.target, fwd, inv)


def test_pushforward_composite_functorial():
    reg = VarRegistry(("z", "w"), ("alpha", "delta"))
    ch = Chart("W", ("z", "w"))
    z, w = LaurentPoly.var(reg, "z"), LaurentPoly.var(reg, "w")
    al, de = LaurentPoly.var(reg, "alpha"), LaurentPoly.var(reg, "delta")
    f = ChartMap(ch, ch, {"z": al * z, "w": de * w},
                 {"z": al ** -1 * z, "w": de ** -1 * w})
    ff = compose(f, f)
    v = MultiVector.term(ch, reg, z * z + w, ("z",)) + MultiVector.term(ch, reg, w, ("w",))
    assert pushforward(ff, v) == pushforward(f, pushforward(f, v))


def test_chart_mismatch():
    reg, U1, U2, _ = _fm_surface(2)
    a = MultiVector.term(U1, reg, LaurentPoly.const(reg, 1), ("z",))
    b = MultiVector.term(U2, reg, LaurentPoly.const(reg, 1), ("zp",))
    with pytest.raises(ChartMismatch):
        schouten(a, b)
    with pytest.raises(ChartMismatch):
        wedge(a, b)


# ----------------------------------------------------------------------
# formed fields

def test_formed_bracket_drops_repeated_generator():
    reg = VarRegistry(("z", "xi"), ())
    ch = Chart("E", ("z", "xi"))
    one = LaurentPoly.const(reg, 1)
    a = FormedMultiVector.of(MultiVector.term(ch, reg, one, ("z",)), ("z",), ("z",))
    b = FormedMultiVector.of(MultiVector.term(ch, reg, one, ("xi",)), ("z",), ("z",))
    assert schouten_formed(a, b).is_zero()


def test_formed_bracket_spec_example():
    reg = VarRegistry(("z", "xi"), ())
    ch = Chart("E", ("z", "xi"))
    one = LaurentPoly.const(reg, 1)
    xi = LaurentPoly.var(reg, "xi")
    lam = FormedMultiVector.of(MultiVector.term(ch, reg, one, ("z", "xi")), ("z",))
    b = FormedMultiVector.of(MultiVector.term(ch, reg, xi, ("xi",)), ("z",), ("z",))
    out = schouten_formed(lam, b)
    want = FormedMultiVector.of(MultiVector.term(ch, reg, one, ("z", "xi")), ("z",), ("z",))
    assert out == want


def test_formed_bracket_graded_symmetry_degree_one():
    # two degree-1 elements (bivector and form-valued field) commute
    reg = VarRegistry(("z", "xi"), ("A",))
    ch = Chart("E", ("z", "xi"))
    A = LaurentPoly.var(reg, "A")
    xi = LaurentPoly.var(reg, "xi")
    P = FormedMultiVector.of(MultiVector.term(ch, reg, A * xi, ("z", "xi")), ("z",))
    Q = FormedMultiVector.of(MultiVector.term(ch, reg, xi * xi, ("xi",)), ("z",), ("z",))
    assert schouten_formed(P, Q) == schouten_formed(Q, P)


def test_mc_defect_zero_element():
    reg = VarRegistry(("z", "xi"), ("A",))
    ch = Chart("E", ("z", "xi"))
    lam0 = MultiVector.term(ch, reg, LaurentPoly.var(reg, "A"), ("z", "xi"))
    el = FormedMultiVector.zero(ch, reg, ("z",))
    assert mc_defect(lam0, el).is_zero()


def test_equal_fields_hash_equal_and_duplicates_are_found():
    from poissonlab.linalg import LabeledBasis

    x, y = LaurentPoly.var(REG, "x"), LaurentPoly.var(REG, "y")
    a = MultiVector.term(CH, REG, x, ("x",)) + MultiVector.term(CH, REG, y, ("y",))
    b = MultiVector.term(CH, REG, y, ("y",)) + MultiVector.term(CH, REG, x, ("x",))
    assert a == b and hash(a) == hash(b)
    fa, fb = FormedMultiVector.of(a, ("x",), ("x",)), FormedMultiVector.of(b, ("x",), ("x",))
    assert fa == fb and hash(fa) == hash(fb)
    # the coefficients take part: x d/dx and y d/dx are told apart
    fields = [MultiVector.term(CH, REG, p, ("x",)) for p in (x, y, x * y)]
    assert len(set(fields)) == 3 and len({hash(f) for f in fields}) == 3
    assert len(LabeledBasis("fields", tuple(fields))) == 3
    with pytest.raises(ValueError):
        LabeledBasis("fields", (a, fields[1], b))
    with pytest.raises(ValueError):
        LabeledBasis("formed", (fa, fb))


# ----------------------------------------------------------------------
# results of internal operations are built canonical

def _assert_canonical(x):
    if isinstance(x, FormedMultiVector):
        assert x == FormedMultiVector(x.chart, x.registry, x.dbar_vars, dict(x.parts))
        for part in x.parts.values():
            assert not part.is_zero()
            _assert_canonical(part)
        return
    assert not any(p.is_zero() for p in x.components.values())
    assert x == MultiVector(x.chart, x.registry, dict(x.components))


@st.composite
def formed(draw):
    dbar = ("x", "y")
    parts = {key: draw(multivectors()) for key in ((), ("x",), ("y",), ("x", "y"))
             if draw(st.booleans())}
    return FormedMultiVector(CH, REG, dbar, parts)


@settings(max_examples=150, deadline=None)
@given(multivectors(), multivectors(), small_polys(), st.integers(-2, 2))
def test_multivector_results_are_canonical(a, b, f, c):
    results = [a + b, a - b, a + (-a), -a, a.scale(f), a.scale(c), a.scale(0),
               a.scale(LaurentPoly.zero(REG)), wedge(a, b), schouten(a, b),
               schouten(a, a)]
    results += [a.grade_part(k) for k in range(4)]
    for x in results:
        _assert_canonical(x)


@settings(max_examples=100, deadline=None)
@given(formed(), formed())
def test_formed_multivector_sums_are_canonical(a, b):
    for x in (a + b, a - b, a - a, -a):
        _assert_canonical(x)


# basis_coords, the inverse of combination on a basis of single terms: a
# scalar times a chart monomial times a frame, on formed fields too

def _term_basis():
    from poissonlab.linalg import LabeledBasis
    x = LaurentPoly.var(REG, "x")
    u = LaurentPoly.var(REG, "u")
    one = LaurentPoly.one(REG)
    fields = (MultiVector.term(CH, REG, one, ("x",)),
              MultiVector.term(CH, REG, u * 2, ("y",)),
              MultiVector.term(CH, REG, -(x * u), ("x", "u")),
              MultiVector.term(CH, REG, u ** -1, ("x", "u")))
    formed = tuple(FormedMultiVector.of(f, ("x", "y"), (g,)) for g in ("x", "y") for f in fields)
    return LabeledBasis("fields", fields), LabeledBasis("formed", formed)


@st.composite
def basis_weights(draw):
    """Polynomials in the parameters a, b only, zero included."""
    out = {}
    for _ in range(draw(st.integers(0, 2))):
        key = tuple((idx, e) for idx, e in ((3, draw(st.integers(-1, 2))),
                                            (4, draw(st.integers(0, 2)))) if e)
        out[key] = GaussianRational(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
    return LaurentPoly(REG, out)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_basis_coords_inverts_combination(data):
    from poissonlab.multivector import basis_coords, combination
    for basis in _term_basis():
        coeffs = [data.draw(basis_weights()) for _ in basis]
        el = combination(coeffs, basis)
        if el is None:
            continue
        assert basis_coords(basis)(el) == coeffs


def test_basis_coords_rejects_a_term_outside_the_basis():
    from poissonlab.linalg import NotInSpan
    from poissonlab.multivector import basis_coords
    fields, formed = _term_basis()
    x = LaurentPoly.var(REG, "x")
    a = LaurentPoly.var(REG, "a")
    read = basis_coords(fields)
    assert [str(c) for c in read(fields[0].scale(a) + fields[2].scale(a * 3))] == [
        "a", "0", "3*a", "0"]
    for outside in (MultiVector.term(CH, REG, x, ("x",)),          # another monomial
                    MultiVector.term(CH, REG, a, ("y",)),          # another frame
                    MultiVector.term(CH, REG, a * x, ("x", "y"))):
        with pytest.raises(NotInSpan):
            read(fields[0] + outside)
    # a formed field is read by its form factor too
    with pytest.raises(NotInSpan):
        basis_coords(formed)(FormedMultiVector.of(fields[0], ("x", "y"), ("x", "y")))
