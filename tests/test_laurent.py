from fractions import Fraction

from hypothesis import given, settings, strategies as st

from poissonlab.laurent import (InexactDivision, LaurentError, LaurentPoly,
                                NonInvertibleSubstitution, UnknownVariable,
                                VarRegistry, univar_gcd)
from poissonlab.linalg import _row_content_normalize
from poissonlab.rational import ONE, GaussianRational, content

import pytest

REG = VarRegistry(("z", "w", "xi"), ("a", "b", "t1", "t5"))


def var(name, power=1):
    return LaurentPoly.var(REG, name, power)


def const(v):
    return LaurentPoly.const(REG, v)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        key = {}
        for idx in range(3):
            e = draw(st.integers(-2, 2))
            if e:
                key[idx] = e
        coeff = GaussianRational(draw(st.integers(-4, 4)), draw(st.integers(-1, 1)))
        terms[tuple(sorted(key.items()))] = coeff
    return LaurentPoly(REG, terms)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_partial_leibniz(p, q):
    for v in ("z", "w"):
        lhs = (p * q).partial(v)
        rhs = p.partial(v) * q + p * q.partial(v)
        assert lhs == rhs


def test_partial_examples():
    assert var("z", -1).partial("z") == -var("z", -2)
    # derivative of a quadratic in z, coefficients as parameters
    g = var("a") + var("b") * var("z") + const(2) * var("z", 2)
    assert g.partial("z") == var("b") + const(4) * var("z")
    assert (var("z") * var("w")).partial("w") == var("z")
    with pytest.raises(UnknownVariable):
        var("z").partial("nope")


def test_substitute_monomial_inversion():
    p = var("z", 2)
    q = p.substitute({"z": var("w", -1)})
    assert q == var("w", -2)


def test_substitute_family_transition():
    # xi -> z^2 xi' - t1 z' style substitution on the trivial monomial
    reg = VarRegistry(("z", "xi", "zp", "xip"), ("t1",))
    xi = LaurentPoly.var(reg, "xi")
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    t1 = LaurentPoly.var(reg, "t1")
    out = xi.substitute({"xi": zp ** 2 * xip - t1 * zp})
    assert out == zp ** 2 * xip - t1 * zp


def test_substitute_scaling_quadratic():
    reg = VarRegistry(("z", "w"), ("alpha", "c20", "c11", "c02"))
    z, w = LaurentPoly.var(reg, "z"), LaurentPoly.var(reg, "w")
    al = LaurentPoly.var(reg, "alpha")
    c20, c11, c02 = (LaurentPoly.var(reg, n) for n in ("c20", "c11", "c02"))
    g = c20 * z * z + c11 * z * w + c02 * w * w
    out = g.substitute({"z": al * z, "w": al * w})
    assert out == al * al * g


def test_substitute_requires_invertible_for_negative_powers():
    p = var("z", -1)
    with pytest.raises(NonInvertibleSubstitution):
        p.substitute({"z": var("w") + const(1)})


@settings(max_examples=80, deadline=None)
@given(polys())
def test_substitute_roundtrip_invertible(p):
    # the swap z <-> 3/w is an involution on the chart variables
    s = {"z": const(3) * var("w", -1), "w": const(3) * var("z", -1)}
    assert p.substitute(s).substitute(s) == p


def substitute_termwise(p, mapping):
    """Reference: substitute each term separately and add the results."""
    out = LaurentPoly.zero(REG)
    for key, coef in p.terms.items():
        term = const(coef)
        for idx, e in key:
            name = REG.names[idx]
            if name not in mapping:
                term = term * var(name, e)
            elif e < 0 and len(mapping[name].terms) != 1:
                raise NonInvertibleSubstitution(name)
            else:
                term = term * mapping[name] ** e
        out = out + term
    return out


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys(), st.booleans())
def test_substitute_matches_termwise_reference(p, q, r, map_w):
    mapping = {"z": q + var("a") * var("w", -1)}
    if map_w:
        mapping["w"] = r
    try:
        want = substitute_termwise(p, mapping)
    except NonInvertibleSubstitution:
        with pytest.raises(NonInvertibleSubstitution):
            p.substitute(mapping)
        return
    got = p.substitute(mapping)
    assert got == want and str(got) == str(want)
    assert all(not c.is_zero() for c in got.terms.values())


@settings(max_examples=100, deadline=None)
@given(polys())
def test_zero_operands(p):
    zero = LaurentPoly.zero(REG)
    assert p + zero == p and zero + p == p and p + 0 == p and 0 + p == p
    assert p - zero == p and (zero - p) == -p and p - 0 == p
    assert (p * zero).is_zero() and (zero * p).is_zero() and (p * 0).is_zero()
    assert (p - p).is_zero() and (p + (-p)).is_zero()
    assert str(p + zero) == str(p) and str(zero + p) == str(p)
    assert str(p - p) == "0" and str(p * zero) == "0"


def test_registry_mismatch_with_a_zero_operand():
    other = VarRegistry(("z",), ())
    for a, b in ((LaurentPoly.zero(REG), LaurentPoly.var(other, "z")),
                 (var("z"), LaurentPoly.zero(other)),
                 (LaurentPoly.zero(REG), LaurentPoly.zero(other))):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(LaurentError):
                op(a, b)
            with pytest.raises(LaurentError):
                op(b, a)


def test_is_holomorphic():
    assert (var("z", 2) * var("xi") + var("t1") * var("z")).is_holomorphic(("z", "xi"))
    bad = var("t1") * var("t5") * var("z", -1)
    assert not bad.is_holomorphic(("z",))
    assert LaurentPoly.zero(REG).is_holomorphic(("z", "w", "xi"))


def test_exact_div():
    p = (var("z") + var("w")) * (var("z", -1) + const(2))
    q = p.exact_div(var("z") + var("w"))
    assert q == var("z", -1) + const(2)
    with pytest.raises(InexactDivision):
        (var("z") + const(1)).exact_div(var("w") + const(1))
    assert (var("a") * var("b")).exact_div(var("a")) == var("b")


def test_univar_gcd():
    a = var("a")
    p1 = (a + const(1)) * (a + const(2))
    p2 = (a + const(1)) * (a - const(1))
    g = univar_gcd([p1, p2], "a")
    assert g is not None
    assert p1.exact_div(g) == a + const(2)


def test_coefficients_in():
    p = var("z", -1) * var("xi") + const(3) * var("xi") + var("w")
    buckets = p.coefficients_in("xi")
    assert set(buckets) == {0, 1}
    assert buckets[1] == var("z", -1) + const(3)
    assert buckets[0] == var("w")


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 6), st.integers(-3, 3)),
       st.sampled_from([GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
                        GaussianRational(2, 0), GaussianRational(Fraction(2, 3), -1)]))
def test_monomial_powers_equal_repeated_products(exps, coeff):
    key = tuple(sorted((idx, e) for idx, e in exps.items() if e))
    p = LaurentPoly(REG, {key: coeff})
    product = const(1)
    for n in range(9):
        assert p ** n == product
        product = product * p


def _general_product(p, q):
    """Every term pair of p * q, summed in the order the pairs come."""
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            merged = dict(ka)
            for idx, e in kb:
                merged[idx] = merged.get(idx, 0) + e
            key = tuple(sorted((i, e) for i, e in merged.items() if e))
            s = out.get(key)
            out[key] = ca * cb if s is None else s + ca * cb
    return [(k, c) for k, c in out.items() if not c.is_zero()]


def _graded_lex(key):
    dense = tuple(dict(key).get(i, 0) for i in range(len(REG.names)))
    return (sum(dense), dense)


nonzero_scalars = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), b),
    st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3)
).filter(lambda c: not c.is_zero())


@settings(max_examples=200, deadline=None)
@given(polys(), nonzero_scalars)
def test_constant_short_circuits_match_the_general_code(p, c):
    cpoly = const(c)
    # a constant factor on either side: the general term-pair product
    assert list((p * cpoly).terms.items()) == _general_product(p, cpoly)
    assert list((cpoly * p).terms.items()) == _general_product(cpoly, p)
    # a constant divisor: long division takes the leading remaining term each step
    quotient = p.exact_div(cpoly)
    assert list(quotient.terms.items()) == [
        (k, p.terms[k] / c) for k in sorted(p.terms, key=_graded_lex, reverse=True)]
    # the same as the general division by the non-constant divisor c*z
    z = var("z")
    assert list((p * z).exact_div(cpoly * z).terms.items()) == list(quotient.terms.items())
    with pytest.raises(ZeroDivisionError):
        p.exact_div(const(0))
    # one term: its coefficient is the leading one
    for key, coef in p.terms.items():
        mono = LaurentPoly(REG, {key: coef})
        assert mono.lead_scalar() == coef == mono.terms[max(mono.terms, key=_graded_lex)]
    # a row of constants only meets the numeric content
    row = [LaurentPoly(REG, {(): v}) for v in p.terms.values()] + [const(0), cpoly]
    g = content(v for q in row for v in q.terms.values())
    want = [q * (ONE / g) if q.terms else q for q in row]
    got = _row_content_normalize(row)
    assert [list(q.terms.items()) for q in got] == [list(q.terms.items()) for q in want]
