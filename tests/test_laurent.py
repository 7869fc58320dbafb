from fractions import Fraction

from hypothesis import given, settings, strategies as st

from poissonlab.laurent import (InexactDivision, LaurentError, LaurentPoly,
                                NonInvertibleSubstitution, UnknownVariable,
                                VarRegistry, _mul_keys, univar_gcd)
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


def euclid_gcd(polys, name):
    """`univar_gcd` as it was before its remainders were made monic: the
    oracle of the monic remainder sequence, which must agree with it."""
    reg = None
    dense = []
    for p in polys:
        if p.is_zero():
            continue
        if not p.uses_only((name,)):
            return None
        reg = p.registry
        idx = reg.index(name)
        d = {}
        for key, coeff in p.terms.items():
            d[dict(key).get(idx, 0)] = coeff
        lo = min(d)
        dense.append({e - lo: c for e, c in d.items()})
    if reg is None or not dense:
        return None

    def degree(d):
        return max(d)

    def monic(d):
        lead = d[degree(d)]
        return {e: c / lead for e, c in d.items()}

    def rem(a, b):
        a = dict(a)
        db = degree(b)
        lb = b[db]
        while a and degree(a) >= db:
            da = degree(a)
            f = a[da] / lb
            for e, c in b.items():
                s = a.get(e + da - db, GaussianRational(0)) - f * c
                if s.is_zero():
                    a.pop(e + da - db, None)
                else:
                    a[e + da - db] = s
        return a

    g = monic(dense[0])
    for d in dense[1:]:
        a, b = d, g
        while b:
            a, b = b, rem(a, b)
        g = monic(a)
        if degree(g) == 0:
            break
    if degree(g) == 0:
        return None
    idx = reg.index(name)
    return LaurentPoly(reg, {((idx, e),) if e else (): c for e, c in g.items()})


_GAUSSIAN = st.builds(lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
                      st.integers(-5, 5), st.integers(-3, 3), st.integers(1, 4)
                      ).filter(lambda c: not c.is_zero())


@st.composite
def univariate(draw, min_terms=0):
    """A Laurent polynomial in `a` with Q(i) coefficients and exponents -2..4."""
    terms = draw(st.dictionaries(st.integers(-2, 4), _GAUSSIAN, min_size=min_terms, max_size=4))
    return LaurentPoly(REG, {((REG.index("a"), e),) if e else (): c for e, c in terms.items()})


@settings(max_examples=150, deadline=None)
@given(univariate(min_terms=2), st.lists(univariate(), min_size=2, max_size=3))
def test_monic_remainders_give_the_gcd_of_euclid(factor, cofactors):
    # the inputs share the planted factor, which is not a monomial
    polys = [factor * c for c in cofactors]
    g = univar_gcd(polys, "a")
    assert g == euclid_gcd(polys, "a")
    if any(p.terms for p in polys):
        assert g.lead_scalar() == ONE and g.degree_range("a")[0] == 0
        g.exact_div(factor)
        for p in polys:
            if p.terms:
                p.exact_div(g)


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


exponent_keys = st.dictionaries(
    st.integers(0, len(REG.names) - 1), st.integers(-3, 3).filter(bool), max_size=5
).map(lambda exps: tuple(sorted(exps.items())))


@settings(max_examples=500, deadline=None)
@given(exponent_keys, exponent_keys, polys())
def test_sparse_order_key_is_graded_lex_on_the_dense_exponents(a, b, p):
    # `_order` reads the graded-lex order off the sparse key; the dense
    # exponent vector of `_graded_lex` is the reference, negative exponents included
    order = LaurentPoly.zero(REG)._order
    assert (order(a) < order(b)) == (_graded_lex(a) < _graded_lex(b))
    assert (order(a) == order(b)) == (a == b)
    assert sorted(p.terms, key=p._order) == sorted(p.terms, key=_graded_lex)


# ----------------------------------------------------------------------
# the fast paths against a slow reference: plain dict arithmetic, every
# result built through the cleaning constructor LaurentPoly(registry, terms)

ZERO = GaussianRational(0)


def _merged_key(a, b):
    """The exponent key of the product of two monomials, by a dict merge."""
    exps = dict(a)
    for idx, e in b:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted((idx, e) for idx, e in exps.items() if e))


def _ref_sum(p, q, sign=1):
    out = dict(p.terms)
    for key, c in q.terms.items():
        out[key] = out.get(key, ZERO) + (c if sign == 1 else -c)
    return LaurentPoly(REG, out)


def _ref_product(p, q):
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = _merged_key(ka, kb)
            out[key] = out.get(key, ZERO) + ca * cb
    return LaurentPoly(REG, out)


def _ref_power(p, n):
    if n < 0:
        (key, coef), = p.terms.items()
        p, n = LaurentPoly(REG, {tuple((i, -e) for i, e in key): ONE / coef}), -n
    out = LaurentPoly(REG, {(): ONE})
    for _ in range(n):
        out = _ref_product(out, p)
    return out


def _ref_partial(p, idx):
    out = {}
    for key, c in p.terms.items():
        exps = dict(key)
        e = exps.get(idx, 0)
        if e:
            exps[idx] = e - 1
            nk = tuple(sorted((i, x) for i, x in exps.items() if x))
            out[nk] = out.get(nk, ZERO) + c * e
    return LaurentPoly(REG, out)


def _ref_coefficients_in(p, idx):
    buckets = {}
    for key, c in p.terms.items():
        exps = dict(key)
        e = exps.pop(idx, 0)
        buckets.setdefault(e, {})[tuple(sorted(exps.items()))] = c
    return {e: LaurentPoly(REG, terms) for e, terms in buckets.items()}


def _stores_no_zero(p):
    """No zero coefficient, and every key sorted with no zero exponent."""
    return all(not c.is_zero() and list(key) == sorted(key) and all(e for _, e in key)
               for key, c in p.terms.items())


@st.composite
def wide_polys(draw):
    """Up to 4 terms over every registry variable, parameters included."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[draw(exponent_keys)] = GaussianRational(draw(st.integers(-3, 3)),
                                                      draw(st.integers(-1, 1)))
    return LaurentPoly(REG, terms)


def test_constructors_store_no_zero():
    assert LaurentPoly.zero(REG).terms == {} and const(0).terms == {}
    assert const(GaussianRational(0)).terms == {} and const(Fraction(0)).terms == {}
    assert const(Fraction(-2, 3)).terms == {(): GaussianRational(Fraction(-2, 3))}
    assert var("w", 0).terms == {(): ONE}
    assert var("t1", -2).terms == {((REG.index("t1"), -2),): ONE}
    for p in (LaurentPoly.zero(REG), const(0), const(5), var("z"), var("a", 3)):
        assert _stores_no_zero(p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(polys(), wide_polys()), st.one_of(polys(), wide_polys()),
       nonzero_scalars, st.integers(-3, 4), st.sampled_from(REG.names))
def test_fast_paths_match_the_cleaning_reference(p, q, c, n, name):
    one, zero, idx = const(1), LaurentPoly.zero(REG), REG.index(name)
    cases = [(p + q, _ref_sum(p, q)), (p - q, _ref_sum(p, q, -1)),
             (p * q, _ref_product(p, q)), (q * p, _ref_product(q, p)),
             (p * const(c), _ref_product(p, const(c))), (const(c) * p, _ref_product(p, const(c))),
             (p * c, _ref_product(p, const(c))), (p * 2, _ref_product(p, const(2))),
             (p * zero, zero), (zero * p, zero), (p * 0, zero), (p * ZERO, zero),
             (p.partial(name), _ref_partial(p, idx))]
    if n >= 0 or len(p.terms) == 1:
        cases.append((p ** n, _ref_power(p, n)))
    buckets, ref_buckets = p.coefficients_in(name), _ref_coefficients_in(p, idx)
    assert list(buckets) == sorted(ref_buckets)
    cases += [(buckets[e], ref_buckets[e]) for e in ref_buckets]
    for got, want in cases:
        assert got == want and _stores_no_zero(got)
    # a factor 1 returns the other operand itself (either one, when both are 1)
    for got in (p * one, one * p, p * 1, p * ONE):
        assert got is p or (p == one and got is one)


def _split(key, at):
    return (tuple((i, e) for i, e in key if i < at), tuple((i, e) for i, e in key if i >= at))


@settings(max_examples=500, deadline=None)
@given(exponent_keys, exponent_keys, st.integers(0, len(REG.names)),
       st.lists(st.booleans(), min_size=len(REG.names), max_size=len(REG.names)))
def test_mul_keys_matches_the_dict_merge(a, b, at, negate):
    # interleaving keys, keys on disjoint index ranges (either order), and a
    # key whose exponents cancel some or all of a's
    lo, hi = _split(a, at)
    cancel = tuple((i, -e) if negate[i] else (i, e) for i, e in a)
    for x, y in ((a, b), (b, a), (lo, hi), (hi, lo), (a, cancel), (cancel, a), (a, ()), ((), b)):
        assert _mul_keys(x, y) == _merged_key(x, y)
