import itertools
import random

import pytest

from poissonlab.expr import (EvalContext, ParseError, UnknownSymbol,
                             collect_names, context_for, eval_str, parse,
                             print_formed)
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.multivector import Chart, FormedMultiVector, MultiVector
from poissonlab.rational import GaussianRational


def _ctx():
    reg = VarRegistry(("z", "xi"), ("A", "B", "t1"))
    return EvalContext(Chart("E", ("z", "xi")), reg, ("z",))


def test_spec_examples():
    ctx = _ctx()
    v = eval_str("(z*xi + z*xi^2)*@z^@xi", ctx)
    mv = v.part(())
    z = LaurentPoly.var(ctx.registry, "z")
    xi = LaurentPoly.var(ctx.registry, "xi")
    assert mv == MultiVector.term(ctx.chart, ctx.registry, z * xi + z * xi * xi,
                                  ("z", "xi"))
    assert eval_str("0", ctx).is_zero()
    w = eval_str("xi*@xi*~z", ctx)
    assert w.part(("z",)) == MultiVector.term(ctx.chart, ctx.registry, xi, ("xi",))


def test_precedence_wedge_loosest_power_tightest():
    ctx = _ctx()
    # z*xi^2 is z times xi squared, not (z xi) squared
    v = eval_str("z*xi^2", ctx).part(())
    z = LaurentPoly.var(ctx.registry, "z")
    xi = LaurentPoly.var(ctx.registry, "xi")
    assert v == MultiVector.function(ctx.chart, ctx.registry, z * xi * xi)
    # the wedge splits after the sums
    v2 = eval_str("z*@z + xi*@xi ^ @z", ctx).part(())
    # parses as (z @z + xi @xi) wedge @z = -xi @z^@xi ... sign from sorting
    want = MultiVector.term(ctx.chart, ctx.registry, -xi, ("z", "xi"))
    assert v2 == want
    assert eval_str("z^-2", ctx).part(()).components[()] == z ** -2


def test_rational_literals_and_i():
    from fractions import Fraction

    ctx = _ctx()
    v = eval_str("3/2 + i", ctx).part(()).components[()]
    assert v == LaurentPoly.const(ctx.registry, GaussianRational(Fraction(3, 2), 1))
    with pytest.raises(ParseError):
        parse("1.5*z")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("z +\n* w")
    assert err.value.line == 2 and err.value.col == 1
    with pytest.raises(ParseError):
        parse("(z + w")
    with pytest.raises(ParseError):
        parse("@2x")


def test_unknown_symbols():
    ctx = _ctx()
    with pytest.raises(UnknownSymbol):
        eval_str("qq * z", ctx)
    with pytest.raises(UnknownSymbol):
        eval_str("@w", ctx)
    with pytest.raises(UnknownSymbol):
        eval_str("~xi", ctx)
    with pytest.raises(UnknownSymbol):
        eval_str("(@z)^2", ctx)


def test_context_for_autoregisters_parameters():
    ctx = context_for(["(A*z^2+B0*z)*@z"], ("z", "w"))
    assert "A" in ctx.registry.param_vars and "B0" in ctx.registry.param_vars
    assert collect_names(parse("A*z + Q7")) == {"A", "z", "Q7"}


def _random_formed(rng, ctx):
    reg = ctx.registry
    parts = {}
    for key in ((), ("z",)):
        comps = {}
        for g in (0, 1, 2):
            for idx in itertools.combinations(range(2), g):
                if rng.random() < 0.5:
                    continue
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    k = {}
                    e = rng.randint(-2, 2)
                    if e:
                        k[0] = e
                    e2 = rng.randint(0, 2)
                    if e2:
                        k[1] = e2
                    num = GaussianRational(rng.randint(-3, 3),
                                           rng.randint(-1, 1))
                    terms[tuple(sorted(k.items()))] = num
                poly = LaurentPoly(reg, terms)
                if not poly.is_zero():
                    comps[idx] = poly
        if comps:
            parts[key] = MultiVector(ctx.chart, reg, comps)
    return FormedMultiVector(ctx.chart, reg, ctx.dbar, parts)


def test_print_parse_round_trip_100_random():
    ctx = _ctx()
    rng = random.Random(42)
    for _ in range(100):
        v = _random_formed(rng, ctx)
        printed = print_formed(v)
        again = eval_str(printed, ctx)
        assert again == v, printed
        # canonical strings are fixed points of print(parse(-))
        assert print_formed(again) == printed
