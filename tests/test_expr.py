import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poissonlab.expr import (Add, Dbar, EvalContext, Mul, Neg, Num, ParseError,
                             Pow, Sub, Sym, UnknownSymbol, Vec, WedgeOp,
                             context_for, eval_str, evaluate, fmv_product,
                             free_names, parse, tokenize)
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
    # input that stops early names the end of input, at its position
    for src, message in (("(@z", "expected ')', found end of input"),
                         ("@z+", "unexpected end of input"),
                         ("   ", "unexpected end of input")):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert str(err.value) == f"{message} at line 1, column 4"
        assert (err.value.line, err.value.col) == (1, 4)


@pytest.mark.parametrize("src, char, col", [
    ("2²", "²", 2),
    ("z²*@z", "²", 2),
    ("①", "①", 1),
], ids=("superscript-digit", "superscript-after-name", "circled-digit"))
def test_numbers_and_names_are_ascii_only(src, char, col):
    # str.isdigit accepts these, but int() and the grammar do not
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"unexpected character {char!r} at line 1, column {col}"
    with pytest.raises(ParseError) as err:
        free_names(tokenize(src))
    assert (err.value.line, err.value.col) == (1, col)


def test_field_generators_need_an_ascii_name():
    for src in ("@ξ", "~é"):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert str(err.value) == f"{src[0]!r} must be followed by a variable name at line 1, column 1"
    with pytest.raises(ParseError) as err:
        parse("@zé")
    assert str(err.value) == "unexpected character 'é' at line 1, column 3"


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
    assert free_names(tokenize("A*z + Q7")) == {"A", "z", "Q7"}


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
        # str is the canonical printed form: parsing it gives v back
        printed = str(v)
        again = eval_str(printed, ctx)
        assert again == v, printed
        # canonical strings are fixed points of print(parse(-))
        assert str(again) == printed


# ----------------------------------------------------------------------
# the scalar-ring evaluator against the all-field reference

def _reference_evaluate(node, ctx):
    """Every node evaluated as a FormedMultiVector, products by fmv_product."""
    if isinstance(node, Num):
        return ctx.formed(ctx.mv(ctx.const(node.value)))
    if isinstance(node, Sym):
        if node.name not in ctx.registry:
            raise UnknownSymbol(node.name)
        return ctx.formed(ctx.mv(ctx.param(node.name)))
    if isinstance(node, Vec):
        if node.name not in ctx.chart.vars:
            raise UnknownSymbol(f"@{node.name}")
        return ctx.formed(ctx.mv(ctx.const(1), (node.name,)))
    if isinstance(node, Dbar):
        if node.name not in ctx.dbar:
            raise UnknownSymbol(f"~{node.name}")
        return ctx.formed(ctx.mv(ctx.const(1)), (node.name,))
    if isinstance(node, Neg):
        return -_reference_evaluate(node.arg, ctx)
    if isinstance(node, Add):
        return _reference_evaluate(node.left, ctx) + _reference_evaluate(node.right, ctx)
    if isinstance(node, Sub):
        return _reference_evaluate(node.left, ctx) - _reference_evaluate(node.right, ctx)
    if isinstance(node, (Mul, WedgeOp)):
        return fmv_product(_reference_evaluate(node.left, ctx),
                           _reference_evaluate(node.right, ctx))
    if isinstance(node, Pow):
        base = _reference_evaluate(node.base, ctx)
        keys = set(base.parts)
        if keys and keys != {()}:
            raise UnknownSymbol("powers only apply to scalar expressions")
        mv = base.part(())
        if set(mv.components) not in (set(), {()}):
            raise UnknownSymbol("powers only apply to scalar expressions")
        poly = mv.components.get((), ctx.const(0))
        if node.exponent < 0 and len(poly.terms) != 1:
            raise UnknownSymbol(f"negative powers only apply to monomials, not to {poly}")
        return ctx.formed(ctx.mv(poly ** node.exponent))
    raise TypeError(f"not an expression node: {node!r}")


_numbers = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3), st.sampled_from((0, 0, 1, -2)), st.sampled_from((1, 1, 2, 3)))
_leaves = st.one_of(
    st.builds(Num, _numbers),
    # chart variables, parameters and one unknown name
    st.builds(Sym, st.sampled_from(("z", "xi", "z", "xi", "A", "B", "t1", "qq"))),
    st.builds(Vec, st.sampled_from(("z", "xi", "z", "xi", "w"))),
    # z is the one dbar generator of _ctx()
    st.builds(Dbar, st.sampled_from(("z", "z", "z", "xi"))),
)


def _compound(children):
    return st.one_of(
        st.builds(Neg, children),
        *(st.builds(op, children, children) for op in (Add, Sub, Mul, WedgeOp)),
        st.builds(Pow, children, st.integers(-2, 3)),
    )


expr_trees = st.recursive(_leaves, _compound, max_leaves=8)


def _outcome(fn, tree, ctx):
    try:
        return fn(tree, ctx)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(expr_trees)
def test_evaluate_matches_the_all_field_reference(tree):
    ctx = _ctx()
    got, want = _outcome(evaluate, tree, ctx), _outcome(_reference_evaluate, tree, ctx)
    assert got == want
    if isinstance(got, FormedMultiVector):
        assert str(got) == str(want)
        for mv in got.parts.values():
            assert mv == MultiVector(mv.chart, mv.registry, dict(mv.components))
            assert not any(p.is_zero() for p in mv.components.values())


def _collect_names(node) -> set[str]:
    """The Sym names of a parsed tree (the tree walk free_names replaces)."""
    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, (Num, Vec, Dbar)):
        return set()
    if isinstance(node, Neg):
        return _collect_names(node.arg)
    if isinstance(node, Pow):
        return _collect_names(node.base)
    return _collect_names(node.left) | _collect_names(node.right)


def _source(node) -> str:
    """Surface syntax for a tree, parenthesized throughout."""
    if isinstance(node, Num):
        v = node.value
        return f"({v.re} + ({v.im})*i)"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Vec):
        return f"@{node.name}"
    if isinstance(node, Dbar):
        return f"~{node.name}"
    if isinstance(node, Neg):
        return f"-({_source(node.arg)})"
    if isinstance(node, Pow):
        return f"({_source(node.base)})^{node.exponent}"
    op = {Add: "+", Sub: "-", Mul: "*", WedgeOp: "^"}[type(node)]
    return f"({_source(node.left)}) {op} ({_source(node.right)})"


@settings(max_examples=200, deadline=None)
@given(expr_trees)
def test_free_names_are_the_names_of_the_parsed_tree(tree):
    src = _source(tree)
    assert free_names(tokenize(src)) == _collect_names(parse(src)) == _collect_names(tree)
