"""Value semantics of the hand-written value classes: the frozen ones
reject assignment, the hashed ones compare and hash by their fields, and
the constructor checks raise their messages."""

import pytest

import expr_oracle
from poissonlab import hopf, ruled
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import LabeledBasis
from poissonlab.multivector import Chart, ChartFrame, ChartMap
from poissonlab.obstruction import OBSTRUCTED, Certificate
from poissonlab.rational import GaussianRational

REG = VarRegistry(("z", "w"), ("a",))
W = Chart("W", ("z", "w"))
Z, WV = LaurentPoly.var(REG, "z"), LaurentPoly.var(REG, "w")


def _identity():
    return ChartMap(W, W, {"z": Z, "w": WV}, {"z": Z, "w": WV})


def _frozen_values():
    """Name -> (value, one of its fields)."""
    hctx = hopf.make_context(hopf.HopfType("IV"))
    return {
        # the expression trees of the parser oracle in tests/
        "Num": (expr_oracle.Num(GaussianRational(1)), "value"),
        "Sym": (expr_oracle.Sym("a"), "name"),
        "Add": (expr_oracle.Add(expr_oracle.Sym("a"), expr_oracle.Vec("z")), "right"),
        "Pow": (expr_oracle.Pow(expr_oracle.Sym("a"), 2), "exponent"),
        "HopfType": (hopf.HopfType("III", 2), "p"),
        "HopfContext": (hctx, "type"),
        "LabeledBasis": (LabeledBasis("b", ("x", "y")), "elements"),
        "Chart": (W, "vars"),
        "ChartMap": (_identity(), "inverse"),
        "ChartFrame": (ChartFrame(W, REG), "dbar"),
        "Weight0Space": (hopf.weight0_space(hctx, 1, 3), "cap"),
        "RuledSurface": (ruled.make_surface(3), "m"),
    }


FROZEN = _frozen_values()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_reject_assignment(name):
    value, field = FROZEN[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert getattr(value, field) is before


def _pairs():
    """Two separately built values with equal fields, for each hashed class."""
    t = hopf.HopfType("IIa", 3)
    return {
        "HopfType": (t, hopf.HopfType("IIa", 3)),
        "Chart": (W, Chart("W", ("z", "w"))),
        "ChartFrame": (ChartFrame(W, REG, ("z",)), ChartFrame(Chart("W", ("z", "w")), REG, ("z",))),
        "HopfContext": (hopf.make_context(t), hopf.make_context(t)),
        "RuledSurface": (ruled.make_surface(4, ("e0",)), ruled.make_surface(4, ("e0",))),
    }


@pytest.mark.parametrize("name", sorted(_pairs()))
def test_hashed_values_compare_and_hash_by_fields(name):
    a, b = _pairs()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hashed_values_differ_when_a_field_does():
    assert hopf.HopfType("III", 2) != hopf.HopfType("III", 3)
    assert hopf.HopfType("IV") != hopf.HopfType("IIc")
    assert Chart("W", ("z", "w")) != Chart("W", ("w", "z"))
    assert ChartFrame(W, REG) != ChartFrame(W, REG, ("z",))
    # frames of one chart and registry differ by their geometry's fields
    assert hopf.make_context(hopf.HopfType("IV")) != hopf.make_context(hopf.HopfType("IIc"))
    assert ruled.make_surface(3) != ruled.make_surface(4)
    # a subclass frame is never equal to the plain frame it extends
    ctx = hopf.make_context(hopf.HopfType("IV"))
    assert ctx != ChartFrame(ctx.chart, ctx.registry, ctx.dbar)
    assert hopf.HopfType("IV") != "IV" and W != ("W", ("z", "w"))


def test_chart_maps_compare_by_fields():
    assert _identity() == _identity()
    half = GaussianRational(1) / 2
    assert _identity() != ChartMap(W, W, {"z": Z * 2, "w": WV}, {"z": Z * half, "w": WV})


def test_mutable_values_take_assignment_to_their_fields():
    cert = Certificate("F4", "e=0", OBSTRUCTED)
    cert.reason = "checked"
    assert cert.reason == "checked"
    # each certificate gets its own data dict
    assert cert.data == {} and cert.data is not Certificate("F4", "e=0", OBSTRUCTED).data
    with pytest.raises(AttributeError):
        cert.unknown = 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: hopf.HopfType("V"), ValueError, "unknown Hopf type 'V'"),
    (lambda: hopf.HopfType("III"), ValueError, "type III needs an integer p >= 2"),
    (lambda: hopf.HopfType("IIa", 1), ValueError, "type IIa needs an integer p >= 2"),
    (lambda: hopf.HopfType("IV", 2), ValueError, "type IV takes no exponent p"),
    (lambda: Chart("C", ()), ValueError, "chart variables must be nonempty and distinct"),
    (lambda: Chart("C", ("x", "x")), ValueError,
     "chart variables must be nonempty and distinct"),
    (lambda: ChartMap(W, W, {"z": Z}, {"z": Z, "w": WV}), ValueError,
     "forward map must define every target variable"),
    (lambda: ChartMap(W, W, {"z": Z, "w": WV}, {"z": Z}), ValueError,
     "inverse map must define every source variable"),
    (lambda: ChartMap(W, W, {"z": Z, "w": WV}, {"z": Z * 2, "w": WV}), ValueError,
     "forward o inverse is not the identity on 'z'"),
    (lambda: LabeledBasis("b", ("x", "x")), ValueError, "duplicate basis element in b"),
    (lambda: ruled.RuledPoisson(ruled.make_surface(3), *_ruled_parts(3, e=3)), ValueError,
     "e(z) violates the degree cap for m=3"),
    (lambda: ruled.RuledPoisson(ruled.make_surface(3), *_ruled_parts(3, f="xi")), ValueError,
     "f(z) may only involve z and parameters"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def _ruled_parts(m, e=None, f=None):
    """(d, e, f) on F_m, zero except e = z^e or f = the named variable."""
    rs = ruled.make_surface(m)
    zero = LaurentPoly.zero(rs.registry)
    return (zero, rs.z(e) if e is not None else zero,
            rs.param(f) if f is not None else zero)


def test_geometry_fields_are_keyword_only():
    ctx = hopf.make_context(hopf.HopfType("IV"))
    with pytest.raises(TypeError):
        hopf.HopfContext(ctx.chart, ctx.registry, (), ctx.type, ctx.contraction)
    rs = ruled.make_surface(2)
    with pytest.raises(TypeError):
        ruled.RuledSurface(rs.chart, rs.registry, (), 2, rs.chart2, rs.transition)
    again = ruled.RuledSurface(rs.chart, rs.registry, m=2, chart2=rs.chart2,
                               transition=rs.transition)
    assert again == rs
