"""Rational ruled surfaces and their Poisson deformation calculus.

The surface with twist m is glued from two charts U1 (coordinates z, xi)
and U2 (zp, xip) by zp = 1/z, xip = z^m xi.  First cohomology is
computed on this two-chart cover: an overlap section splits into a
U1-holomorphic part, a U2-holomorphic part and a finite class window of
negative z-powers, which is exactly the coordinate model used for every
computation here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, Reducer,
                     cokernel_space, generic_rank, kernel_basis, matrix_of_map,
                     quotient_coords, quotient_space)
from .multivector import (Chart, ChartMap, MultiVector, pushforward, schouten)
from .obstruction import (OBSTRUCTED, Certificate,
                          DeformationComplexModel, NotACocycle, r4_search)

MAX_M = 12


class RationalPartSurvives(Exception):
    """A rational residue that the transition cannot absorb."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class KSDegenerate(Exception):
    pass


class NotObstructedStratum(Exception):
    pass


@dataclass(frozen=True)
class RuledSurface:
    m: int
    registry: VarRegistry
    chart1: Chart
    chart2: Chart
    transition: ChartMap

    def z(self, power=1):
        return LaurentPoly.var(self.registry, "z", power)

    def xi(self, power=1):
        return LaurentPoly.var(self.registry, "xi", power)

    def param(self, name):
        return LaurentPoly.var(self.registry, name)

    def const(self, value):
        return LaurentPoly.const(self.registry, value)

    def mv1(self, coeff, vars):
        return MultiVector.term(self.chart1, self.registry, coeff, vars)

    def zero1(self):
        return MultiVector.zero(self.chart1, self.registry)


def make_surface(m: int, params: Sequence[str] = ()) -> RuledSurface:
    if m < 0 or m > MAX_M:
        raise ValueError(f"m must lie in 0..{MAX_M}")
    reg = VarRegistry(("z", "xi", "zp", "xip"), tuple(params))
    chart1 = Chart("U1", ("z", "xi"))
    chart2 = Chart("U2", ("zp", "xip"))
    z = LaurentPoly.var(reg, "z")
    xi = LaurentPoly.var(reg, "xi")
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    trans = ChartMap(chart1, chart2,
                     {"zp": z ** -1, "xip": z ** m * xi},
                     {"z": zp ** -1, "xi": zp ** m * xip})
    return RuledSurface(m, reg, chart1, chart2, trans)


# ----------------------------------------------------------------------
# Poisson structures

@dataclass
class RuledPoisson:
    """Global bivector (d(z) + e(z) xi + f(z) xi^2) dz ^ dxi."""

    surface: RuledSurface
    d: LaurentPoly
    e: LaurentPoly
    f: LaurentPoly

    def __post_init__(self):
        m = self.surface.m
        caps = {"d": 2 - m, "e": 2, "f": m + 2}
        for name, poly in (("d", self.d), ("e", self.e), ("f", self.f)):
            if poly.is_zero():
                continue
            if not poly.uses_only(("z",) + self.surface.registry.param_vars):
                raise ValueError(f"{name}(z) may only involve z and parameters")
            lo, hi = poly.degree_range("z")
            if lo < 0 or hi > caps[name]:
                raise ValueError(f"{name}(z) violates the degree cap for m={m}")
        pushed = pushforward(self.surface.transition, self.bivector())
        for poly in pushed.components.values():
            if not poly.is_holomorphic(("zp", "xip")):
                raise ValueError("bivector does not extend holomorphically to U2")

    def bivector(self) -> MultiVector:
        s = self.surface
        coeff = self.d + self.e * s.xi() + self.f * s.xi(2)
        return s.mv1(coeff, ("z", "xi"))

    def e_is_zero(self) -> bool:
        return self.e.is_zero()

    def stratum(self) -> str:
        if self.surface.m <= 3:
            return "any"
        return "e=0" if self.e_is_zero() else "e!=0"


def poisson_from_bivector(rs: RuledSurface, mv: MultiVector) -> RuledPoisson:
    if mv.grades() - {2} != set() and not mv.is_zero():
        raise ValueError("expected a bivector")
    coeff = mv.coefficient(("z", "xi"))
    by_xi = coeff.coefficients_in("xi")
    zero = LaurentPoly.zero(rs.registry)
    for k in by_xi:
        if k not in (0, 1, 2):
            raise ValueError("bivector coefficient must be quadratic in xi")
    return RuledPoisson(rs, by_xi.get(0, zero), by_xi.get(1, zero), by_xi.get(2, zero))


# ----------------------------------------------------------------------
# bases

def h_bases(rs: RuledSurface) -> dict:
    m = rs.m
    one = rs.const(1)
    theta = []
    if m == 0:
        for k in range(3):
            theta.append(rs.mv1(rs.z(k) if k else one, ("z",)))
        theta.append(rs.mv1(one, ("xi",)))
        theta.append(rs.mv1(rs.xi(), ("xi",)))
        theta.append(rs.mv1(rs.xi(2), ("xi",)))
    else:
        theta.append(rs.mv1(one, ("z",)))
        theta.append(rs.mv1(rs.z(), ("z",)))
        # the z^2 d/dz direction only extends together with -m z xi d/dxi
        theta.append(rs.mv1(rs.z(2), ("z",)) + rs.mv1(rs.z() * rs.xi() * (-m), ("xi",)))
        theta.append(rs.mv1(rs.xi(), ("xi",)))
        for j in range(m + 1):
            theta.append(rs.mv1(rs.z(j) * rs.xi(2), ("xi",)))
    sq = []
    if m <= 2:
        for j in range(2 - m + 1):
            sq.append(rs.mv1(rs.z(j), ("z", "xi")))
    for j in range(3):
        sq.append(rs.mv1(rs.z(j) * rs.xi(), ("z", "xi")))
    for j in range(m + 3):
        sq.append(rs.mv1(rs.z(j) * rs.xi(2), ("z", "xi")))
    h1_theta = [rs.mv1(rs.z(-k), ("xi",)) for k in range(1, m)]
    h1_sq = [rs.mv1(rs.z(-k), ("z", "xi")) for k in range(1, m - 2)]
    return {
        "h0_theta": LabeledBasis(f"H0(F{m},Theta)", tuple(theta)),
        "h0_sq": LabeledBasis(f"H0(F{m},Wedge2Theta)", tuple(sq)),
        "h1_theta": LabeledBasis(f"H1(F{m},Theta)", tuple(h1_theta)),
        "h1_sq": LabeledBasis(f"H1(F{m},Wedge2Theta)", tuple(h1_sq)),
    }


def h_dims(m: int) -> tuple[int, int, int, int]:
    rs = make_surface(m)
    b = h_bases(rs)
    return (len(b["h0_theta"]), len(b["h0_sq"]), len(b["h1_theta"]), len(b["h1_sq"]))


# ----------------------------------------------------------------------
# overlap sections and their chart splitting

def _split_poly(poly: LaurentPoly, keep_lo: int, keep_hi: int):
    """Split a Laurent polynomial in z into (z-deg >= 0, window, rest).

    The window collects exponents n with keep_lo <= n <= keep_hi; the
    rest (below the window) belongs to the other chart.
    """
    reg = poly.registry
    nonneg = LaurentPoly.zero(reg)
    window: dict[int, LaurentPoly] = {}
    low = LaurentPoly.zero(reg)
    for n, coeff in poly.coefficients_in("z").items():
        seg = coeff * LaurentPoly.var(reg, "z", n) if n else coeff
        if n >= 0:
            nonneg = nonneg + seg
        elif keep_lo <= n <= keep_hi:
            window[-n] = coeff
        else:
            low = low + seg
    return nonneg, window, low


def split_theta(rs: RuledSurface, v: MultiVector):
    """Split an overlap vector field into chart parts and its class window.

    Returns (part1, part2, cls) with v = part1 + part2 + window, part1
    holomorphic on U1, part2 the restriction of a field holomorphic on
    U2 (expressed in U1 coordinates), and cls mapping k to the z^-k
    coefficient of the xi-free d/dxi component, k = 1 .. m-1.
    """
    m = rs.m
    reg = rs.registry
    if v.chart != rs.chart1:
        raise NotInSpan("overlap sections are expressed on U1")
    gcoef = v.coefficient(("z",))
    xicoef = v.coefficient(("xi",))
    if not gcoef.uses_only(("z",) + reg.param_vars):
        raise NotInSpan("d/dz component of an overlap field must be xi-free")
    parts_by_xi = xicoef.coefficients_in("xi")
    if any(k not in (0, 1, 2) for k in parts_by_xi):
        raise NotInSpan("d/dxi component must have xi-degree at most 2")
    zero = LaurentPoly.zero(reg)
    a = parts_by_xi.get(0, zero)
    b = parts_by_xi.get(1, zero)
    c = parts_by_xi.get(2, zero)

    part1 = rs.zero1()
    part2 = rs.zero1()
    # d/dz block: absorbing z^n dz into U2 (n < 0) drags in -m z^{n-1} xi dxi
    for n, coeff in gcoef.coefficients_in("z").items():
        seg = coeff * rs.z(n) if n else coeff
        if n >= 0:
            part1 = part1 + rs.mv1(seg, ("z",))
        else:
            companion = coeff * rs.z(n - 1) * (-m)
            part2 = part2 + rs.mv1(seg, ("z",)) + rs.mv1(companion * rs.xi(), ("xi",))
            b = b - companion
    # xi-free d/dxi block carries the class window
    a1, window, a2 = _split_poly(a, -(m - 1), -1)
    part1 = part1 + rs.mv1(a1, ("xi",))
    part2 = part2 + rs.mv1(a2, ("xi",))
    # xi and xi^2 blocks are fully absorbable
    for poly, xipow in ((b, 1), (c, 2)):
        nonneg, win, low = _split_poly(poly, 0, -1)
        assert not win
        part1 = part1 + rs.mv1(nonneg * rs.xi(xipow), ("xi",))
        part2 = part2 + rs.mv1(low * rs.xi(xipow), ("xi",))
    return part1, part2, window


def split_sq(rs: RuledSurface, v: MultiVector):
    """Same as split_theta for bivector overlap sections.

    The class window is the z^-k coefficient of the xi-free part,
    k = 1 .. m-3; the U2-absorbable range of that block is z-degree
    <= 2-m.
    """
    m = rs.m
    reg = rs.registry
    if v.chart != rs.chart1:
        raise NotInSpan("overlap sections are expressed on U1")
    if any(len(idx) not in (2,) for idx in v.components):
        raise NotInSpan("expected a pure bivector")
    coeff = v.coefficient(("z", "xi"))
    parts_by_xi = coeff.coefficients_in("xi")
    if any(k not in (0, 1, 2) for k in parts_by_xi):
        raise NotInSpan("bivector coefficient must have xi-degree at most 2")
    zero = LaurentPoly.zero(reg)
    d = parts_by_xi.get(0, zero)
    e = parts_by_xi.get(1, zero)
    f = parts_by_xi.get(2, zero)
    d1, window, d2 = _split_poly(d, -(m - 3), -1)
    part1 = rs.mv1(d1, ("z", "xi"))
    part2 = rs.mv1(d2, ("z", "xi"))
    for poly, xipow in ((e, 1), (f, 2)):
        nonneg, win, low = _split_poly(poly, 0, -1)
        assert not win
        part1 = part1 + rs.mv1(nonneg * rs.xi(xipow), ("z", "xi"))
        part2 = part2 + rs.mv1(low * rs.xi(xipow), ("z", "xi"))
    return part1, part2, window


def _window_coords(rs, window: dict, count: int) -> list[LaurentPoly]:
    zero = LaurentPoly.zero(rs.registry)
    return [window.get(k, zero) for k in range(1, count + 1)]


def reduce_h1_theta(rs: RuledSurface) -> Reducer:
    def fn(v: MultiVector):
        _, _, window = split_theta(rs, v)
        return _window_coords(rs, window, rs.m - 1)

    return Reducer(f"H1(F{rs.m},Theta) classes", fn)


def reduce_h1_sq(rs: RuledSurface) -> Reducer:
    def fn(v: MultiVector):
        _, _, window = split_sq(rs, v)
        return _window_coords(rs, window, rs.m - 3)

    return Reducer(f"H1(F{rs.m},Wedge2Theta) classes", fn)


def reduce_h0_sq(rs: RuledSurface) -> Reducer:
    """Coordinates of a global bivector in the monomial H0 basis."""
    m = rs.m

    def fn(v: MultiVector):
        pois = poisson_from_bivector(rs, v)
        coords = []
        if m <= 2:
            for j in range(2 - m + 1):
                coords.append(pois.d.coefficient_of("z", j))
        elif not pois.d.is_zero():
            raise NotInSpan("no xi-free global bivectors for m >= 3")
        for j in range(3):
            coords.append(pois.e.coefficient_of("z", j))
        for j in range(m + 3):
            coords.append(pois.f.coefficient_of("z", j))
        # anything outside the caps means the input was not global
        for name, poly, cap in (("d", pois.d, 2 - m), ("e", pois.e, 2), ("f", pois.f, m + 2)):
            if poly.is_zero():
                continue
            lo, hi = poly.degree_range("z")
            if lo < 0 or hi > max(cap, 0):
                raise NotInSpan(f"{name}-part outside the global degree caps")
        return coords

    return Reducer(f"H0(F{m},Wedge2Theta) coordinates", fn)


# ----------------------------------------------------------------------
# the bracket matrices and Table 1

def h1_bracket_matrix(rs: RuledSurface, lam0: MultiVector) -> LinMap:
    bases = h_bases(rs)
    red = reduce_h1_sq(rs)
    return matrix_of_map(lambda b: schouten(lam0, b), bases["h1_theta"], bases["h1_sq"],
                         red, rs.registry)


def h0_bracket_matrix(rs: RuledSurface, lam0: MultiVector) -> LinMap:
    bases = h_bases(rs)
    red = reduce_h0_sq(rs)
    return matrix_of_map(lambda b: schouten(lam0, b), bases["h0_theta"], bases["h0_sq"],
                         red, rs.registry)


def complex_model(rs: RuledSurface, pois: RuledPoisson) -> DeformationComplexModel:
    bases = h_bases(rs)
    lam0 = pois.bivector()
    mat = h1_bracket_matrix(rs, lam0) if len(bases["h1_theta"]) else None
    h2 = len(bases["h1_sq"]) - (generic_rank(mat) if mat is not None else 0)

    def compose_check():
        # the complex property [lam0, [lam0, x]] = 0; trivially graded away
        # on a surface chart but computed anyway
        for x in bases["h0_theta"]:
            out = schouten(lam0, schouten(lam0, x))
            if not out.is_zero():
                raise AssertionError("bracket does not square to zero")

    return DeformationComplexModel(
        name=f"F{rs.m}",
        stratum=pois.stratum(),
        registry=rs.registry,
        h0_sq=bases["h0_sq"],
        h1_theta=bases["h1_theta"],
        h1_sq=bases["h1_sq"],
        bracket=schouten,
        reduce_h1_sq=reduce_h1_sq(rs),
        h1_matrix=mat,
        h2_dim=h2,
        compose_check=compose_check,
    )


@dataclass
class Table1Row:
    m: int
    stratum: str
    dim_h2: int
    obstructed: bool
    certificate: Certificate


def table1_verdict(rs: RuledSurface, pois: RuledPoisson) -> Table1Row:
    model = complex_model(rs, pois)
    cert = r4_search(model)
    return Table1Row(rs.m, pois.stratum(), model.h2_dim,
                     cert.verdict == OBSTRUCTED, cert)


def lemma_r4_certificate(rs: RuledSurface, pois: RuledPoisson) -> Certificate:
    """The canonical witness on the obstructed stratum: a = xi dz^dxi and
    b = z^-1 dxi, whose class survives in the H1 window."""
    if rs.m < 4 or not pois.e_is_zero():
        raise NotObstructedStratum(f"F{rs.m} with stratum {pois.stratum()!r}")
    a = rs.mv1(rs.xi(), ("z", "xi"))
    b = rs.mv1(rs.z(-1), ("xi",))
    cls = reduce_h1_sq(rs)(schouten(a, b))
    if all(p.is_zero() for p in cls):
        raise AssertionError("canonical witness class vanished")
    model = complex_model(rs, pois)
    if model.h1_image_space().contains(list(cls)):
        raise AssertionError("canonical witness class lies in the bracket image")
    class_elem = None
    for c, e in zip(cls, h_bases(rs)["h1_sq"]):
        if not c.is_zero():
            piece = e.scale(c)
            class_elem = piece if class_elem is None else class_elem + piece
    return Certificate(f"F{rs.m}", pois.stratum(), OBSTRUCTED,
                       witness={"a": str(a), "b": str(b)},
                       class_repr=str(class_elem))


# ----------------------------------------------------------------------
# hypercohomology H1 model and class coordinates

@dataclass
class H1Model:
    surface: RuledSurface
    lam0: MultiVector
    coker_reps: list
    coker_space: ColumnSpace
    ker_elements: list
    ker_space: ColumnSpace

    @property
    def dim(self):
        return len(self.coker_reps) + len(self.ker_elements)

    def basis_strings(self):
        return [str(e) for e in self.coker_reps] + [str(e) for e in self.ker_elements]


def hyper_h1(rs: RuledSurface, pois: RuledPoisson) -> H1Model:
    bases = h_bases(rs)
    lam0 = pois.bivector()
    h0m = h0_bracket_matrix(rs, lam0)
    coker_space = cokernel_space(h0m)
    reps = []
    for vec in coker_space.reps:
        elem = None
        for c, e in zip(vec, bases["h0_sq"]):
            if c.is_zero():
                continue
            piece = e.scale(c)
            elem = piece if elem is None else elem + piece
        reps.append(elem)
    ker_vectors = []
    ker_elements = []
    if len(bases["h1_theta"]):
        mat = h1_bracket_matrix(rs, lam0)
        for vec in kernel_basis(mat):
            elem = None
            for c, e in zip(vec, bases["h1_theta"]):
                if c.is_zero():
                    continue
                piece = e.scale(c)
                elem = piece if elem is None else elem + piece
            ker_vectors.append(vec)
            ker_elements.append(elem)
    return H1Model(rs, lam0, reps, coker_space, ker_elements,
                   quotient_space((), ker_vectors, len(bases["h1_theta"]), rs.registry))


def hyper_class_coords(model: H1Model, lam1: MultiVector, lam2_primed: MultiVector,
                       theta12: MultiVector) -> list[LaurentPoly]:
    """Coordinates of the hypercohomology class of a Cech pair.

    The pair is ({lam1 on U1, lam2 on U2}, theta12 on the overlap); the
    result lists the cokernel coordinates followed by the kernel-window
    coordinates, in the model's basis order.
    """
    rs = model.surface
    lam0 = model.lam0
    pull = pushforward(rs.transition.inverse_map(), lam2_primed)
    cocycle = pull - lam1 + schouten(lam0, theta12)
    if not cocycle.is_zero():
        raise NotACocycle("lam2 - lam1 + [lam0, theta12] != 0 on the overlap")
    part1, part2, window = split_theta(rs, theta12)
    ker_window = _window_coords(rs, window, rs.m - 1)
    # class must sit inside the kernel of the H1 bracket map
    bracket_cls = reduce_h1_sq(rs)(schouten(lam0, theta12))
    if not all(p.is_zero() for p in bracket_cls):
        raise NotACocycle("theta12 class is not killed by the bracket map")
    # strip the kernel-window part, then the remaining residual is a
    # coboundary rho = part1 + part2 split above... recompute residual split
    residual = theta12
    nu1_total = rs.zero1()
    nu2_total = rs.zero1()
    for k, coeff in sorted(window.items()):
        bk = rs.mv1(rs.z(-k), ("xi",))
        residual = residual - bk.scale(coeff)
        n1, n2, w = split_sq(rs, schouten(lam0, bk))
        if w:
            raise NotACocycle(f"z^-{k} window direction is not in the bracket kernel")
        nu1_total = nu1_total + n1.scale(coeff)
        nu2_total = nu2_total + n2.scale(coeff)
    r1, r2, w2 = split_theta(rs, residual)
    if w2:
        raise AssertionError("residual after stripping the window still has a class part")
    glob1 = lam1 - nu1_total - schouten(lam0, r1)
    glob2 = pull + nu2_total + schouten(lam0, r2)
    if glob1 != glob2:
        raise AssertionError("adjusted bivector parts disagree across charts")
    coker_coords = quotient_coords(model.coker_space, reduce_h0_sq(rs)(glob1))
    # kernel coordinates with respect to the kernel basis vectors
    if model.ker_space.reps:
        ker_coords = quotient_coords(model.ker_space, ker_window)
    else:
        if any(not p.is_zero() for p in ker_window):
            raise NotACocycle("window class outside the kernel span")
        ker_coords = []
    return coker_coords + ker_coords


# ----------------------------------------------------------------------
# explicit Poisson analytic families

@dataclass
class RuledFamily:
    surface: RuledSurface
    params: tuple[str, ...]
    transition_t: ChartMap
    lambda_t: MultiVector
    base: RuledPoisson

    def at_zero(self, poly: LaurentPoly) -> LaurentPoly:
        zero = {t: LaurentPoly.const(self.surface.registry, 0) for t in self.params}
        return poly.substitute(zero)


def _family_transition(rs: RuledSurface, correction: LaurentPoly) -> ChartMap:
    reg = rs.registry
    m = rs.m
    z = rs.z()
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    corr_p = correction.substitute({"z": zp ** -1})
    return ChartMap(rs.chart1, rs.chart2,
                    {"zp": z ** -1, "xip": z ** m * rs.xi() + correction},
                    {"z": zp ** -1, "xi": zp ** m * xip - zp ** m * corr_p})


def _negative_zp_part(rs: RuledSurface, mv2: MultiVector) -> MultiVector:
    comps = {}
    reg = rs.registry
    for idx, poly in mv2.components.items():
        neg = LaurentPoly.zero(reg)
        for n, coeff in poly.coefficients_in("zp").items():
            if n < 0:
                neg = neg + coeff * LaurentPoly.var(reg, "zp", n)
        if not neg.is_zero():
            comps[idx] = neg
    return MultiVector(rs.chart2, reg, comps)


def build_family(m: int, params: Sequence[str], correction_coeff, seed_coeff,
                 corrected: bool = True) -> RuledFamily:
    """Assemble a deformation family from transition correction and seed.

    `correction_coeff` and `seed_coeff` are builders taking the surface
    and returning the xi' transition correction (a polynomial in z and
    the parameters) and the seed bivector coefficient.  When `corrected`
    the rational residue of the pushed seed is pulled back and
    subtracted, which is exactly the construction that makes the family
    global; with corrected=False verification fails by design.
    """
    rs = make_surface(m, params)
    corr = correction_coeff(rs)
    seed = seed_coeff(rs)
    trans = _family_transition(rs, corr)
    pi = rs.mv1(seed, ("z", "xi"))
    lam = pi
    if corrected:
        pushed = pushforward(trans, pi)
        residue = _negative_zp_part(rs, pushed)
        if not residue.is_zero():
            pulled = pushforward(trans.inverse_map(), residue)
            for poly in pulled.components.values():
                if not poly.is_holomorphic(("z",)):
                    raise RationalPartSurvives(
                        "pulled-back residue is itself rational; the chosen "
                        "transition cannot absorb it", residual=str(pulled))
            lam = pi - pulled
            check = _negative_zp_part(rs, pushforward(trans, lam))
            if not check.is_zero():
                raise RationalPartSurvives("single correction round left a residue",
                                           residual=str(check))
    zero_t = {t: LaurentPoly.const(rs.registry, 0) for t in params}
    base_mv = lam.map_coefficients(lambda p: p.substitute(zero_t))
    base = poisson_from_bivector(rs, base_mv)
    return RuledFamily(rs, tuple(params), trans, lam, base)


def family_f2(corrected=True) -> RuledFamily:
    params = tuple(f"t{i}" for i in range(1, 11))

    def corr(rs):
        return rs.param("t1") * rs.z()

    def seed(rs):
        t = {i: rs.param(f"t{i}") for i in range(1, 11)}
        return (t[2]
                + (t[3] + t[4] * rs.z() + t[5] * rs.z(2)) * rs.xi()
                + (t[6] + t[7] * rs.z() + t[8] * rs.z(2) + t[9] * rs.z(3)
                   + t[10] * rs.z(4)) * rs.xi(2))

    return build_family(2, params, corr, seed, corrected)


def family_f3(corrected=True) -> RuledFamily:
    params = tuple(f"t{i}" for i in range(1, 12))

    def corr(rs):
        return rs.param("t1") * rs.z() + rs.param("t2") * rs.z(2)

    def seed(rs):
        t = {i: rs.param(f"t{i}") for i in range(1, 12)}
        return ((t[3] + t[4] * rs.z() + t[5] * rs.z(2)) * rs.xi()
                + (t[6] + t[7] * rs.z() + t[8] * rs.z(2) + t[9] * rs.z(3)
                   + t[10] * rs.z(4) + t[11] * rs.z(5)) * rs.xi(2))

    return build_family(3, params, corr, seed, corrected)


def family_f4(corrected=True) -> RuledFamily:
    params = tuple(f"t{i}" for i in range(1, 6))

    def corr(rs):
        t1, t2, t3 = rs.param("t1"), rs.param("t2"), rs.param("t3")
        return t1 * rs.z() + t2 * rs.z(3) - (t2 * t2 + t2 * t3) * rs.z(2)

    def seed(rs):
        t2, t3, t4, t5 = (rs.param(f"t{i}") for i in (2, 3, 4, 5))
        return (t2
                + (t2 * 2 + t3 + rs.z() + t4 * rs.z() + t3 * t4 + t2 * t4) * rs.xi()
                + (rs.z() + t5 * rs.z(6)) * rs.xi(2))

    return build_family(4, params, corr, seed, corrected)


def family_f5(corrected=True) -> RuledFamily:
    params = tuple(f"t{i}" for i in range(1, 6))

    def corr(rs):
        t1, t2, t4, t5 = (rs.param(f"t{i}") for i in (1, 2, 4, 5))
        return (t1 * rs.z() + t2 * rs.z(4) + t2 * t2 * t4 * rs.z(2)
                - t1 * t1 * t5 * rs.z(3))

    def seed(rs):
        t2, t3, t4, t5 = (rs.param(f"t{i}") for i in (2, 3, 4, 5))
        return (t2
                + (rs.z() + t3 * rs.z()) * rs.xi()
                + (t4 + t5 * rs.z(7) + t3 * t4 + t3 * t5 * rs.z(7)) * rs.xi(2))

    return build_family(5, params, corr, seed, corrected)


FAMILIES = {"f2": family_f2, "f3": family_f3, "f4": family_f4, "f5": family_f5}


@dataclass
class FamilyReport:
    name: str
    dim_h1: int
    n_params: int
    ks_matrix: list
    basis: list

    @property
    def ok(self):
        return self.dim_h1 == self.n_params


def verify_family(fam: RuledFamily, expected_basis: Sequence[str] | None = None
                  ) -> FamilyReport:
    """Run the three family checks: holomorphic pushforward for symbolic
    parameters, the Poisson identity, and full rank of the map sending
    parameter directions to hypercohomology classes.

    `expected_basis` pins the printed first-cohomology basis the tangent
    directions must hit.
    """
    rs = fam.surface
    reg = rs.registry
    pushed = pushforward(fam.transition_t, fam.lambda_t)
    residue = _negative_zp_part(rs, pushed)
    if not residue.is_zero():
        raise RationalPartSurvives(
            "family bivector does not extend to U2", residual=str(residue))
    square = schouten(fam.lambda_t, fam.lambda_t)
    if not square.is_zero():
        raise AssertionError("[Lambda_t, Lambda_t] != 0")
    model = hyper_h1(rs, fam.base)
    zero_t = {t: LaurentPoly.const(reg, 0) for t in fam.params}
    columns = []
    xip_expr = fam.transition_t.forward["xip"]
    for tname in fam.params:
        lam1 = fam.lambda_t.map_coefficients(lambda p: p.partial(tname).substitute(zero_t))
        lam2 = pushed.map_coefficients(lambda p: p.partial(tname).substitute(zero_t))
        # theta21 from the transition derivative, in the U1 frame at t = 0
        dxi = xip_expr.partial(tname).substitute(zero_t)
        theta21 = rs.mv1(dxi * rs.z(-rs.m), ("xi",))
        theta12 = -theta21
        columns.append(hyper_class_coords(model, lam1, lam2, theta12))
    dim = model.dim
    if expected_basis is not None and list(expected_basis) != model.basis_strings():
        raise KSDegenerate("first-cohomology basis differs from the expected one")
    if len(fam.params) != dim:
        raise KSDegenerate(f"family has {len(fam.params)} parameters but dim H1 = {dim}")
    rows = [[columns[j][i] for j in range(len(columns))] for i in range(dim)]
    dom = LabeledBasis("t-directions", fam.params)
    cod = LabeledBasis("H1 coordinates", tuple(f"c{i}" for i in range(dim)))
    ksmap = LinMap(dom, cod, rows)
    if generic_rank(ksmap) != dim:
        raise KSDegenerate("the map onto first cohomology classes is not onto")
    return FamilyReport(
        name=f"F{rs.m}", dim_h1=dim, n_params=len(fam.params),
        ks_matrix=[[str(e) for e in r] for r in rows],
        basis=model.basis_strings(),
    )


# ----------------------------------------------------------------------
# the two-chart Cech square of a 1-cocycle

@dataclass
class CechSquare:
    gamma1: MultiVector
    gamma2: MultiVector
    eta12: MultiVector


def cech_square(rs: RuledSurface, lam0: MultiVector, lam1: MultiVector,
                lam2_primed: MultiVector, theta12: MultiVector) -> CechSquare:
    """Square a 1-cocycle ({lam_j}, theta12) into the 2-cochain (gamma, eta).

    Preconditions are the cocycle identities; the returned data is
    checked against the two squared identities, everything exact.
    """
    pull = pushforward(rs.transition.inverse_map(), lam2_primed)
    for lam, label in ((lam1, "lam1"), (pull, "lam2")):
        if not schouten(lam0, lam).is_zero():
            raise NotACocycle(f"[lam0, {label}] != 0")
    if not (pull - lam1 + schouten(lam0, theta12)).is_zero():
        raise NotACocycle("lam2 - lam1 + [lam0, theta12] != 0")
    gamma1 = -schouten(lam1, lam1)
    gamma2_primed = -schouten(lam2_primed, lam2_primed)
    eta12 = -schouten(lam1 + pull, theta12)
    # squared identities, all computed exactly
    if not schouten(lam0, gamma1).is_zero():
        raise AssertionError("[lam0, gamma1] != 0")
    gamma2_pull = pushforward(rs.transition.inverse_map(), gamma2_primed)
    check = gamma1 - gamma2_pull + schouten(lam0, eta12)
    if not check.is_zero():
        raise AssertionError("-delta(gamma) + [lam0, eta] != 0")
    return CechSquare(gamma1, gamma2_primed, eta12)


def random_cocycle(rs: RuledSurface, pois: RuledPoisson, rng: random.Random):
    """A random valid 1-cocycle ({lam1, lam2}, theta12) for property tests."""
    bases = h_bases(rs)
    lam0 = pois.bivector()

    def rand_comb(basis):
        elem = None
        for e in basis:
            c = rng.randint(-2, 2)
            if not c:
                continue
            piece = e.scale(rs.const(c))
            elem = piece if elem is None else elem + piece
        return elem if elem is not None else rs.zero1()

    u1 = rand_comb(bases["h0_theta"])
    # a chart-2 holomorphic field, expressed on U1 by pulling it back
    rs2_basis = []
    reg = rs.registry
    one = rs.const(1)
    zp = LaurentPoly.var(reg, "zp")
    xip = LaurentPoly.var(reg, "xip")
    for coeff, vars in (
        (one, ("zp",)), (zp, ("zp",)),
        (xip, ("xip",)), (xip * xip, ("xip",)), (zp * xip * xip, ("xip",)),
    ):
        rs2_basis.append(MultiVector.term(rs.chart2, reg, coeff, vars))
    u2p = None
    for e in rs2_basis:
        c = rng.randint(-2, 2)
        if not c:
            continue
        piece = e.scale(rs.const(c))
        u2p = piece if u2p is None else u2p + piece
    u2 = (pushforward(rs.transition.inverse_map(), u2p)
          if u2p is not None else rs.zero1())
    theta = u2 - u1
    nu1 = rs.zero1()
    nu2 = rs.zero1()
    model = hyper_h1(rs, pois)
    for elem in model.ker_elements:
        c = rng.randint(-2, 2)
        if not c:
            continue
        theta = theta + elem.scale(rs.const(c))
        n1, n2, w = split_sq(rs, schouten(lam0, elem.scale(rs.const(c))))
        assert not w
        nu1 = nu1 + n1
        nu2 = nu2 + n2
    v = rand_comb(bases["h0_sq"])
    lam1 = v - schouten(lam0, u1) + nu1
    lam2_unprimed = v - schouten(lam0, u2) - nu2
    lam2 = pushforward(rs.transition, lam2_unprimed)
    return lam1, lam2, theta


# ----------------------------------------------------------------------
# sweeps

def random_poisson(rs: RuledSurface, rng: random.Random, force_e_zero=None) -> RuledPoisson:
    m = rs.m
    reg = rs.registry

    def rand_poly(cap):
        out = LaurentPoly.zero(reg)
        if cap < 0:
            return out
        for j in range(cap + 1):
            out = out + LaurentPoly.const(reg, rng.randint(-3, 3)) * rs.z(j)
        return out

    d = rand_poly(2 - m)
    e = rand_poly(2)
    f = rand_poly(m + 2)
    if force_e_zero is True:
        e = LaurentPoly.zero(reg)
    elif force_e_zero is False and e.is_zero():
        e = rs.const(1)
    return RuledPoisson(rs, d, e, f)


def table1_sweep(m_max: int) -> list[Table1Row]:
    """One row per stratum of Table 1, with symbolic stratum parameters."""
    rows = []
    for m in range(m_max + 1):
        rs = make_surface(m, ("e0", "e1", "e2") + tuple(f"f{j}" for j in range(m + 3)))
        zero = LaurentPoly.zero(rs.registry)
        f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(m + 3)), zero)
        e_sym = rs.param("e0") + rs.param("e1") * rs.z() + rs.param("e2") * rs.z(2)
        rows.append(table1_verdict(rs, RuledPoisson(rs, zero, e_sym, f_sym)))
        if m >= 4:
            rows.append(table1_verdict(rs, RuledPoisson(rs, zero, zero, f_sym)))
    return rows
