"""Rational ruled surfaces and their Poisson deformation calculus.

The surface with twist m is glued from two charts U1 (coordinates z, xi)
and U2 (zp, xip) by zp = 1/z, xip = z^m xi.  First cohomology is
computed on this two-chart cover: an overlap section splits into a
U1-holomorphic part, a U2-holomorphic part and a finite class window of
negative z-powers, which is exactly the coordinate model used for every
computation here.  `complex_model` puts a structure's two bracket
maps, on these H0 and H1 models, into the one
`obstruction.DeformationComplexModel`: Table 1 reads dim H2 off its H1
map, and the family checks read first cohomology off the same model.

A surface builds its four H-bases (`h_bases`) and its per-basis H1
bracket maps (`h1_maps`) on first use and keeps them as `bases` and
`maps`.  `surface_for` hands out F_m with the given parameter names from
the one process store (`obstruction.stored`, key `("F", m, params)`; at
most 30 surfaces: m = 0..12 bare and with the parameters of
`table1_sweep`, and the four family surfaces), so a process serving a
stream of classify requests builds each, with its bases and maps, once.
`make_surface` builds a fresh surface that no store holds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property

from .laurent import LaurentPoly, VarRegistry
from .linalg import LabeledBasis, LinMap, MapFamily, NotInSpan, matrix_of_map
from .multivector import (Chart, ChartFrame, ChartMap, MultiVector, basis_coords,
                          combination, pushforward, schouten)
from .obstruction import (OBSTRUCTED, Certificate, DeformationComplexModel, NotACocycle,
                          bracket_family, r4_search, stored)

_set = object.__setattr__

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


class RuledSurface(ChartFrame):
    """F_m; the frame's chart is U1, on which every field is built."""

    __slots__ = ("m", "chart2", "transition", "__dict__")

    def __init__(self, chart: Chart, registry: VarRegistry, dbar: tuple[str, ...] = (), *,
                 m: int, chart2: Chart, transition: ChartMap):
        ChartFrame.__init__(self, chart, registry, dbar)
        _set(self, "m", m)
        _set(self, "chart2", chart2)
        _set(self, "transition", transition)

    def _key(self) -> tuple:
        return self.chart, self.registry, self.dbar, self.m, self.chart2, self.transition

    @property
    def chart1(self) -> Chart:
        return self.chart

    @cached_property
    def bases(self) -> dict:
        return h_bases(self)

    @cached_property
    def maps(self) -> MapFamily:
        return h1_maps(self)


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
    return RuledSurface(chart1, reg, m=m, chart2=chart2, transition=trans)


def surface_for(m: int, params: Sequence[str] = ()) -> RuledSurface:
    """F_m with parameters `params`, from the store."""
    params = tuple(params)
    return stored(("F", m, params), lambda: make_surface(m, params))


# ----------------------------------------------------------------------
# Poisson structures

class RuledPoisson:
    """Global bivector (d(z) + e(z) xi + f(z) xi^2) dz ^ dxi.

    The degree caps decide extension to U2.  There dz ^ dxi =
    -zp^(2-m) dzp ^ dxip and xi = zp^m xip, so d_k z^k becomes a multiple
    of zp^(2-m-k), e_k z^k xi one of zp^(2-k) xip and f_k z^k xi^2 one of
    zp^(m+2-k) xip^2.  Distinct terms land on distinct monomials, so the
    bivector is holomorphic on U2 exactly when k <= 2-m, 2 and m+2 for
    the three parts, and on U1 when they are polynomials in z.
    """

    __slots__ = ("surface", "d", "e", "f")

    def __init__(self, surface: RuledSurface, d: LaurentPoly, e: LaurentPoly, f: LaurentPoly):
        m = surface.m
        caps = {"d": 2 - m, "e": 2, "f": m + 2}
        for name, poly in (("d", d), ("e", e), ("f", f)):
            if poly.is_zero():
                continue
            if not poly.uses_only(("z",) + surface.registry.param_vars):
                raise ValueError(f"{name}(z) may only involve z and parameters")
            lo, hi = poly.degree_range("z")
            if lo < 0 or hi > caps[name]:
                raise ValueError(f"{name}(z) violates the degree cap for m={m}")
        self.surface = surface
        self.d = d
        self.e = e
        self.f = f

    def bivector(self) -> MultiVector:
        """(d + e xi + f xi^2) dz ^ dxi.  `complex_model` builds it for
        every Table 1 row, which never builds the H0 map that reads it, so
        it is formed with no product: d, e and f are free of xi, so each
        term only gains its xi exponent, placed in its key behind that of
        z, and the three parts share no key."""
        s = self.surface
        xi = s.registry.index("xi")
        terms = {}
        for power, part in enumerate((self.d, self.e, self.f)):
            for key, coef in part.terms.items():
                at = sum(1 for idx, _ in key if idx < xi)
                terms[key[:at] + ((xi, power),) + key[at:] if power else key] = coef
        return s.mv(LaurentPoly._of_terms(s.registry, terms), ("z", "xi"))

    def e_is_zero(self) -> bool:
        return self.e.is_zero()

    def stratum(self) -> str:
        if self.surface.m <= 3:
            return "any"
        return "e=0" if self.e_is_zero() else "e!=0"


def poisson_from_bivector(rs: RuledSurface, mv: MultiVector) -> RuledPoisson:
    """The structure of a bivector on U1; the caller passes a bivector."""
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
            theta.append(rs.mv(rs.z(k) if k else one, ("z",)))
        theta.append(rs.mv(one, ("xi",)))
        theta.append(rs.mv(rs.xi(), ("xi",)))
        theta.append(rs.mv(rs.xi(2), ("xi",)))
    else:
        theta.append(rs.mv(one, ("z",)))
        theta.append(rs.mv(rs.z(), ("z",)))
        # the z^2 d/dz direction only extends together with -m z xi d/dxi
        theta.append(rs.mv(rs.z(2), ("z",)) + rs.mv(rs.z() * rs.xi() * (-m), ("xi",)))
        theta.append(rs.mv(rs.xi(), ("xi",)))
        for j in range(m + 1):
            theta.append(rs.mv(rs.z(j) * rs.xi(2), ("xi",)))
    sq = []
    if m <= 2:
        for j in range(2 - m + 1):
            sq.append(rs.mv(rs.z(j), ("z", "xi")))
    for j in range(3):
        sq.append(rs.mv(rs.z(j) * rs.xi(), ("z", "xi")))
    for j in range(m + 3):
        sq.append(rs.mv(rs.z(j) * rs.xi(2), ("z", "xi")))
    h1_theta = [rs.mv(rs.z(-k), ("xi",)) for k in range(1, m)]
    h1_sq = [rs.mv(rs.z(-k), ("z", "xi")) for k in range(1, m - 2)]
    return {
        "h0_theta": LabeledBasis(f"H0(F{m},Theta)", tuple(theta)),
        "h0_sq": LabeledBasis(f"H0(F{m},Wedge2Theta)", tuple(sq)),
        "h1_theta": LabeledBasis(f"H1(F{m},Theta)", tuple(h1_theta)),
        "h1_sq": LabeledBasis(f"H1(F{m},Wedge2Theta)", tuple(h1_sq)),
    }


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

    part1 = rs.zero()
    part2 = rs.zero()
    # d/dz block: absorbing z^n dz into U2 (n < 0) drags in -m z^{n-1} xi dxi
    for n, coeff in gcoef.coefficients_in("z").items():
        seg = coeff * rs.z(n) if n else coeff
        if n >= 0:
            part1 = part1 + rs.mv(seg, ("z",))
        else:
            companion = coeff * rs.z(n - 1) * (-m)
            part2 = part2 + rs.mv(seg, ("z",)) + rs.mv(companion * rs.xi(), ("xi",))
            b = b - companion
    # xi-free d/dxi block carries the class window
    a1, window, a2 = _split_poly(a, -(m - 1), -1)
    part1 = part1 + rs.mv(a1, ("xi",))
    part2 = part2 + rs.mv(a2, ("xi",))
    # xi and xi^2 blocks are fully absorbable
    for poly, xipow in ((b, 1), (c, 2)):
        nonneg, win, low = _split_poly(poly, 0, -1)
        assert not win
        part1 = part1 + rs.mv(nonneg * rs.xi(xipow), ("xi",))
        part2 = part2 + rs.mv(low * rs.xi(xipow), ("xi",))
    return part1, part2, window


def _bivector_xi_parts(rs: RuledSurface, v: MultiVector) -> dict[int, LaurentPoly]:
    """The xi-degree parts of the coefficient of a bivector overlap section.

    Raises NotInSpan unless v lies on U1, is a pure bivector and has
    xi-degree in 0..2.
    """
    if v.chart != rs.chart1:
        raise NotInSpan("overlap sections are expressed on U1")
    if any(len(idx) != 2 for idx in v.components):
        raise NotInSpan("expected a pure bivector")
    parts_by_xi = v.coefficient(("z", "xi")).coefficients_in("xi")
    if any(k not in (0, 1, 2) for k in parts_by_xi):
        raise NotInSpan("bivector coefficient must have xi-degree at most 2")
    return parts_by_xi


def split_sq(rs: RuledSurface, v: MultiVector):
    """Same as split_theta for bivector overlap sections.

    The class window is the z^-k coefficient of the xi-free part,
    k = 1 .. m-3; the U2-absorbable range of that block is z-degree
    <= 2-m.
    """
    m = rs.m
    parts_by_xi = _bivector_xi_parts(rs, v)
    zero = LaurentPoly.zero(rs.registry)
    d = parts_by_xi.get(0, zero)
    e = parts_by_xi.get(1, zero)
    f = parts_by_xi.get(2, zero)
    d1, window, d2 = _split_poly(d, -(m - 3), -1)
    part1 = rs.mv(d1, ("z", "xi"))
    part2 = rs.mv(d2, ("z", "xi"))
    for poly, xipow in ((e, 1), (f, 2)):
        nonneg, win, low = _split_poly(poly, 0, -1)
        assert not win
        part1 = part1 + rs.mv(nonneg * rs.xi(xipow), ("z", "xi"))
        part2 = part2 + rs.mv(low * rs.xi(xipow), ("z", "xi"))
    return part1, part2, window


def reduce_h1_sq(rs: RuledSurface) -> Callable:
    """Coordinates in the H1 window: the z^-k coefficients, k = 1 .. m-3,
    of the xi-free part (the window of split_sq, without its chart parts)."""
    zero = LaurentPoly.zero(rs.registry)

    def fn(v: MultiVector):
        by_z = _bivector_xi_parts(rs, v).get(0, zero).coefficients_in("z")
        return [by_z.get(-k, zero) for k in range(1, rs.m - 2)]

    return fn


# ----------------------------------------------------------------------
# the bracket matrices and Table 1

def h1_maps(rs: RuledSurface) -> MapFamily:
    """[s, -] on the H1 models for each basis bivector s of H0(wedge2) that
    reaches the class window: z^j dz ^ dxi (m <= 2) and z^j xi dz ^ dxi,
    j = 0..2.

    Each basis field z^-k d/dxi has no xi, so its bracket with
    f xi^2 dz ^ dxi has only xi^1 and xi^2 terms, while reduce_h1_sq reads
    the xi-free part: the m + 3 basis bivectors of the f part never reach
    the class window and get no map.
    """
    bases = rs.bases
    sq = bases["h0_sq"]
    return bracket_family(rs, sq[:len(sq) - (rs.m + 3)], bases["h1_theta"], bases["h1_sq"],
                          reduce_h1_sq(rs))


def h1_bracket_matrix(rs: RuledSurface, pois: RuledPoisson) -> LinMap:
    """[lam0, -] on the H1 models, lam0 = pois.bivector(): the sum of the
    surface's maps weighted by the z-coefficients of d and e."""
    zero = LaurentPoly.zero(rs.registry)
    d, e = pois.d.coefficients_in("z"), pois.e.coefficients_in("z")
    return rs.maps.at([d.get(j, zero) for j in range(3 - rs.m)]
                      + [e.get(j, zero) for j in range(3)])


def h0_bracket_matrix(rs: RuledSurface, lam0: MultiVector) -> LinMap:
    """[lam0, -] on global sections."""
    return matrix_of_map(lambda b: schouten(lam0, b), rs.bases["h0_theta"], rs.bases["h0_sq"],
                         basis_coords(rs.bases["h0_sq"]), rs.registry)


def complex_model(rs: RuledSurface, pois: RuledPoisson) -> DeformationComplexModel:
    """The deformation complex of `pois` on F_m; Table 1 reads only its H1
    map, so the H0 map is built only for an H0-level answer."""
    lam0 = pois.bivector()
    return DeformationComplexModel(
        f"F{rs.m}", pois.stratum(), lam0, h1_bracket_matrix(rs, pois), reduce_h1_sq(rs),
        rs.bases["h0_sq"], lambda: h0_bracket_matrix(rs, lam0))


class Table1Row:
    __slots__ = ("m", "stratum", "dim_h2", "obstructed", "certificate")

    def __init__(self, m: int, stratum: str, dim_h2: int, obstructed: bool,
                 certificate: Certificate):
        self.m = m
        self.stratum = stratum
        self.dim_h2 = dim_h2
        self.obstructed = obstructed
        self.certificate = certificate


def table1_verdict(rs: RuledSurface, pois: RuledPoisson) -> Table1Row:
    """The Table 1 row of one structure; its certificate carries dim H2."""
    model = complex_model(rs, pois)
    cert = r4_search(model)
    cert.data["dim_h2"] = model.dim_h2
    return Table1Row(rs.m, pois.stratum(), model.dim_h2,
                     cert.verdict == OBSTRUCTED, cert)


def lemma_r4_certificate(rs: RuledSurface, pois: RuledPoisson) -> Certificate:
    """The canonical witness on the obstructed stratum: a = xi dz^dxi and
    b = z^-1 dxi, whose class survives in the H1 window."""
    if rs.m < 4 or not pois.e_is_zero():
        raise NotObstructedStratum(f"F{rs.m} with stratum {pois.stratum()!r}")
    a = rs.mv(rs.xi(), ("z", "xi"))
    b = rs.mv(rs.z(-1), ("xi",))
    cls = reduce_h1_sq(rs)(schouten(a, b))
    if all(p.is_zero() for p in cls):
        raise AssertionError("canonical witness class vanished")
    model = complex_model(rs, pois)
    if model.h1_image.contains(list(cls)):
        raise AssertionError("canonical witness class lies in the bracket image")
    return Certificate(f"F{rs.m}", pois.stratum(), OBSTRUCTED,
                       witness={"a": str(a), "b": str(b)},
                       class_repr=str(combination(cls, model.h1_sq)))


# ----------------------------------------------------------------------
# hypercohomology H1 model and class coordinates

def hyper_h1(rs: RuledSurface, pois: RuledPoisson) -> DeformationComplexModel:
    """The model of `complex_model`, read for first cohomology: global
    bivectors modulo the bracket image of global fields, plus the kernel
    of the H1 bracket map."""
    return complex_model(rs, pois)


def hyper_class_coords(rs: RuledSurface, model: DeformationComplexModel, lam1: MultiVector,
                       lam2_primed: MultiVector, theta12: MultiVector) -> list[LaurentPoly]:
    """Coordinates of the hypercohomology class of a Cech pair.

    The pair is ({lam1 on U1, lam2 on U2}, theta12 on the overlap) over
    the structure lam0 of `model`; the result lists the cokernel
    coordinates followed by the kernel-window coordinates, in the model's
    basis order.
    """
    lam0 = model.lam0
    pull = pushforward(rs.transition.inverse_map(), lam2_primed)
    cocycle = pull - lam1 + schouten(lam0, theta12)
    if not cocycle.is_zero():
        raise NotACocycle("lam2 - lam1 + [lam0, theta12] != 0 on the overlap")
    # the window, once split_theta has checked theta12's shape
    window = split_theta(rs, theta12)[2]
    zero = LaurentPoly.zero(rs.registry)
    ker_window = [window.get(k, zero) for k in range(1, rs.m)]
    # class must sit inside the kernel of the H1 bracket map
    bracket_cls = reduce_h1_sq(rs)(schouten(lam0, theta12))
    if not all(p.is_zero() for p in bracket_cls):
        raise NotACocycle("theta12 class is not killed by the bracket map")
    # each window direction z^-k d/dxi brackets into chart parts alone, so the
    # residual is a coboundary r1 + r2 and the adjusted lam1, lam2 glue globally
    residual = theta12
    nu1_total = rs.zero()
    nu2_total = rs.zero()
    for k, coeff in sorted(window.items()):
        bk = rs.mv(rs.z(-k), ("xi",))
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
    return model.coords(basis_coords(rs.bases["h0_sq"])(glob1), ker_window)


# ----------------------------------------------------------------------
# explicit Poisson analytic families

class RuledFamily:
    __slots__ = ("surface", "params", "transition_t", "lambda_t", "base")

    def __init__(self, surface: RuledSurface, params: tuple[str, ...],
                 transition_t: ChartMap, lambda_t: MultiVector, base: RuledPoisson):
        self.surface = surface
        self.params = params
        self.transition_t = transition_t
        self.lambda_t = lambda_t
        self.base = base


def _family_transition(rs: RuledSurface, correction: LaurentPoly) -> ChartMap:
    m = rs.m
    z, zp, xip = rs.z(), rs.param("zp"), rs.param("xip")
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
    rs = surface_for(m, params)
    corr = correction_coeff(rs)
    seed = seed_coeff(rs)
    trans = _family_transition(rs, corr)
    pi = rs.mv(seed, ("z", "xi"))
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


class FamilyReport:
    __slots__ = ("name", "dim_h1", "n_params", "basis")

    def __init__(self, name: str, dim_h1: int, n_params: int, basis: list):
        self.name = name
        self.dim_h1 = dim_h1
        self.n_params = n_params
        self.basis = basis

    @property
    def ok(self):
        return self.dim_h1 == self.n_params


def verify_family(fam: RuledFamily) -> FamilyReport:
    """Run the three family checks: holomorphic pushforward for symbolic
    parameters, the Poisson identity, and full rank of the map sending
    parameter directions to hypercohomology classes."""
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
        theta21 = rs.mv(dxi * rs.z(-rs.m), ("xi",))
        theta12 = -theta21
        columns.append(hyper_class_coords(rs, model, lam1, lam2, theta12))
    dim = model.dim_h1
    basis = [str(e) for e in model.elements]
    if len(fam.params) != dim:
        raise KSDegenerate(f"family has {len(fam.params)} parameters but dim H1 = {dim}")
    if not model.fills(columns):
        raise KSDegenerate("the map onto first cohomology classes is not onto")
    return FamilyReport(f"F{rs.m}", dim, len(fam.params), basis)


# ----------------------------------------------------------------------
# sweeps

def table1_sweep(m_max: int) -> list[Table1Row]:
    """One row per stratum of Table 1, with symbolic stratum parameters."""
    rows = []
    for m in range(m_max + 1):
        rs = surface_for(m, ("e0", "e1", "e2") + tuple(f"f{j}" for j in range(m + 3)))
        zero = LaurentPoly.zero(rs.registry)
        f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(m + 3)), zero)
        e_sym = rs.param("e0") + rs.param("e1") * rs.z() + rs.param("e2") * rs.z(2)
        rows.append(table1_verdict(rs, RuledPoisson(rs, zero, e_sym, f_sym)))
        if m >= 4:
            rows.append(table1_verdict(rs, RuledPoisson(rs, zero, zero, f_sym)))
    return rows
