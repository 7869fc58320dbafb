"""Hopf surfaces: contraction quotients of C^2 minus the origin.

Everything is computed on the universal cover through the operator
id - f_* acting on truncated polynomial fields: its kernel gives the
invariant (global) fields, its cokernel models first cohomology, and
the bracket maps between those models drive the dimension tables,
automorphism kernels, family checks and obstruction certificates.

Each (type, p, registry, cap) cover model is built once per process.
It holds both id - f_* matrices and carries the invariant fields and
bivectors, their kernels, computed at most once on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, Reducer,
                     generic_rank, image_space, kernel_basis, matrix_of_map,
                     quotient_coords, quotient_space)
from .multivector import Chart, ChartMap, MultiVector, pushforward, schouten
from .obstruction import (OBSTRUCTED, Certificate, DeformationComplexModel,
                          r4_search)

TYPE_TAGS = ("IV", "III", "IIa", "IIb", "IIc")
DEFAULT_P = 2
MIN_CAP = 3


class TruncationUnstable(Exception):
    pass


class MembershipFails(Exception):
    pass


@dataclass(frozen=True)
class HopfType:
    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in TYPE_TAGS:
            raise ValueError(f"unknown Hopf type {self.tag!r}")
        needs_p = self.tag in ("III", "IIa")
        if needs_p and (self.p is None or self.p < 2):
            raise ValueError(f"type {self.tag} needs an integer p >= 2")
        if not needs_p and self.p is not None:
            raise ValueError(f"type {self.tag} takes no exponent p")

    def label(self) -> str:
        return self.tag if self.p is None else f"{self.tag}(p={self.p})"


@dataclass(frozen=True)
class HopfContext:
    type: HopfType
    registry: VarRegistry
    chart: Chart
    contraction: ChartMap

    def z(self, power=1):
        return LaurentPoly.var(self.registry, "z", power)

    def w(self, power=1):
        return LaurentPoly.var(self.registry, "w", power)

    def param(self, name):
        return LaurentPoly.var(self.registry, name)

    def const(self, value):
        return LaurentPoly.const(self.registry, value)

    def mv(self, coeff, vars):
        return MultiVector.term(self.chart, self.registry, coeff, vars)

    def zero_mv(self):
        return MultiVector.zero(self.chart, self.registry)

    @property
    def p(self) -> int:
        return self.type.p if self.type.p is not None else 1


BASE_PARAMS = ("alpha", "delta", "beta", "A", "B", "C", "t")

_CONTEXT_CACHE: dict = {}
_MODEL_CACHE: dict = {}


def make_context(t: HopfType, extra_params: Sequence[str] = ()) -> HopfContext:
    key = (t.tag, t.p, tuple(extra_params))
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = _build_context(t, extra_params)
    return _CONTEXT_CACHE[key]


def _build_context(t: HopfType, extra_params: Sequence[str] = ()) -> HopfContext:
    reg = VarRegistry(("z", "w"), BASE_PARAMS + tuple(extra_params))
    chart = Chart("W", ("z", "w"))
    z = LaurentPoly.var(reg, "z")
    w = LaurentPoly.var(reg, "w")
    alpha = LaurentPoly.var(reg, "alpha")
    delta = LaurentPoly.var(reg, "delta")
    p = t.p or 1
    # the resonant types III and IIa never introduce a separate alpha:
    # the relation alpha = delta^p is built into the map itself
    if t.tag == "IV":
        fwd = {"z": alpha * z, "w": alpha * w}
        inv = {"z": alpha ** -1 * z, "w": alpha ** -1 * w}
    elif t.tag == "III":
        fwd = {"z": delta ** p * z, "w": delta * w}
        inv = {"z": delta ** -p * z, "w": delta ** -1 * w}
    elif t.tag == "IIa":
        fwd = {"z": delta ** p * z + w ** p, "w": delta * w}
        inv = {"z": delta ** -p * z - delta ** (-2 * p) * w ** p, "w": delta ** -1 * w}
    elif t.tag == "IIb":
        fwd = {"z": alpha * z + w, "w": alpha * w}
        inv = {"z": alpha ** -1 * z - alpha ** -2 * w, "w": alpha ** -1 * w}
    else:  # IIc
        fwd = {"z": alpha * z, "w": delta * w}
        inv = {"z": alpha ** -1 * z, "w": delta ** -1 * w}
    contraction = ChartMap(chart, chart, fwd, inv)
    return HopfContext(t, reg, chart, contraction)


# ----------------------------------------------------------------------
# truncated polynomial field spaces

@dataclass(frozen=True)
class TruncatedSpace:
    grade: int
    cap: int
    basis: LabeledBasis


def monomials_upto(cap: int):
    for d in range(cap + 1):
        for mu in range(d, -1, -1):
            yield mu, d - mu


def truncated_space(ctx: HopfContext, grade: int, cap: int) -> TruncatedSpace:
    elems = []
    if grade == 1:
        for comp in ("z", "w"):
            for mu, nu in monomials_upto(cap):
                elems.append(ctx.mv(ctx.z(mu) * ctx.w(nu), (comp,)))
    elif grade == 2:
        for mu, nu in monomials_upto(cap):
            elems.append(ctx.mv(ctx.z(mu) * ctx.w(nu), ("z", "w")))
    else:
        raise ValueError("grade must be 1 or 2")
    name = f"{ctx.type.label()} grade-{grade} fields up to degree {cap}"
    return TruncatedSpace(grade, cap, LabeledBasis(name, tuple(elems)))


def _truncate(ctx: HopfContext, mv: MultiVector, cap: int) -> MultiVector:
    comps = {}
    for idx, poly in mv.components.items():
        kept = LaurentPoly.zero(ctx.registry)
        for key, coeff in poly.terms.items():
            kd = dict(key)
            deg = kd.get(0, 0) + kd.get(1, 0)  # z and w are indices 0, 1
            if deg <= cap:
                kept = kept + LaurentPoly(ctx.registry, {key: coeff})
        if not kept.is_zero():
            comps[idx] = kept
    return MultiVector(ctx.chart, ctx.registry, comps)


def mono_coords(ctx: HopfContext, space: TruncatedSpace) -> Reducer:
    """Coordinates in the truncated monomial basis, as parameter polynomials."""
    pos = {}
    for k, e in enumerate(space.basis):
        (idx, mono), = e.components.items()
        (mk, mc), = mono.terms.items()
        kd = dict(mk)
        pos[(idx, kd.get(0, 0), kd.get(1, 0))] = (k, mc)
    n = len(space.basis)

    def fn(v: MultiVector):
        coords = [LaurentPoly.zero(ctx.registry) for _ in range(n)]
        for idx, poly in v.components.items():
            for key, coeff in poly.terms.items():
                kd = dict(key)
                mu, nu = kd.get(0, 0), kd.get(1, 0)
                slot = pos.get((idx, mu, nu))
                if slot is None:
                    raise NotInSpan("field not inside the truncated monomial space")
                k, mc = slot
                param_key = tuple((i, e) for i, e in key if i not in (0, 1))
                coords[k] = coords[k] + LaurentPoly(ctx.registry, {param_key: coeff / mc})
        return coords

    return Reducer(f"coords in {space.basis.space_name}", fn)


def id_minus_fstar(ctx: HopfContext, space: TruncatedSpace) -> LinMap:
    """Matrix of v -> v - f_* v on the truncated basis.

    The contractions never lower total degree, so the truncated matrix
    is the degree-filtered block of the full operator.
    """
    red = mono_coords(ctx, space)
    cols = []
    for v in space.basis:
        image = v - _truncate(ctx, pushforward(ctx.contraction, v), space.cap)
        cols.append(red(image))
    rows = [[cols[j][i] for j in range(len(space.basis))] for i in range(len(space.basis))]
    return LinMap(space.basis, space.basis, rows, ctx.registry)


def _combination(coeffs, basis) -> MultiVector:
    """sum of c * e over the nonzero coefficients; at least one is nonzero."""
    elem = None
    for c, e in zip(coeffs, basis):
        if not c.is_zero():
            piece = e.scale(c)
            elem = piece if elem is None else elem + piece
    return elem


# ----------------------------------------------------------------------
# M1 / M2: cokernel models for H1

def _named_m_reps(ctx: HopfContext):
    p = ctx.p
    z, w = ctx.z(), ctx.w()
    alpha, delta = ctx.param("alpha"), ctx.param("delta")
    tag = ctx.type.tag
    if tag == "IV":
        m1 = [ctx.mv(z, ("z",)), ctx.mv(w, ("z",)), ctx.mv(z, ("w",)), ctx.mv(w, ("w",))]
        m2 = [ctx.mv(z * z, ("z", "w")), ctx.mv(z * w, ("z", "w")), ctx.mv(w * w, ("z", "w"))]
    elif tag == "III":
        m1 = [ctx.mv(z, ("z",)), ctx.mv(w ** p, ("z",)), ctx.mv(w, ("w",))]
        m2 = [ctx.mv(z * w, ("z", "w")), ctx.mv(w ** (p + 1), ("z", "w"))]
    elif tag == "IIa":
        m1 = [ctx.mv(delta ** p * z - w ** p, ("z",)), ctx.mv(w, ("w",))]
        m2 = [ctx.mv(z * w, ("z", "w"))]
    elif tag == "IIb":
        m1 = [ctx.mv(alpha * z - w, ("z",)) + ctx.mv(alpha * w, ("w",)),
              ctx.mv(alpha * z - w, ("w",))]
        m2 = [ctx.mv(z * z, ("z", "w"))]
    else:
        m1 = [ctx.mv(z, ("z",)), ctx.mv(w, ("w",))]
        m2 = [ctx.mv(z * w, ("z", "w"))]
    return m1, m2


@dataclass
class CoverModel:
    """Truncated cover model at one degree cap: spaces, images, M1/M2,
    and the invariant fields and bivectors (the kernels of mat1, mat2).

    m1_space and m2_space hold the eliminated images of mat1 and mat2
    with the M1/M2 representatives registered; every class reduction
    solves against them."""

    ctx: HopfContext
    cap: int
    space1: TruncatedSpace
    space2: TruncatedSpace
    mat1: LinMap
    mat2: LinMap
    m1: LabeledBasis
    m2: LabeledBasis
    m1_space: ColumnSpace
    m2_space: ColumnSpace

    def reduce_m(self, grade: int) -> Reducer:
        """Class coordinates in M1 or M2, modulo im(id - f_*)."""
        mono = mono_coords(self.ctx, self.space1 if grade == 1 else self.space2)
        quot = self.m1_space if grade == 1 else self.m2_space
        return Reducer(f"M{grade} classes for {self.ctx.type.label()}",
                       lambda v: quotient_coords(quot, mono(v)))

    @cached_property
    def fields(self) -> tuple[MultiVector, ...]:
        """Invariant fields: the kernel of mat1."""
        return tuple(_combination(v, self.space1.basis) for v in kernel_basis(self.mat1))

    @cached_property
    def _bivector_space(self) -> ColumnSpace:
        """The kernel vectors of mat2, registered as representatives."""
        return quotient_space((), kernel_basis(self.mat2), len(self.space2.basis),
                              self.ctx.registry)

    @cached_property
    def bivectors(self) -> tuple[MultiVector, ...]:
        """Invariant bivectors: the kernel of mat2."""
        return tuple(_combination(v, self.space2.basis) for v in self._bivector_space.reps)

    def bivector_coords(self, v: MultiVector) -> list[LaurentPoly]:
        """Coordinates of an invariant bivector on `bivectors`."""
        return quotient_coords(self._bivector_space, mono_coords(self.ctx, self.space2)(v))


def default_cap(t: HopfType) -> int:
    return max((t.p or 1) + 3, 3)


def cover_model(ctx: HopfContext, cap: int) -> CoverModel:
    """Build and validate the M1/M2 model at the given truncation, once per
    (type, registry, cap)."""
    key = (ctx.type, ctx.registry, cap)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = _build_cover_model(ctx, cap)
    return _MODEL_CACHE[key]


def invariant_fields(ctx: HopfContext, cap: int) -> list[MultiVector]:
    """The cover model's invariant fields, as a list the caller may change."""
    return list(cover_model(ctx, cap).fields)


def invariant_bivectors(ctx: HopfContext, cap: int) -> list[MultiVector]:
    """The cover model's invariant bivectors, as a list the caller may change."""
    return list(cover_model(ctx, cap).bivectors)


def _build_cover_model(ctx: HopfContext, cap: int) -> CoverModel:
    space1 = truncated_space(ctx, 1, cap)
    space2 = truncated_space(ctx, 2, cap)
    mat1 = id_minus_fstar(ctx, space1)
    mat2 = id_minus_fstar(ctx, space2)
    m1, m2 = _named_m_reps(ctx)
    quots = []
    for space, mat, elems, label in ((space1, mat1, m1, "M1"), (space2, mat2, m2, "M2")):
        quot = image_space(mat)
        corank = len(space.basis) - quot.rank
        if corank != len(elems):
            raise TruncationUnstable(
                f"{label} corank {corank} does not match the {len(elems)} "
                f"named representatives at degree cap {cap}")
        mono = mono_coords(ctx, space)
        for e in elems:
            vec = mono(e)
            try:
                quot.add(vec, rep=True)
            except NotInSpan:
                raise TruncationUnstable(
                    f"{label} representative {e} is dependent modulo the image") from None
        quots.append(quot)
    return CoverModel(
        ctx, cap, space1, space2, mat1, mat2,
        LabeledBasis(f"M1({ctx.type.label()})", tuple(m1)),
        LabeledBasis(f"M2({ctx.type.label()})", tuple(m2)),
        *quots,
    )


def m1_m2_bases(t: HopfType, cap: int | None = None, stability_check: bool = True):
    """The named H1 models, validated at `cap` and re-validated at cap + 2."""
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    if cap < MIN_CAP:
        raise ValueError(f"degree cap must be at least {MIN_CAP}")
    model = cover_model(ctx, cap)
    if stability_check:
        cover_model(ctx, cap + 2)
    return model


# ----------------------------------------------------------------------
# Poisson strata

def stratum_bivector(ctx: HopfContext, stratum: str) -> MultiVector:
    z, w = ctx.z(), ctx.w()
    A, B, C = ctx.param("A"), ctx.param("B"), ctx.param("C")
    p = ctx.p
    tag = ctx.type.tag
    zero = ctx.const(0)
    table = {
        ("IV", "zero"): zero,
        ("IV", "generic"): A * z * z + B * z * w + C * w * w,
        ("III", "zero"): zero,
        ("III", "B"): B * w ** (p + 1),
        ("III", "A"): A * z * w + B * w ** (p + 1),
        ("IIa", "any"): A * w ** (p + 1),
        ("IIb", "any"): A * w * w,
        ("IIc", "any"): A * z * w,
    }
    try:
        coeff = table[(tag, stratum)]
    except KeyError:
        raise ValueError(f"unknown stratum {stratum!r} for type {tag}") from None
    return ctx.mv(coeff, ("z", "w")) if not coeff.is_zero() else ctx.zero_mv()


def strata(p: int) -> tuple:
    """(type, stratum) pairs of the Poisson strata, resonant types at exponent p."""
    return (
        (HopfType("IV"), "zero"),
        (HopfType("IV"), "generic"),
        (HopfType("III", p), "zero"),
        (HopfType("III", p), "B"),
        (HopfType("III", p), "A"),
        (HopfType("IIa", p), "any"),
        (HopfType("IIb"), "any"),
        (HopfType("IIc"), "any"),
    )


STRATA = strata(DEFAULT_P)


def h0_bracket_matrix(ctx: HopfContext, lam0: MultiVector, cap: int) -> LinMap:
    """[lam0, -] from invariant fields to invariant bivectors."""
    model = cover_model(ctx, cap)
    dom = LabeledBasis(f"H0({ctx.type.label()},Theta)", model.fields)
    cod = LabeledBasis(f"H0({ctx.type.label()},Wedge2Theta)", model.bivectors)
    return matrix_of_map(lambda x: schouten(lam0, x), dom, cod,
                         Reducer("invariant bivector coords", model.bivector_coords),
                         ctx.registry)


def _dies_in_h0_cokernel(ctx: HopfContext, lam0: MultiVector, direction: MultiVector,
                         cap: int) -> bool:
    """Whether an invariant bivector lies in the image of [lam0, -] on H0."""
    coords = cover_model(ctx, cap).bivector_coords(direction)
    return image_space(h0_bracket_matrix(ctx, lam0, cap)).contains(coords)


def m_bracket_matrix(ctx: HopfContext, model: CoverModel, lam0: MultiVector) -> LinMap:
    red = model.reduce_m(2)
    return matrix_of_map(lambda x: schouten(lam0, x), model.m1, model.m2, red, ctx.registry)


def table5_dims(t: HopfType, stratum: str, cap: int | None = None) -> tuple[int, int, int]:
    """(dim H^0, dim H^1, dim H^2) of the deformation complex on a stratum."""
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    lam0 = stratum_bivector(ctx, stratum)
    model = cover_model(ctx, cap)
    h0m = h0_bracket_matrix(ctx, lam0, cap)
    rank0 = generic_rank(h0m)
    h0 = h0m.n_cols - rank0
    mm = m_bracket_matrix(ctx, model, lam0)
    rank1 = generic_rank(mm)
    h1 = (h0m.n_rows - rank0) + (mm.n_cols - rank1)
    h2 = mm.n_rows - rank1
    return (h0, h1, h2)


# ----------------------------------------------------------------------
# Table 4: infinitesimal Poisson automorphisms

def table4_basis(t: HopfType, stratum: str) -> list[MultiVector]:
    ctx = make_context(t)
    z, w = ctx.z(), ctx.w()
    A, B = ctx.param("A"), ctx.param("B")
    C = ctx.param("C")
    p = ctx.p
    tag = ctx.type.tag
    if (tag, stratum) == ("IV", "zero"):
        out = [ctx.mv(z, ("z",)), ctx.mv(w, ("z",)), ctx.mv(z, ("w",)), ctx.mv(w, ("w",))]
    elif (tag, stratum) == ("IV", "generic"):
        out = [ctx.mv(z, ("z",)) + ctx.mv(w, ("w",)),
               ctx.mv(B * z + C * w, ("z",)) + ctx.mv(-(A * z), ("w",))]
    elif (tag, stratum) == ("III", "zero"):
        out = [ctx.mv(z, ("z",)), ctx.mv(w ** p, ("z",)), ctx.mv(w, ("w",))]
    elif (tag, stratum) == ("III", "B"):
        out = [ctx.mv(z * p, ("z",)) + ctx.mv(w, ("w",)), ctx.mv(w ** p, ("z",))]
    elif (tag, stratum) == ("III", "A"):
        BA = B * A ** -1
        out = [ctx.mv(z + BA * w ** p, ("z",)),
               ctx.mv(-(BA * p) * w ** p, ("z",)) + ctx.mv(w, ("w",))]
    elif tag == "IIa":
        out = [ctx.mv(z * p, ("z",)) + ctx.mv(w, ("w",)), ctx.mv(w ** p, ("z",))]
    elif tag == "IIb":
        out = [ctx.mv(z, ("z",)) + ctx.mv(w, ("w",)), ctx.mv(w, ("z",))]
    else:
        out = [ctx.mv(z, ("z",)), ctx.mv(w, ("w",))]
    return out


def verify_table4(t: HopfType, stratum: str, cap: int | None = None) -> bool:
    """Each listed field kills the stratum bivector, the set is free, and
    it has the full dimension of the automorphism kernel."""
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    lam0 = stratum_bivector(ctx, stratum)
    basis = table4_basis(t, stratum)
    for v in basis:
        if not schouten(lam0, v).is_zero():
            return False
    space1 = cover_model(ctx, cap).space1
    mono = mono_coords(ctx, space1)
    span = ColumnSpace(len(space1.basis), ctx.registry)
    for v in basis:
        if not span.add(mono(v)):
            return False
    h0m = h0_bracket_matrix(ctx, lam0, cap)
    expected = h0m.n_cols - generic_rank(h0m)
    return len(basis) == expected


# ----------------------------------------------------------------------
# Table 6 families: invariance under the group generator

def family_data(t: HopfType, ctx: HopfContext):
    """(bivector coefficient, map components) of the deformation family."""
    z, w = ctx.z(), ctx.w()
    alpha, delta, beta = ctx.param("alpha"), ctx.param("delta"), ctx.param("beta")
    A, B, C, tt = ctx.param("A"), ctx.param("B"), ctx.param("C"), ctx.param("t")
    p = ctx.p
    one = ctx.const(1)
    tag = t.tag
    if tag == "IV":
        lam = (one + tt) * (A * z * z + B * z * w + C * w * w)
        F = {"z": (alpha + beta * B) * z + beta * C * w, "w": -(beta * A) * z + alpha * w}
    elif tag == "III":
        lam = (one + tt) * (A * z * w + B * w ** (p + 1))
        F = {"z": alpha * z + B * A ** -1 * (alpha - delta ** p) * w ** p, "w": delta * w}
    elif tag == "IIa":
        lam = (A + tt) * ((alpha - delta ** p) * z * w + w ** (p + 1))
        F = {"z": alpha * z + w ** p, "w": delta * w}
    elif tag == "IIb":
        lam = (A + tt) * (-(beta * z * z) + w * w)
        F = {"z": alpha * z + w, "w": beta * z + alpha * w}
    else:
        lam = (A + tt) * z * w
        F = {"z": alpha * z, "w": delta * w}
    return lam, F


def family_invariance(t: HopfType) -> bool:
    """Exact identity lam(F1, F2) = lam(z, w) * det(Jacobian of F)."""
    ctx = make_context(t)
    lam, F = family_data(t, ctx)
    jac = (F["z"].partial("z") * F["w"].partial("w")
           - F["z"].partial("w") * F["w"].partial("z"))
    pushed = lam.substitute({"z": F["z"], "w": F["w"]})
    return pushed == lam * jac


# ----------------------------------------------------------------------
# Lemma-style D membership and the sigma images

def base_point_bivector(t: HopfType, ctx: HopfContext) -> MultiVector:
    """The family bivector at the distinguished base point."""
    tag = t.tag
    z, w = ctx.z(), ctx.w()
    A, B, C = ctx.param("A"), ctx.param("B"), ctx.param("C")
    p = ctx.p
    if tag == "IV":
        coeff = A * z * z + B * z * w + C * w * w
    elif tag == "III":
        coeff = A * z * w + B * w ** (p + 1)
    elif tag == "IIa":
        coeff = A * w ** (p + 1)
    elif tag == "IIb":
        coeff = A * w * w
    else:
        coeff = A * z * w
    return ctx.mv(coeff, ("z", "w"))


def membership_pairs(t: HopfType, ctx: HopfContext):
    """The (B, A) tangent images of the family at the base point."""
    z, w = ctx.z(), ctx.w()
    alpha, delta = ctx.param("alpha"), ctx.param("delta")
    A, B, C = ctx.param("A"), ctx.param("B"), ctx.param("C")
    p = ctx.p
    zero = ctx.zero_mv()
    tag = t.tag
    ai = alpha ** -1
    di = delta ** -1
    if tag == "IV":
        pairs = [
            (zero, ctx.mv(ai * z, ("z",)) + ctx.mv(ai * w, ("w",))),
            (zero, ctx.mv(ai * (B * z + C * w), ("z",)) + ctx.mv(-(ai * A * z), ("w",))),
            (base_point_bivector(t, ctx), zero),
        ]
    elif tag == "III":
        BA = B * A ** -1
        pairs = [
            (zero, ctx.mv(delta ** -p * (z + BA * w ** p), ("z",))),
            (zero, ctx.mv(-(di * BA * p) * w ** p, ("z",)) + ctx.mv(di * w, ("w",))),
            (base_point_bivector(t, ctx), zero),
        ]
    elif tag == "IIa":
        pairs = [
            (ctx.mv(A * z * w, ("z", "w")),
             ctx.mv(delta ** -p * z - delta ** (-2 * p) * w ** p, ("z",))),
            (ctx.mv(-(A * p) * delta ** (p - 1) * z * w, ("z", "w")),
             ctx.mv(di * w, ("w",))),
            (ctx.mv(w ** (p + 1), ("z", "w")), zero),
        ]
    elif tag == "IIb":
        pairs = [
            (zero, ctx.mv(ai * z - alpha ** -2 * w, ("z",)) + ctx.mv(ai * w, ("w",))),
            (ctx.mv(-(A * z * z), ("z", "w")),
             ctx.mv(ai * z - alpha ** -2 * w, ("w",))),
            (ctx.mv(w * w, ("z", "w")), zero),
        ]
    else:
        pairs = [
            (zero, ctx.mv(ai * z, ("z",))),
            (zero, ctx.mv(di * w, ("w",))),
            (ctx.mv(z * w, ("z", "w")), zero),
        ]
    return pairs


def d_membership(t: HopfType, cap: int | None = None) -> dict:
    """Verify the tangent pairs land in D and their classes fill H1.

    Each pair must satisfy (id - f_*)(B) = [lam_s, A] exactly; the field
    parts must give independent kernel classes in M1 and the pure
    bivector pair a nonzero class in the H0 cokernel.
    """
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    lam_s = base_point_bivector(t, ctx)
    pairs = membership_pairs(t, ctx)
    for k, (bv, av) in enumerate(pairs):
        lhs = bv - pushforward(ctx.contraction, bv)
        rhs = schouten(lam_s, av)
        if lhs != rhs:
            raise MembershipFails(f"pair {k} of type {t.label()}: (id-f_*)B != [lam_s, A]")
    model = cover_model(ctx, cap)
    red1 = model.reduce_m(1)
    mm = m_bracket_matrix(ctx, model, lam_s)
    field_classes = []
    for bv, av in pairs[:2]:
        coords = red1(av)
        image = mm.apply(coords)
        if not all(p.is_zero() for p in image):
            raise MembershipFails("field class is not in the kernel of the H1 bracket map")
        field_classes.append(coords)
    span = ColumnSpace(len(model.m1), ctx.registry)
    for coords in field_classes:
        if not span.add(list(coords)):
            raise MembershipFails("sigma images of the field directions are dependent")
    # the bivector direction must be nonzero in the H0 cokernel
    if _dies_in_h0_cokernel(ctx, lam_s, pairs[2][0], cap):
        raise MembershipFails("bivector direction dies in the H0 cokernel")
    return {
        "type": t.label(),
        "pairs": [(str(b), str(a)) for b, a in pairs],
        "h1_dim": 1 + len(field_classes),
    }


# ----------------------------------------------------------------------
# obstruction certificates and the undetermined strata

def deformation_model(t: HopfType, stratum: str, cap: int | None = None) -> DeformationComplexModel:
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    if (t.tag, stratum) == ("IV", "degenerate"):
        # discriminant-zero representative: A = 1, B = C = 0
        lam0 = ctx.mv(ctx.z(2), ("z", "w"))
        stratum_label = "4AC-B^2=0"
    else:
        lam0 = stratum_bivector(ctx, stratum)
        stratum_label = stratum
    model = cover_model(ctx, cap)
    mm = m_bracket_matrix(ctx, model, lam0)
    h2 = mm.n_rows - generic_rank(mm)
    return DeformationComplexModel(
        name=f"Hopf {t.label()}",
        stratum=stratum_label,
        registry=ctx.registry,
        h0_sq=LabeledBasis(f"H0({t.label()},Wedge2Theta)", model.bivectors),
        h1_theta=model.m1,
        h1_sq=model.m2,
        bracket=schouten,
        reduce_h1_sq=model.reduce_m(2),
        h1_matrix=mm,
        h2_dim=h2,
    )


def obstruction_certificate_hopf(t: HopfType, constants: dict) -> Certificate:
    """Witness for obstructedness of the zero Poisson structure on the
    types with non-simple invariant bivectors.

    `constants` assigns rationals to the bivector constants (A, B, C)
    and the field constants (d, e, f, g); the resulting bracket class
    must be nonzero in M2.
    """
    if t.tag not in ("IV", "III"):
        raise ValueError("the zero structure is only obstructed for types IV and III")
    if all(v == 0 for v in constants.values()):
        raise ValueError("degenerate input: all witness constants vanish")
    ctx = make_context(t)
    z, w = ctx.z(), ctx.w()
    p = ctx.p
    c = {k: ctx.const(v) for k, v in constants.items()}
    zero = ctx.const(0)
    g = lambda k: c.get(k, zero)
    if t.tag == "IV":
        a = ctx.mv(g("A") * z * z + g("B") * z * w + g("C") * w * w, ("z", "w"))
        b = (ctx.mv(g("d") * z + g("e") * w, ("z",))
             + ctx.mv(g("f") * z + g("g") * w, ("w",)))
    else:
        a = ctx.mv(g("A") * z * w + g("B") * w ** (p + 1), ("z", "w"))
        b = ctx.mv(g("d") * z + g("e") * w ** p, ("z",)) + ctx.mv(g("f") * w, ("w",))
    model = deformation_model(t, "zero")
    cls = model.reduce_h1_sq(schouten(a, b))
    if all(x.is_zero() for x in cls):
        raise ValueError("chosen constants give a vanishing bracket class")
    return Certificate(model.name, "zero", OBSTRUCTED,
                       witness={"a": str(a), "b": str(b)},
                       class_repr=str(_combination(cls, model.h1_sq)))


H95_CASES = ("iv-discriminant-zero", "iii-b-nonzero")


def h95_degeneracy(case: str, cap: int | None = None) -> bool:
    """Whether the candidate family's t-direction dies in first cohomology.

    True reproduces the degenerate-family computation on the two strata
    with no verdict; the IIc analogue returns False as a control.
    """
    if case == "iv-discriminant-zero":
        t = HopfType("IV")
        ctx = make_context(t)
        lam0 = ctx.mv(ctx.z(2), ("z", "w"))
        direction = ctx.mv(ctx.z(2), ("z", "w"))
    elif case == "iii-b-nonzero":
        t = HopfType("III", DEFAULT_P)
        ctx = make_context(t)
        lam0 = ctx.mv(ctx.param("B") * ctx.w(ctx.p + 1), ("z", "w"))
        direction = ctx.mv(ctx.w(ctx.p + 1), ("z", "w"))
    elif case == "iic-control":
        t = HopfType("IIc")
        ctx = make_context(t)
        lam0 = ctx.mv(ctx.param("A") * ctx.z() * ctx.w(), ("z", "w"))
        direction = ctx.mv(ctx.z() * ctx.w(), ("z", "w"))
    else:
        raise ValueError(f"unknown case {case!r}")
    cap = default_cap(t) if cap is None else cap
    return _dies_in_h0_cokernel(ctx, lam0, direction, cap)


def undetermined_certificate(case: str) -> Certificate:
    if case == "iv-discriminant-zero":
        model = deformation_model(HopfType("IV"), "degenerate")
    elif case == "iii-b-nonzero":
        model = deformation_model(HopfType("III", DEFAULT_P), "B")
    else:
        raise ValueError(f"unknown case {case!r}")
    return r4_search(model)


# ----------------------------------------------------------------------
# summary rows for the table commands

def table_dims(t: HopfType, cap: int | None = None) -> dict:
    ctx = make_context(t)
    cap = default_cap(t) if cap is None else cap
    fields = invariant_fields(ctx, cap)
    bivs = invariant_bivectors(ctx, cap)
    model = cover_model(ctx, cap)
    return {
        "type": t.label(),
        "dim_h0_theta": len(fields),
        "dim_h0_sq": len(bivs),
        "h0_sq_basis": [str(b) for b in bivs],
        "m1": [str(e) for e in model.m1],
        "m2": [str(e) for e in model.m2],
    }
