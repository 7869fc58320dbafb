"""Hopf surfaces: contraction quotients of C^2 minus the origin.

Everything is computed on the universal cover through the operator
id - f_* acting on polynomial fields: its kernel gives the invariant
(global) fields, its cokernel models first cohomology, and the bracket
maps between those models drive the dimension tables, automorphism
kernels, family checks and obstruction certificates.
`deformation_model` puts a stratum's two bracket maps into the one
`obstruction.DeformationComplexModel`, stored on the cover model; it
answers the table row, the family check, the degenerate families and
the verdict of the stratum (`stratum_certificate`), which depends on
the model and the stratum alone and is stored on the model too.

One cover model per type and degree cap is the input of every Hopf
computation: `model_for` is the one place that turns a type and a cap
into a model, and every other function takes the model it is given.
`cover_model` keeps each model in the one process store
(`obstruction.stored`, key `("Hopf", type, cap)`; at most
2,850 models at the CLI's bounds on p and the cap), so a process serving
a stream of classify requests reuses it, where rebuilding it would cost
more than the rest of a request; a model that fails validation is not
kept.  Naming a stored model costs a registry and a chart: a context
builds its contraction map only when a model is built from it, as the
type's contraction family at its base point (`family_data`), with the
inverse the block lemma's shape gives.  A
model builds only the weight-0 blocks of its two id - f_* operators
(`id_minus_fstar`: column j holds the weight-0 coordinates of
v - f_*(v), v the j-th weight-0 field, f_*(v) truncated at the cap, and
no column may leave weight 0), and computes, at most once on first use,
the invariant fields and bivectors and each stratum's complex and
verdict.  The
tangent pairs that `d_membership` checks are the Kodaira-Spencer
derivative of the type's contraction family (`membership_pairs`).

Block lemma.  With wt(z) = p, wt(w) = 1 (p = 1 but for III and IIa), a
frame weighing the sum of its variables' weights and z^mu w^nu e
weighing p mu + nu - wt(e): at every degree, id - f_* is block diagonal
by weight, triangular in the order of rising mu with d/dz before d/dw,
and its diagonal entry 1 - alpha^a delta^b vanishes only at weight 0.
Proof: f(z, w) = (l1 z + n(w), l2 w), with (l1, l2) = (alpha, alpha) for
IV and IIb, (delta^p, delta) for III and IIa, (alpha, delta) for IIc, and
n = w^p for IIa, w for IIb, 0 otherwise, of weight p.  So f^-1, of the
same shape, sends z^mu w^nu to l1^-mu l2^-nu z^mu w^nu plus monomials
of its weight with smaller mu; f_*(d/dz) = l1 d/dz,
f_*(d/dw) = l2 d/dw + n'(w o f^-1) d/dz and f_*(d/dz ^ d/dw) =
l1 l2 d/dz ^ d/dw keep the frames' weights.  By f_*(g e) =
(g o f^-1) f_*(e), f_* sends z^mu w^nu e to l1^(i - mu) l2^(j - nu) times
itself, i and j the exponents of d/dz and d/dw in e, plus fields of its
weight with smaller mu, or the same mu and d/dz for d/dw.  That factor
is alpha^-k (IV, IIb) or delta^-k (III, IIa), k the weight, and for IIc
alpha^(i - mu) delta^(j - nu), which is 1 only at mu = i, nu = j, of
weight 0; alpha and delta are free parameters.  These are the
resonances of the Poincare-Dulac normal form.

So every block off weight 0 is invertible: id - f_* has the kernel and
cokernel of its weight-0 block, and a class depends only on a field's
weight-0 terms, since all others lie in the image.  The weight-0 fields
solve p mu + nu = wt(e): 2 to 4 per grade, of degree at most p + 1.  f_*
never lowers the degree, so a cap keeps the block of the weight-0 fields
up to it, the whole block from cap p + 1 on.  The tests build the whole
truncated operator up to the CLI's largest cap and check the lemma's
support facts on it (`tests/cover_matrices.py`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, image_space,
                     kernel_basis, matrix_of_map, quotient_coords, quotient_space)
from .multivector import (Chart, ChartFrame, ChartMap, MultiVector, combination,
                          pushforward, schouten)
from .obstruction import (OBSTRUCTED, UNOBSTRUCTED_MC, Certificate, DeformationComplexModel,
                          r4_search, stored)
from .rational import ONE, Frozen

_set = object.__setattr__

TYPE_TAGS = ("IV", "III", "IIa", "IIb", "IIc")
DEFAULT_P = 2
MIN_CAP = 3


class TruncationUnstable(Exception):
    pass


class MembershipFails(Exception):
    pass


class HopfType(Frozen):
    __slots__ = ("tag", "p")

    def __init__(self, tag: str, p: int | None = None):
        if tag not in TYPE_TAGS:
            raise ValueError(f"unknown Hopf type {tag!r}")
        needs_p = tag in ("III", "IIa")
        if needs_p and (p is None or p < 2):
            raise ValueError(f"type {tag} needs an integer p >= 2")
        if not needs_p and p is not None:
            raise ValueError(f"type {tag} takes no exponent p")
        _set(self, "tag", tag)
        _set(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is not HopfType:
            return NotImplemented
        return self.tag == other.tag and self.p == other.p

    def __hash__(self):
        return hash((self.tag, self.p))

    def label(self) -> str:
        return self.tag if self.p is None else f"{self.tag}(p={self.p})"


class HopfContext(ChartFrame):
    """The cover chart of one type.  Its contraction f, a `ChartMap` whose
    inverse is checked, is fixed by the type and the registry, so it is
    built on first use: a context that only names a stored model, as
    `model_for` builds one per call, never builds it."""

    __slots__ = ("type", "_contraction")

    def __init__(self, chart: Chart, registry: VarRegistry, dbar: tuple[str, ...] = (), *,
                 type: HopfType):
        ChartFrame.__init__(self, chart, registry, dbar)
        _set(self, "type", type)

    def _key(self) -> tuple:
        return self.chart, self.registry, self.dbar, self.type

    @property
    def p(self) -> int:
        return self.type.p if self.type.p is not None else 1

    @property
    def contraction(self) -> ChartMap:
        try:
            return self._contraction
        except AttributeError:
            _set(self, "_contraction", _contraction_map(self))
            return self._contraction


BASE_PARAMS = ("alpha", "delta", "beta", "A", "B", "C", "t")


def make_context(t: HopfType) -> HopfContext:
    return HopfContext(Chart("W", ("z", "w")), VarRegistry(("z", "w"), BASE_PARAMS), type=t)


def _contraction_map(ctx: HopfContext) -> ChartMap:
    """The contraction f: the family's F at its base point.  It has the
    shape (l1 z + n(w), l2 w) of the block lemma, so its inverse is
    (l1^-1 (z - n(l2^-1 w)), l2^-1 w), which `ChartMap` checks."""
    _, F, _, base = family_data(ctx)
    fz, fw = F["z"].substitute(base), F["w"].substitute(base)
    l1, l2 = fz.partial("z"), fw.partial("w")
    n = fz - l1 * ctx.z()
    inv_w = l2 ** -1 * ctx.w()
    inv = {"z": l1 ** -1 * (ctx.z() - n.substitute({"w": inv_w})), "w": inv_w}
    return ChartMap(ctx.chart, ctx.chart, {"z": fz, "w": fw}, inv)


# ----------------------------------------------------------------------
# the weight-0 fields and their block of id - f_*

# the frames of grades 1 and 2 as component index tuples: d/dz, d/dw; d/dz ^ d/dw
FRAMES = (((0,), (1,)), ((0, 1),))


class Weight0Space(Frozen):
    """The weight-0 fields z^mu w^nu e of one grade, e a frame, of total
    degree at most `cap`, frame by frame with mu falling.  `index` maps
    (component, mu, nu) to the field's position in `basis`."""

    __slots__ = ("grade", "cap", "basis", "index")

    def __init__(self, grade: int, cap: int, basis: LabeledBasis, index: dict):
        _set(self, "grade", grade)
        _set(self, "cap", cap)
        _set(self, "basis", basis)
        _set(self, "index", index)


def weight0_space(ctx: HopfContext, grade: int, cap: int) -> Weight0Space:
    """The weight-0 fields of one grade up to degree `cap`: with wt(z) = p
    and wt(w) = 1, z^mu w^nu e has weight 0 where p mu + nu = wt(e)."""
    if grade not in (1, 2):
        raise ValueError("grade must be 1 or 2")
    p, reg, elems, index = ctx.p, ctx.registry, [], {}
    for comp in FRAMES[grade - 1]:
        target = sum((p, 1)[i] for i in comp)
        for mu in range(target // p, -1, -1):
            nu = target - p * mu
            if mu + nu <= cap:
                index[comp, mu, nu] = len(elems)
                key = tuple((i, e) for i, e in ((0, mu), (1, nu)) if e)
                elems.append(MultiVector._of(ctx.chart, reg,
                                             {comp: LaurentPoly._of_terms(reg, {key: ONE})}))
    name = f"{ctx.type.label()} grade-{grade} fields up to degree {cap}, weight 0"
    return Weight0Space(grade, cap, LabeledBasis(name, tuple(elems)), index)


def _low_degree(poly: LaurentPoly, cap: int) -> LaurentPoly:
    """The terms of `poly` of total (z, w) degree at most `cap`."""
    # z and w are the variables with indices 0 and 1
    return LaurentPoly._of_terms(poly.registry, {
        key: coeff for key, coeff in poly.terms.items()
        if sum(e for i, e in key if i < 2) <= cap})


def _split(key: tuple) -> tuple[int, int, tuple]:
    """The z and w exponents and the parameter part of a sorted term key."""
    mu = nu = k = 0
    if key and key[0][0] == 0:
        mu, k = key[0][1], 1
    if k < len(key) and key[k][0] == 1:
        nu, k = key[k][1], k + 1
    return mu, nu, key[k:]


def mono_coords(ctx: HopfContext, space: Weight0Space, off_weight0: str | None = None) -> Callable:
    """Coordinates on the weight-0 fields, as parameter polynomials.

    A term off weight 0 lies in the image of id - f_* at every degree
    (block lemma), so it is dropped, or, given the message `off_weight0`,
    rejected at any degree; a term of another grade or with a negative
    exponent is rejected, and without the message so is a term above the
    cap."""
    reg, index, cap, p = ctx.registry, space.index, space.cap, ctx.p
    comps = FRAMES[space.grade - 1]
    # wt(z) = p, wt(w) = 1; z^mu w^nu e has weight p mu + nu - wt(e)
    frame_weight = {comp: sum((p, 1)[i] for i in comp) for comp in comps}
    zero = LaurentPoly.zero(reg)

    def fn(v: MultiVector):
        coords = [zero] * len(space.basis)
        off = False
        for comp, poly in v.components.items():
            for key, coeff in poly.terms.items():
                mu, nu, rest = _split(key)
                k = index.get((comp, mu, nu))
                if k is not None:
                    coords[k] = coords[k] + LaurentPoly._of_terms(reg, {rest: coeff})
                elif comp in comps and mu >= 0 and nu >= 0 and (
                        mu + nu <= cap or off_weight0 and p * mu + nu != frame_weight[comp]):
                    off = True
                else:
                    raise NotInSpan("field not inside the truncated monomial space")
        if off and off_weight0:
            raise NotInSpan(off_weight0)
        return coords

    return fn


def id_minus_fstar(ctx: HopfContext, space: Weight0Space) -> LinMap:
    """The weight-0 block of id - f_* truncated at the cap: column j is the
    weight-0 coordinates of v - f_*(v), v the j-th field of `space` and
    f_*(v) its pushforward with the terms above the cap dropped.  A term
    up to the cap off weight 0 would join two weights, against the block
    lemma: an internal error, raised before any elimination."""
    cap, name = space.cap, space.basis.space_name
    coords = mono_coords(ctx, space, "id - f_* joins two weights")

    def image(v: MultiVector) -> MultiVector:
        return v - pushforward(ctx.contraction, v).map_coefficients(
            lambda poly: _low_degree(poly, cap))

    def weight0(v: MultiVector) -> list[LaurentPoly]:
        try:
            return coords(v)
        except NotInSpan as exc:
            raise RuntimeError(f"{name}: {exc}") from None

    return matrix_of_map(image, space.basis, space.basis, weight0, ctx.registry)


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


class CoverModel:
    """Cover model at one degree cap: M1/M2, the weight-0 spaces and
    blocks of the grade-1 and grade-2 id - f_*, invariant fields and
    bivectors, `complexes`, the stored stratum complexes, and
    `certificates`, the stored stratum verdicts.  By the
    block lemma the blocks carry the kernels and cokernels of the whole
    operators.  m1_space and m2_space hold the images of the blocks, with
    the weight-0 coordinates of the M1/M2 representatives registered;
    every class reduction solves against them."""

    def __init__(self, ctx: HopfContext, cap: int, m1: LabeledBasis, m2: LabeledBasis,
                 grade1: tuple, grade2: tuple):
        self.ctx = ctx
        self.cap = cap
        self.m1 = m1
        self.m2 = m2
        # (weight-0 space, its block of id - f_*, the block's image)
        self.space1, self.block1, self.m1_space = grade1
        self.space2, self.block2, self.m2_space = grade2
        self.complexes: dict[str, DeformationComplexModel] = {}
        self.certificates: dict[str, Certificate] = {}

    def reduce_m(self, grade: int) -> Callable:
        """Class coordinates in M1 or M2, modulo im(id - f_*): only the
        weight-0 terms count, because the image holds every other weight."""
        space, quot = (self.space1, self.m1_space) if grade == 1 else (self.space2, self.m2_space)
        mono = mono_coords(self.ctx, space)
        return lambda v: quotient_coords(quot, mono(v))

    @cached_property
    def fields(self) -> tuple[MultiVector, ...]:
        """Invariant fields: the kernel of the grade-1 id - f_*."""
        return tuple(combination(v, self.block1.domain)
                     for v in kernel_basis(self.block1))

    @cached_property
    def _bivector_space(self) -> ColumnSpace:
        """The kernel vectors of block2, registered as representatives."""
        return quotient_space((), kernel_basis(self.block2),
                              len(self.space2.basis), self.ctx.registry)

    @cached_property
    def bivectors(self) -> tuple[MultiVector, ...]:
        """Invariant bivectors: the kernel of the grade-2 id - f_*."""
        return tuple(combination(v, self.block2.domain) for v in self._bivector_space.reps)

    def bivector_coords(self, v: MultiVector) -> list[LaurentPoly]:
        """Coordinates of an invariant bivector on `bivectors`, which lie in
        weight 0."""
        coords = mono_coords(self.ctx, self.space2, "bivector has a term off weight 0")(v)
        return quotient_coords(self._bivector_space, coords)

    @cached_property
    def dim_h1(self) -> int:
        """dim H1 filled by the type's contraction family, once the family
        is verified invariant and its tangent pairs pass `d_membership`.
        A failed check raises on every use: nothing is stored then."""
        if not family_invariance(self.ctx):
            raise MembershipFails(f"the contraction family of type {self.ctx.type.label()} "
                                  "is not invariant")
        return d_membership(self)["h1_dim"]


def default_cap(t: HopfType) -> int:
    return max((t.p or 1) + 3, 3)


def cover_model(ctx: HopfContext, cap: int) -> CoverModel:
    """Build and validate the M1/M2 model at the given truncation, once per
    (type, cap)."""
    return stored(("Hopf", ctx.type, cap), lambda: _build_cover_model(ctx, cap))


def model_for(t: HopfType, cap: int | None = None) -> CoverModel:
    """The cover model of type `t` at `cap`, the type's default cap if None."""
    cap = default_cap(t) if cap is None else cap
    if cap < MIN_CAP:
        raise ValueError(f"degree cap must be at least {MIN_CAP}")
    return cover_model(make_context(t), cap)


def invariant_fields(ctx: HopfContext, cap: int) -> list[MultiVector]:
    """The cover model's invariant fields, as a list the caller may change."""
    return list(cover_model(ctx, cap).fields)


def invariant_bivectors(ctx: HopfContext, cap: int) -> list[MultiVector]:
    """The cover model's invariant bivectors, as a list the caller may change."""
    return list(cover_model(ctx, cap).bivectors)


def _build_cover_model(ctx: HopfContext, cap: int) -> CoverModel:
    m1, m2 = _named_m_reps(ctx)
    grades = []
    for grade, elems, label in ((1, m1, "M1"), (2, m2, "M2")):
        space = weight0_space(ctx, grade, cap)
        block = id_minus_fstar(ctx, space)
        quot = image_space(block)
        # the other blocks are invertible, so this is the corank of id - f_*
        corank = len(space.basis) - quot.rank
        if corank != len(elems):
            raise TruncationUnstable(
                f"{label} corank {corank} does not match the {len(elems)} "
                f"named representatives at degree cap {cap}")
        mono = mono_coords(ctx, space)
        for e in elems:
            try:
                vec = mono(e)
            except NotInSpan:
                raise TruncationUnstable(
                    f"{label} representative {e} has a term above degree cap {cap}") from None
            try:
                quot.add(vec, rep=True)
            except NotInSpan:
                raise TruncationUnstable(
                    f"{label} representative {e} is dependent modulo the image") from None
        grades.append((space, block, quot))
    return CoverModel(ctx, cap, LabeledBasis(f"M1({ctx.type.label()})", tuple(m1)),
                      LabeledBasis(f"M2({ctx.type.label()})", tuple(m2)), *grades)


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
        # the discriminant-zero representative A = 1, B = C = 0
        ("IV", "degenerate"): z * z,
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
    return ctx.mv(coeff, ("z", "w")) if not coeff.is_zero() else ctx.zero()


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


def stratum_of(model: CoverModel, coords: Sequence[LaurentPoly]) -> str:
    """The stratum of an invariant bivector of the model's type, from its
    `bivector_coords`: polynomials in the parameters, each one that is not
    zero as a polynomial read at a generic point.  The coordinates are on
    z^2, zw, w^2 (A, B, C) for IV and on zw, w^(p+1) (A, B) for III."""
    tag = model.ctx.type.tag
    if tag not in ("IV", "III"):
        return "any"
    if all(c.is_zero() for c in coords):
        return "zero"
    if tag == "IV":
        a, b, c = coords
        return "degenerate" if (a * c * 4 - b * b).is_zero() else "generic"
    return "B" if coords[0].is_zero() else "A"


def h0_bracket_matrix(model: CoverModel, lam0: MultiVector) -> LinMap:
    """[lam0, -] from invariant fields to invariant bivectors."""
    label = model.ctx.type.label()
    dom = LabeledBasis(f"H0({label},Theta)", model.fields)
    cod = LabeledBasis(f"H0({label},Wedge2Theta)", model.bivectors)
    return matrix_of_map(lambda x: schouten(lam0, x), dom, cod, model.bivector_coords,
                         model.ctx.registry)


def m_bracket_matrix(model: CoverModel, lam0: MultiVector) -> LinMap:
    return matrix_of_map(lambda x: schouten(lam0, x), model.m1, model.m2, model.reduce_m(2),
                         model.ctx.registry)


def stratum_row(model: CoverModel, stratum: str) -> dict:
    """The cohomology table row of a stratum: (dim H^0, dim H^1, dim H^2)
    of its deformation complex, and whether the listed automorphism basis
    is verified: each field kills the stratum bivector, the set is free,
    and it has the full dimension H^0 of the automorphism kernel."""
    ctx = model.ctx
    lam0 = stratum_bivector(ctx, stratum)
    dc = deformation_model(model, stratum)
    basis = table4_basis(ctx, stratum)
    mono = mono_coords(ctx, model.space1, "field has a term off weight 0")
    span = ColumnSpace(len(model.space1.basis), ctx.registry)
    try:
        # an invariant field has weight 0, so the weight-0 coordinates decide freeness
        free = all(span.add(mono(v)) for v in basis)
    except NotInSpan:
        free = False
    return {
        "type": ctx.type.label(),
        "stratum": stratum,
        "dim_h0": dc.dim_h0,
        "dim_h1": dc.dim_h1,
        "dim_h2": dc.dim_h2,
        "automorphism_basis_verified": (
            all(schouten(lam0, v).is_zero() for v in basis) and free
            and len(basis) == dc.dim_h0),
    }


# ----------------------------------------------------------------------
# Table 4: infinitesimal Poisson automorphisms

def table4_basis(ctx: HopfContext, stratum: str) -> list[MultiVector]:
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


# ----------------------------------------------------------------------
# Table 6 families: invariance under the group generator

def family_data(ctx: HopfContext):
    """The type's contraction family (lam, F, moduli, base): the bivector
    coefficient and the map components, polynomials in the `moduli` it
    moves along, and the substitution `base` of its base point t = beta = 0
    (alpha = delta^p for III and IIa), where F is the contraction."""
    z, w = ctx.z(), ctx.w()
    alpha, delta, beta = ctx.param("alpha"), ctx.param("delta"), ctx.param("beta")
    A, B, C, tt = ctx.param("A"), ctx.param("B"), ctx.param("C"), ctx.param("t")
    p = ctx.p
    one, zero = ctx.const(1), ctx.const(0)
    tag = ctx.type.tag
    moduli = ("alpha", "beta" if tag in ("IV", "IIb") else "delta", "t")
    base = {"beta": zero, "t": zero}
    if tag == "IV":
        lam = (one + tt) * (A * z * z + B * z * w + C * w * w)
        F = {"z": (alpha + beta * B) * z + beta * C * w, "w": -(beta * A) * z + alpha * w}
    elif tag == "III":
        lam = (one + tt) * (A * z * w + B * w ** (p + 1))
        F = {"z": alpha * z + B * A ** -1 * (alpha - delta ** p) * w ** p, "w": delta * w}
        base["alpha"] = delta ** p
    elif tag == "IIa":
        lam = (A + tt) * ((alpha - delta ** p) * z * w + w ** (p + 1))
        F = {"z": alpha * z + w ** p, "w": delta * w}
        base["alpha"] = delta ** p
    elif tag == "IIb":
        lam = (A + tt) * (-(beta * z * z) + w * w)
        F = {"z": alpha * z + w, "w": beta * z + alpha * w}
    else:
        lam = (A + tt) * z * w
        F = {"z": alpha * z, "w": delta * w}
    return lam, F, moduli, base


def family_invariance(ctx: HopfContext) -> bool:
    """Exact identity lam(F1, F2) = lam(z, w) * det(Jacobian of F)."""
    lam, F, _, _ = family_data(ctx)
    jac = (F["z"].partial("z") * F["w"].partial("w")
           - F["z"].partial("w") * F["w"].partial("z"))
    pushed = lam.substitute({"z": F["z"], "w": F["w"]})
    return pushed == lam * jac


# ----------------------------------------------------------------------
# Lemma-style D membership and the sigma images

def family_stratum(t: HopfType) -> str:
    """The stratum of the deformation family's base point."""
    return {"IV": "generic", "III": "A"}.get(t.tag, "any")


def membership_pairs(ctx: HopfContext):
    """The (B, A) tangent pairs of the contraction family at its base
    point, one per modulus s: B = d lam/ds as a bivector and A =
    (dF/ds) o f^-1 as a field, the family's Kodaira-Spencer derivative."""
    lam, F, moduli, base = family_data(ctx)
    on_cover = {**base, **ctx.contraction.inverse}
    pairs = []
    for s in moduli:
        bv = ctx.mv(lam.partial(s).substitute(base), ctx.chart.vars)
        av = MultiVector(ctx.chart, ctx.registry, {
            (i,): F[v].partial(s).substitute(on_cover) for i, v in enumerate(ctx.chart.vars)})
        pairs.append((bv, av))
    return pairs


def d_membership(model: CoverModel) -> dict:
    """Verify the tangent pairs land in D and their classes fill H1.

    Each pair must satisfy (id - f_*)(B) = [lam_s, A] exactly; the field
    pairs' kernel classes and the bivector pair's cokernel class in the
    family stratum's complex must then span its H1 (`fills`).
    """
    ctx, t = model.ctx, model.ctx.type
    stratum = family_stratum(t)
    lam_s = stratum_bivector(ctx, stratum)
    pairs = membership_pairs(ctx)
    for k, (bv, av) in enumerate(pairs):
        if bv - pushforward(ctx.contraction, bv) != schouten(lam_s, av):
            raise MembershipFails(f"pair {k} of type {t.label()}: (id-f_*)B != [lam_s, A]")
    dc = deformation_model(model, stratum)
    zero, red1 = ctx.const(0), model.reduce_m(1)
    # sound: the true class matrix differs only in one off-diagonal block, so keeps full rank
    try:
        classes = [dc.coords([zero] * len(dc.h0_sq), red1(av)) for _, av in pairs[:2]]
        classes.append(dc.coords(model.bivector_coords(pairs[2][0]), [zero] * len(dc.h1_theta)))
    except NotInSpan:
        raise MembershipFails("a field class is off the kernel of the H1 bracket map, "
                              "or the bivector direction is not invariant") from None
    if not dc.fills(classes):
        raise MembershipFails(f"the tangent classes of type {t.label()} do not fill H1")
    return {
        "type": t.label(),
        "pairs": [(str(b), str(a)) for b, a in pairs],
        "h1_dim": dc.dim_h1,
    }


# ----------------------------------------------------------------------
# obstruction certificates and the undetermined strata

def deformation_model(model: CoverModel, stratum: str) -> DeformationComplexModel:
    """The deformation complex of the stratum bivector on the cover model,
    built once and stored on it: its H1 map acts on M1, and its H0 map is
    built on first use."""
    if stratum not in model.complexes:
        label = model.ctx.type.label()
        lam0 = stratum_bivector(model.ctx, stratum)
        model.complexes[stratum] = DeformationComplexModel(
            f"Hopf {label}", "4AC-B^2=0" if stratum == "degenerate" else stratum, lam0,
            m_bracket_matrix(model, lam0), model.reduce_m(2),
            LabeledBasis(f"H0({label},Wedge2Theta)", model.bivectors),
            lambda: h0_bracket_matrix(model, lam0))
    return model.complexes[stratum]


def obstruction_certificate_hopf(model: CoverModel) -> Certificate:
    """Witness for obstructedness of the zero Poisson structure on the
    types with non-simple invariant bivectors: a = z^2 d/dz ^ d/dw (IV) or
    w^(p+1) d/dz ^ d/dw (III) and b = z d/dz, whose bracket class must be
    nonzero in M2."""
    ctx = model.ctx
    t = ctx.type
    if t.tag not in ("IV", "III"):
        raise ValueError("the zero structure is only obstructed for types IV and III")
    z, w = ctx.z(), ctx.w()
    a = ctx.mv(z * z if t.tag == "IV" else w ** (ctx.p + 1), ("z", "w"))
    b = ctx.mv(z, ("z",))
    cls = model.reduce_m(2)(schouten(a, b))
    if all(x.is_zero() for x in cls):
        raise ValueError("the witness gives a vanishing bracket class")
    return Certificate(f"Hopf {t.label()}", "zero", OBSTRUCTED,
                       witness={"a": str(a), "b": str(b)},
                       class_repr=str(combination(cls, model.m2)))


def _h95_stratum(case: str) -> tuple[HopfType, str]:
    """The type and stratum of a candidate family with no verdict, or of
    the IIc control."""
    cases = {"iv-discriminant-zero": (HopfType("IV"), "degenerate"),
             "iii-b-nonzero": (HopfType("III", DEFAULT_P), "B"),
             "iic-control": (HopfType("IIc"), "any")}
    if case not in cases:
        raise ValueError(f"unknown case {case!r}")
    return cases[case]


def h95_degeneracy(case: str, cap: int | None = None) -> bool:
    """Whether the candidate family's t-direction dies in first cohomology.

    The family (1 + t) lam0 on the stratum bivector lam0 moves in the
    direction lam0.  True reproduces the degenerate-family computation on
    the two strata with no verdict; the IIc analogue returns False as a
    control.
    """
    t, stratum = _h95_stratum(case)
    model = model_for(t, cap)
    coords = model.bivector_coords(stratum_bivector(model.ctx, stratum))
    coker = deformation_model(model, stratum).coker
    return all(c.is_zero() for c in quotient_coords(coker, coords))


def stratum_certificate(model: CoverModel, stratum: str) -> Certificate:
    """The verdict on a stratum of the model's type, built once and stored
    on the model, since it reads nothing but the model and the stratum:
    the witness of the zero structure, the verified contraction family on
    the family's stratum, and the witness search on its deformation
    complex otherwise.  Callers share it and must not change it."""
    if stratum not in model.certificates:
        t = model.ctx.type
        if stratum == "zero":
            cert = obstruction_certificate_hopf(model)
        elif stratum == family_stratum(t):
            cert = Certificate(f"Hopf {t.label()}", stratum, UNOBSTRUCTED_MC,
                               reason="verified contraction family",
                               data={"dim_h1": model.dim_h1})
        else:
            cert = r4_search(deformation_model(model, stratum))
        model.certificates[stratum] = cert
    return model.certificates[stratum]


# ----------------------------------------------------------------------
# summary rows for the table commands

def table_dims(model: CoverModel) -> dict:
    fields = invariant_fields(model.ctx, model.cap)
    bivs = invariant_bivectors(model.ctx, model.cap)
    return {
        "type": model.ctx.type.label(),
        "dim_h0_theta": len(fields),
        "dim_h0_sq": len(bivs),
        "h0_sq_basis": [str(b) for b in bivs],
        "m1": [str(e) for e in model.m1],
        "m2": [str(e) for e in model.m2],
    }
