"""Hopf surfaces: contraction quotients of C^2 minus the origin.

Everything is computed on the universal cover through the operator
id - f_* acting on truncated polynomial fields: its kernel gives the
invariant (global) fields, its cokernel models first cohomology, and
the bracket maps between those models drive the dimension tables,
automorphism kernels, family checks and obstruction certificates.
`deformation_model` puts a stratum's two bracket maps into the one
`obstruction.DeformationComplexModel`, stored on the cover model; it
answers the table row, the family check, the degenerate families and
the verdict of the stratum (`stratum_certificate`).

One cover model per type and degree cap is the input of every Hopf
computation: `model_for` is the one place that turns a type and a cap
into a model, and every other function takes the model it is given.
The model store `_MODEL_CACHE` is the module's only per-process state:
a process serving a stream of classify requests reuses each model
across requests, where rebuilding it would cost more than the rest of
a request.  A model keeps only the weight-0 blocks of its two id - f_*
matrices and computes, at most once on first use, the invariant fields
and bivectors and each stratum's complex.  A matrix is built from
f_*(g * e) = (g o f^-1) * f_*(e), from the frames e pushed forward once
and monomials g composed with f^-1 (`id_minus_fstar`).

Every id - f_* matrix is block diagonal by weighted degree, with
wt(z) = p, wt(w) = 1 for III and IIa and 1, 1 for the other types, and
triangular up to a permutation: f_* sends a monomial field to itself
times a parameter monomial plus fields of its weight that come earlier
in an order the contraction fixes.  A diagonal entry 1 - alpha^a delta^b
is zero only where the field is resonant, and every resonant field has
weight 0: the resonance condition of Poincare-Dulac normal forms.
`id_minus_fstar` checks these facts from the column supports as it
builds a matrix, so every block off weight 0 is invertible, and the
model eliminates only the weight-0 block, 3 or 4 columns at any cap:
its kernel and cokernel are those of the whole matrix, and a class
depends only on its weight-0 coordinates.  That block is complete from
cap p + 1 on, so above it the model cannot change with the cap.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, Reducer, kernel_basis,
                     matrix_of_map, quotient_coords, quotient_space)
from .multivector import (Chart, ChartFrame, ChartMap, MultiVector, combination,
                          pushforward, schouten)
from .obstruction import (OBSTRUCTED, UNOBSTRUCTED_MC, Certificate, DeformationComplexModel,
                          r4_search)
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
    __slots__ = ("type", "contraction")

    def __init__(self, chart: Chart, registry: VarRegistry, dbar: tuple[str, ...] = (), *,
                 type: HopfType, contraction: ChartMap):
        ChartFrame.__init__(self, chart, registry, dbar)
        _set(self, "type", type)
        _set(self, "contraction", contraction)

    def _key(self) -> tuple:
        return self.chart, self.registry, self.dbar, self.type, self.contraction

    @property
    def p(self) -> int:
        return self.type.p if self.type.p is not None else 1


BASE_PARAMS = ("alpha", "delta", "beta", "A", "B", "C", "t")

_MODEL_CACHE: dict = {}


def make_context(t: HopfType, extra_params: Sequence[str] = ()) -> HopfContext:
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
    return HopfContext(chart, reg, type=t, contraction=contraction)


# ----------------------------------------------------------------------
# truncated polynomial field spaces

# the frames of grades 1 and 2 as component index tuples: d/dz, d/dw; d/dz ^ d/dw
FRAMES = (((0,), (1,)), ((0, 1),))


class TruncatedSpace(Frozen):
    """The fields z^mu w^nu e of one grade, e a frame, up to total degree
    `cap`.  `index` maps (component, mu, nu) to the field's position in
    `basis`, `weights` holds each field's weighted degree, and `resonant`
    the positions of weight 0."""

    __slots__ = ("grade", "cap", "basis", "index", "weights", "resonant")

    def __init__(self, grade: int, cap: int, basis: LabeledBasis, index: dict,
                 weights: tuple[int, ...]):
        _set(self, "grade", grade)
        _set(self, "cap", cap)
        _set(self, "basis", basis)
        _set(self, "index", index)
        _set(self, "weights", weights)
        _set(self, "resonant", tuple(k for k, wt in enumerate(weights) if not wt))


def monomials_upto(cap: int):
    for d in range(cap + 1):
        for mu in range(d, -1, -1):
            yield mu, d - mu


def truncated_space(ctx: HopfContext, grade: int, cap: int) -> TruncatedSpace:
    """The fields of one grade up to degree `cap`; z^mu w^nu e has weight
    wt(z) mu + wt(w) nu - wt(e), where d/dz ^ d/dw weighs wt(z) + wt(w)."""
    if grade not in (1, 2):
        raise ValueError("grade must be 1 or 2")
    wt = (ctx.p, 1) if ctx.type.tag in ("III", "IIa") else (1, 1)
    reg, elems, index, weights = ctx.registry, [], {}, []
    for comp in FRAMES[grade - 1]:
        for mu, nu in monomials_upto(cap):
            index[comp, mu, nu] = len(elems)
            key = tuple((i, e) for i, e in ((0, mu), (1, nu)) if e)
            elems.append(MultiVector._of(ctx.chart, reg,
                                         {comp: LaurentPoly._of_terms(reg, {key: ONE})}))
            weights.append(wt[0] * mu + wt[1] * nu - sum(wt[i] for i in comp))
    name = f"{ctx.type.label()} grade-{grade} fields up to degree {cap}"
    return TruncatedSpace(grade, cap, LabeledBasis(name, tuple(elems)), index, tuple(weights))


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


def mono_coords(ctx: HopfContext, space: TruncatedSpace) -> Reducer:
    """Coordinates in the truncated monomial basis, as parameter polynomials."""
    reg, index, n = ctx.registry, space.index, len(space.basis)
    zero = LaurentPoly.zero(reg)

    def fn(v: MultiVector):
        coords = [zero] * n
        for comp, poly in v.components.items():
            for key, coeff in poly.terms.items():
                mu, nu, rest = _split(key)
                k = index.get((comp, mu, nu))
                if k is None:
                    raise NotInSpan("field not inside the truncated monomial space")
                coords[k] = coords[k] + LaurentPoly._of_terms(reg, {rest: coeff})
        return coords

    return Reducer(f"coords in {space.basis.space_name}", fn)


def _cover_columns(ctx: HopfContext, space: TruncatedSpace) -> list[dict[int, LaurentPoly]]:
    """The columns of id - f_* on `space`, each as {row: nonzero entry}.

    f_*(g * e) = (g o f^-1) * f_*(e) for a function g and a frame e.  So
    each frame is pushed forward once, and the image (z^mu w^nu) o f^-1 of
    each basis monomial is that of an earlier one times f^-1(z) or
    f^-1(w).  The contractions never lower total degree and the pushed
    frames are polynomial, so truncating every product at the cap as it
    is formed gives exactly the degree-filtered block of the full
    operator.  Each term of such a product goes straight to its row
    through `space.index`."""
    cap, inv, index, reg = space.cap, ctx.contraction.inverse, space.index, ctx.registry
    images = {(0, 0): ctx.const(1)}
    for mu, nu in list(monomials_upto(cap))[1:]:
        prev, var = ((mu - 1, nu), "z") if mu else ((0, nu - 1), "w")
        images[mu, nu] = _low_degree(images[prev] * inv[var], cap)
    cols = []
    # truncated_space lists, for each frame, its monomials in monomials_upto order
    for comp in FRAMES[space.grade - 1]:
        frame = pushforward(ctx.contraction, MultiVector._of(ctx.chart, reg, {comp: ctx.const(1)}))
        for image in images.values():
            col = {}
            for fcomp, coeff in frame.components.items():
                for key, c in (image * coeff).terms.items():
                    mu, nu, rest = _split(key)
                    if mu + nu <= cap:
                        col.setdefault(index[fcomp, mu, nu], {})[rest] = -c
            # the field itself: 1 on the diagonal
            diag = col.setdefault(len(cols), {})
            c = ONE + diag[()] if () in diag else ONE
            if c.is_zero():
                del diag[()]
            else:
                diag[()] = c
            cols.append({i: LaurentPoly._of_terms(reg, e) for i, e in col.items() if e})
    return cols


def id_minus_fstar(ctx: HopfContext, space: TruncatedSpace) -> LinMap:
    """Matrix of v -> v - f_* v on the truncated basis.

    Its column supports are checked to join no two weights, to form an
    acyclic pattern and to hold every diagonal entry off weight 0, so
    every block off weight 0 is invertible; a failure is an internal
    error."""
    cols = _cover_columns(ctx, space)
    wts, name = space.weights, space.basis.space_name
    for j, col in enumerate(cols):
        if any(wts[i] != wts[j] for i in col):
            raise RuntimeError(f"{name}: id - f_* joins two weights in column {j}")
        if wts[j] and j not in col:
            raise RuntimeError(f"{name}: id - f_* has a zero diagonal entry off weight 0 "
                               f"in column {j}")
    try:
        TopologicalSorter({j: col.keys() - {j} for j, col in enumerate(cols)}).prepare()
    except CycleError as exc:
        raise RuntimeError(f"{name}: id - f_* is not triangular up to a permutation, "
                           f"cycle {exc.args[1]}") from None
    zero = LaurentPoly.zero(ctx.registry)
    rows = [[zero] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, entry in col.items():
            rows[i][j] = entry
    return LinMap(space.basis, space.basis, rows, ctx.registry)


def triangular_order(mat: LinMap) -> tuple[int, ...]:
    """The indices of a square matrix ordered so that it is upper
    triangular: i comes before j whenever entry (i, j) is nonzero.

    Every id - f_* matrix has such an order; a cycle in its nonzero
    pattern is an internal error."""
    graph = {j: {i for i in range(mat.n_rows) if i != j and mat.rows[i][j].terms}
             for j in range(mat.n_cols)}
    try:
        return tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise RuntimeError(f"{mat.domain.space_name}: id - f_* is not triangular "
                           f"up to a permutation, cycle {exc.args[1]}") from None


def _triangular_image_space(mat: LinMap, order: Sequence[int]) -> ColumnSpace:
    """The column span of mat, pivoting in its triangular order.

    Columns with a nonzero diagonal entry enter first, the last in the
    order first, so each meets only pivots on entries where it is zero and
    pivots on its own diagonal entry; the resonant columns follow."""
    space = ColumnSpace(mat.n_rows, mat.registry, order)
    cols = mat.columns()
    for j in sorted(order[::-1], key=lambda j: mat.rows[j][j].is_zero()):
        space.add(cols[j])
    return space


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
    """Truncated cover model at one degree cap: spaces, M1/M2, images,
    invariant fields and bivectors, and `complexes`, the stored stratum
    complexes.  `id_minus_fstar` proves every block of the grade-1 and
    grade-2 matrices off weight 0 invertible, so their kernels and
    cokernels are those of the weight-0 blocks block1 and block2, the
    only parts kept; order1 and order2 are the blocks' triangular orders,
    and the kernels are taken in them.  m1_space and m2_space hold the
    images of the blocks, eliminated in those orders, with the weight-0
    coordinates of the M1/M2 representatives registered; every class
    reduction solves against them."""

    def __init__(self, ctx: HopfContext, cap: int, m1: LabeledBasis, m2: LabeledBasis,
                 grade1: tuple, grade2: tuple):
        self.ctx = ctx
        self.cap = cap
        self.m1 = m1
        self.m2 = m2
        # (space, weight-0 block, its triangular order, its image)
        self.space1, self.block1, self.order1, self.m1_space = grade1
        self.space2, self.block2, self.order2, self.m2_space = grade2
        self.complexes: dict[str, DeformationComplexModel] = {}

    def class_coords(self, grade: int, coords: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        """Class coordinates in M1 or M2 of a vector in the truncated basis,
        modulo im(id - f_*): only its weight-0 coordinates count, because
        the image holds every other weight."""
        space, quot = (self.space1, self.m1_space) if grade == 1 else (self.space2, self.m2_space)
        return quotient_coords(quot, [coords[k] for k in space.resonant])

    def reduce_m(self, grade: int) -> Reducer:
        """Class coordinates in M1 or M2, modulo im(id - f_*)."""
        mono = mono_coords(self.ctx, self.space1 if grade == 1 else self.space2)
        return Reducer(f"M{grade} classes for {self.ctx.type.label()}",
                       lambda v: self.class_coords(grade, mono(v)))

    @cached_property
    def fields(self) -> tuple[MultiVector, ...]:
        """Invariant fields: the kernel of the grade-1 id - f_*."""
        return tuple(combination(v, self.block1.domain)
                     for v in kernel_basis(self.block1, self.order1))

    @cached_property
    def _bivector_space(self) -> ColumnSpace:
        """The kernel vectors of block2, registered as representatives."""
        return quotient_space((), kernel_basis(self.block2, self.order2),
                              len(self.space2.resonant), self.ctx.registry)

    @cached_property
    def bivectors(self) -> tuple[MultiVector, ...]:
        """Invariant bivectors: the kernel of the grade-2 id - f_*."""
        return tuple(combination(v, self.block2.domain) for v in self._bivector_space.reps)

    def bivector_coords(self, v: MultiVector) -> list[LaurentPoly]:
        """Coordinates of an invariant bivector on `bivectors`, which lie in
        weight 0."""
        coords = mono_coords(self.ctx, self.space2)(v)
        if any(c.terms for c, wt in zip(coords, self.space2.weights) if wt):
            raise NotInSpan("bivector has a term off weight 0")
        return quotient_coords(self._bivector_space,
                               [coords[k] for k in self.space2.resonant])

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
    (type, registry, cap)."""
    key = (ctx.type, ctx.registry, cap)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = _build_cover_model(ctx, cap)
    return _MODEL_CACHE[key]


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
        space = truncated_space(ctx, grade, cap)
        mat = id_minus_fstar(ctx, space)
        res = space.resonant
        basis = LabeledBasis(f"{space.basis.space_name}, weight 0",
                             tuple(space.basis[k] for k in res))
        block = LinMap(basis, basis, [[mat.rows[i][j] for j in res] for i in res], ctx.registry)
        order = triangular_order(block)
        quot = _triangular_image_space(block, order)
        # the other blocks are invertible, so this is the corank of mat
        corank = len(res) - quot.rank
        if corank != len(elems):
            raise TruncationUnstable(
                f"{label} corank {corank} does not match the {len(elems)} "
                f"named representatives at degree cap {cap}")
        mono = mono_coords(ctx, space)
        for e in elems:
            vec = mono(e)
            try:
                quot.add([vec[k] for k in res], rep=True)
            except NotInSpan:
                raise TruncationUnstable(
                    f"{label} representative {e} is dependent modulo the image") from None
        grades.append((space, block, order, quot))
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


STRATA = strata(DEFAULT_P)


def h0_bracket_matrix(model: CoverModel, lam0: MultiVector) -> LinMap:
    """[lam0, -] from invariant fields to invariant bivectors."""
    label = model.ctx.type.label()
    dom = LabeledBasis(f"H0({label},Theta)", model.fields)
    cod = LabeledBasis(f"H0({label},Wedge2Theta)", model.bivectors)
    return matrix_of_map(lambda x: schouten(lam0, x), dom, cod,
                         Reducer("invariant bivector coords", model.bivector_coords),
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
    mono = mono_coords(ctx, model.space1)
    span = ColumnSpace(len(model.space1.basis), ctx.registry)
    return {
        "type": ctx.type.label(),
        "stratum": stratum,
        "dim_h0": dc.dim_h0,
        "dim_h1": dc.dim_h1,
        "dim_h2": dc.dim_h2,
        "automorphism_basis_verified": (
            all(schouten(lam0, v).is_zero() for v in basis)
            and all(span.add(mono(v)) for v in basis) and len(basis) == dc.dim_h0),
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
    """(bivector coefficient, map components) of the deformation family."""
    z, w = ctx.z(), ctx.w()
    alpha, delta, beta = ctx.param("alpha"), ctx.param("delta"), ctx.param("beta")
    A, B, C, tt = ctx.param("A"), ctx.param("B"), ctx.param("C"), ctx.param("t")
    p = ctx.p
    one = ctx.const(1)
    tag = ctx.type.tag
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


def family_invariance(ctx: HopfContext) -> bool:
    """Exact identity lam(F1, F2) = lam(z, w) * det(Jacobian of F)."""
    lam, F = family_data(ctx)
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
    """The (B, A) tangent images of the family at the base point."""
    z, w = ctx.z(), ctx.w()
    alpha, delta = ctx.param("alpha"), ctx.param("delta")
    A, B, C = ctx.param("A"), ctx.param("B"), ctx.param("C")
    p = ctx.p
    zero = ctx.zero()
    tag = ctx.type.tag
    ai = alpha ** -1
    di = delta ** -1
    if tag == "IV":
        pairs = [
            (zero, ctx.mv(ai * z, ("z",)) + ctx.mv(ai * w, ("w",))),
            (zero, ctx.mv(ai * (B * z + C * w), ("z",)) + ctx.mv(-(ai * A * z), ("w",))),
            (stratum_bivector(ctx, "generic"), zero),
        ]
    elif tag == "III":
        BA = B * A ** -1
        pairs = [
            (zero, ctx.mv(delta ** -p * (z + BA * w ** p), ("z",))),
            (zero, ctx.mv(-(di * BA * p) * w ** p, ("z",)) + ctx.mv(di * w, ("w",))),
            (stratum_bivector(ctx, "A"), zero),
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
            f"Hopf {label}", "4AC-B^2=0" if stratum == "degenerate" else stratum,
            m_bracket_matrix(model, lam0), model.reduce_m(2),
            LabeledBasis(f"H0({label},Wedge2Theta)", model.bivectors),
            lambda: h0_bracket_matrix(model, lam0))
    return model.complexes[stratum]


def obstruction_certificate_hopf(model: CoverModel, constants: dict) -> Certificate:
    """Witness for obstructedness of the zero Poisson structure on the
    types with non-simple invariant bivectors.

    `constants` assigns rationals to the bivector constants (A, B, C)
    and the field constants (d, e, f, g); the resulting bracket class
    must be nonzero in M2.
    """
    ctx = model.ctx
    t = ctx.type
    if t.tag not in ("IV", "III"):
        raise ValueError("the zero structure is only obstructed for types IV and III")
    if all(v == 0 for v in constants.values()):
        raise ValueError("degenerate input: all witness constants vanish")
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
    cls = model.reduce_m(2)(schouten(a, b))
    if all(x.is_zero() for x in cls):
        raise ValueError("chosen constants give a vanishing bracket class")
    return Certificate(f"Hopf {t.label()}", "zero", OBSTRUCTED,
                       witness={"a": str(a), "b": str(b)},
                       class_repr=str(combination(cls, model.m2)))


H95_CASES = ("iv-discriminant-zero", "iii-b-nonzero")


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
    """The verdict on a stratum of the model's type: the witness of the
    zero structure, the verified contraction family on the family's
    stratum, and the witness search on its deformation complex otherwise."""
    t = model.ctx.type
    if stratum == "zero":
        return obstruction_certificate_hopf(
            model, {"A": 1, "d": 1} if t.tag == "IV" else {"B": 1, "d": 1})
    if stratum == family_stratum(t):
        return Certificate(f"Hopf {t.label()}", stratum, UNOBSTRUCTED_MC,
                           reason="verified contraction family", data={"dim_h1": model.dim_h1})
    return r4_search(deformation_model(model, stratum))


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
