"""Products with a projective line, and constant-field tori.

Dolbeault models with constant or low-degree polynomial coefficients:
an elliptic-curve factor contributes antiholomorphic generators, the
projective-line factor contributes the quadratic xi-direction.  All
Maurer-Cartan solutions here are polynomials in the deformation
parameters and are verified as exact identities.

`_ep1_frame` and `_tp1_frame` build the frame of ExP1 or TxP1, its
bases (`ep1_bases`, `tp1_bases`) and its per-basis bracket maps: for
each basis bivector s_j of H0(wedge2), the matrices of [s_j, -] (ExP1:
on H0(Theta) and on H1(Theta); TxP1: on H0(Theta) and on H0(wedge2), its
H1(Theta) map being two copies of the H0(Theta) one, see `tp1_model`).
Both are built on first use, not at import, and kept in the one process
store (`obstruction.stored`, keys `("ExP1",)` and `("TxP1",)`), so a
process serving a stream of classify requests reuses them across
requests; `product_frame` hands out the stored triples, `ep1_context()`
and `tp1_context()` the frames alone.

A bivector lam = sum_j lam_j s_j with coefficients lam_j free of chart
variables has the bracket matrix sum_j lam_j M_j, M_j that of [s_j, -],
exactly (`obstruction.bracket_family`, the builder of these maps, says
why).  `ep1_model` and `tp1_model` read the lam_j with
`multivector.basis_coords`, which rejects a bivector outside the span,
and return the structure's `DeformationComplexModel`, its maps the
stored ones summed with them (`linalg.MapFamily`).  Every basis here is
monomial, so that one reader gives every coordinate the module needs.

`tp1_classify` takes any Poisson bivector in the span and reads its
class off its coordinates [c | a | b] on dz1^dz2, xi^j dz2^dxi and
xi^j dxi^dz1: class 2 where a is nonzero, class 3 where only b is, and
class 1 where both vanish.  Exchanging the torus coordinates turns
class 3 into class 2 with k = 0.

Each Maurer-Cartan family is verified once per process, over all its
coefficients: `ep1_family` builds the ExP1 nonzero-stratum family with
A, B, C and the cokernel representative F = F0 + F1 xi + F2 xi^2
symbolic, `tp1_family` the TxP1 class-2 family with D, A, B, C, k and
F0..F2 symbolic, and each keeps the family and its verified identity in
the store (keys `("ExP1", "family")` and `("TxP1", "family")`; a failed
identity raises `IdentityFails`, an AssertionError, and stores nothing).
A request builds its own solution with the same builder
(`ep1_family_solution`, `tp1_family_solution`) from its own K, k and F,
elements free of chart variables.  Substituting such elements for the
parameters is a ring map that fixes the chart variables, so it commutes
with the Schouten bracket, which differentiates chart variables only
(`bracket_family` makes the same argument): the request's identity is
the image of the stored one, zero.  So `classify`, `mc-check` and
`verify-family` read that one verification.  What depends on the
request stays per request: parsing, the Poisson check, the class or
stratum, K nonzero with k free of chart variables, F from the request's
own cokernel, the dimensions and the check that the tangents fill first
cohomology at the request's point, since a rank can drop at a point.
"""

from __future__ import annotations

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ConstraintViolation, LabeledBasis, LinMap, cokernel_space, generic_rank,
                     image_space, quotient_coords)
from .multivector import (Chart, ChartFrame, FormedMultiVector, MultiVector, basis_coords,
                          bracket, combination, mc_defect, schouten, schouten_formed)
from .obstruction import (OBSTRUCTED, UNOBSTRUCTED_MC, Certificate, DeformationComplexModel,
                          DolbeaultModel, bracket_family, r4_search, stored)


# ----------------------------------------------------------------------
# elliptic curve times the projective line

EP1_PARAMS = ("A", "B", "C", "F0", "F1", "F2", "t0", "t1", "t2", "s")


def _ep1_frame() -> tuple[ChartFrame, dict, dict]:
    """The ExP1 frame, its bases and its per-basis bracket maps."""
    ctx = ChartFrame(Chart("ExP1", ("z", "xi")), VarRegistry(("z", "xi"), EP1_PARAMS), ("z",))
    bases = ep1_bases(ctx)
    return ctx, bases, _ep1_basis_maps(ctx, bases)


def product_frame(name: str) -> tuple[ChartFrame, dict, dict]:
    """The stored frame of "ExP1" or "TxP1", its bases and its per-basis
    bracket maps."""
    return stored((name,), {"ExP1": _ep1_frame, "TxP1": _tp1_frame}[name])


def ep1_context() -> ChartFrame:
    """The stored ExP1 frame."""
    return product_frame("ExP1")[0]


def ep1_bases(ctx: ChartFrame) -> dict:
    one = ctx.const(1)
    theta = (ctx.mv(one, ("z",)), ctx.mv(one, ("xi",)),
             ctx.mv(ctx.xi(), ("xi",)), ctx.mv(ctx.xi(2), ("xi",)))
    sq = (ctx.mv(one, ("z", "xi")), ctx.mv(ctx.xi(), ("z", "xi")),
          ctx.mv(ctx.xi(2), ("z", "xi")))
    return {
        "h0_theta": LabeledBasis("H0(ExP1,Theta)", theta),
        "h1_theta": LabeledBasis("H1(ExP1,Theta)",
                                 tuple(ctx.formed(v, ("z",)) for v in theta)),
        "h0_sq": LabeledBasis("H0(ExP1,Wedge2Theta)", sq),
        "h1_sq": LabeledBasis("H1(ExP1,Wedge2Theta)",
                              tuple(ctx.formed(v, ("z",)) for v in sq)),
    }


def _ep1_basis_maps(ctx: ChartFrame, bases: dict) -> dict:
    """[s_j, -] on global sections and on first cohomology, for each basis
    bivector s_j of H0(wedge2)."""
    sq = bases["h0_sq"]
    return {"h0": bracket_family(ctx, sq, bases["h0_theta"], sq, basis_coords(sq)),
            "h1": bracket_family(ctx, sq, bases["h1_theta"], bases["h1_sq"],
                                 basis_coords(bases["h1_sq"]))}


def ep1_lambda0(ctx: ChartFrame, a=None, b=None, c=None) -> MultiVector:
    """(A + B xi + C xi^2) dz ^ dxi with symbolic defaults."""
    A = ctx.param("A") if a is None else ctx.const(a)
    B = ctx.param("B") if b is None else ctx.const(b)
    C = ctx.param("C") if c is None else ctx.const(c)
    return ctx.mv(_quadratic(ctx, (A, B, C)), ("z", "xi"))


def ep1_model(a=None, b=None, c=None) -> DeformationComplexModel:
    """The deformation complex of (A + B xi + C xi^2) dz ^ dxi, symbolic in
    each coefficient given as None, on the stratum "zero" or "nonzero"."""
    ctx, bases, maps = product_frame("ExP1")
    lam0 = ep1_lambda0(ctx, a, b, c)
    coords = basis_coords(bases["h0_sq"])(lam0)
    return DeformationComplexModel("ExP1", "zero" if lam0.is_zero() else "nonzero", lam0,
                                   maps["h1"].at(coords), basis_coords(bases["h1_sq"]),
                                   bases["h0_sq"], lambda: maps["h0"].at(coords))


class MCSolution:
    """A polynomial Maurer-Cartan solution: bivector part and (0,1) part."""

    __slots__ = ("name", "lambda0", "beta", "alpha", "params")

    def __init__(self, name: str, lambda0: MultiVector, beta: FormedMultiVector,
                 alpha: FormedMultiVector, params: tuple[str, ...]):
        self.name = name
        self.lambda0 = lambda0
        self.beta = beta
        self.alpha = alpha
        self.params = params

    def element(self) -> FormedMultiVector:
        return self.beta + self.alpha

    def defect(self) -> FormedMultiVector:
        return mc_defect(self.lambda0, self.element())

    def tangents(self) -> list[FormedMultiVector]:
        """The derivative of the element, a polynomial in the parameters,
        along each parameter at t = 0, in the order of `params`: the terms
        of degree exactly one in the parameters, read in one pass, each
        with its parameter removed."""
        el = self.element()
        reg = el.registry
        position = {reg.index(t): n for n, t in enumerate(self.params)}
        found = [{} for _ in self.params]  # form factor -> component -> key -> coefficient
        for factor, mv in el.parts.items():
            for comp, poly in mv.components.items():
                for key, coef in poly.terms.items():
                    hits = [(k, idx, e) for k, (idx, e) in enumerate(key) if idx in position]
                    if len(hits) == 1 and hits[0][2] == 1:
                        k, idx, _ = hits[0]
                        comps = found[position[idx]].setdefault(factor, {})
                        comps.setdefault(comp, {})[key[:k] + key[k + 1:]] = coef
        return [FormedMultiVector(el.chart, reg, el.dbar_vars, {
            factor: MultiVector(el.chart, reg, {comp: LaurentPoly(reg, terms)
                                                for comp, terms in comps.items()})
            for factor, comps in parts.items()}) for parts in found]


def _tangent_classes(model: DeformationComplexModel, tangents: list) -> list:
    """The H1 class coordinates of the tangent directions of a solution:
    each tangent, a bivector plus a (0,1)-form of fields, is read on the
    bivectors of `model.h0_sq` and the fields of `model.h1_theta` at once."""
    dbar = tangents[0].dbar_vars
    n = len(model.h0_sq)
    pairs = basis_coords(LabeledBasis("H0(Wedge2Theta) + H1(Theta)", tuple(
        FormedMultiVector.of(s, dbar) for s in model.h0_sq) + model.h1_theta.elements))
    return [model.coords(c[:n], c[n:]) for c in map(pairs, tangents)]


class IdentityFails(AssertionError):
    """A family's Maurer-Cartan identity has a nonzero piece; `pieces`
    holds every graded piece, by name."""

    def __init__(self, message: str, pieces: dict):
        super().__init__(message)
        self.pieces = pieces


class VerifiedFamily:
    """A Maurer-Cartan family with every coefficient symbolic, and the
    graded pieces of its identity, each verified zero."""

    __slots__ = ("solution", "pieces")

    def __init__(self, solution: MCSolution, pieces: dict):
        self.solution = solution
        self.pieces = pieces


def _verified(sol: MCSolution, pieces: dict, message: str) -> VerifiedFamily:
    for name, val in pieces.items():
        if not val.is_zero():
            raise IdentityFails(message.format(name), pieces)
    return VerifiedFamily(sol, pieces)


def _quadratic(ctx: ChartFrame, coeffs) -> LaurentPoly:
    """c0 + c1 xi + c2 xi^2."""
    return coeffs[0] + coeffs[1] * ctx.xi() + coeffs[2] * ctx.xi(2)


def ep1_family_solution(lam0: MultiVector, fpoly: LaurentPoly) -> MCSolution:
    """The corrected family over lam0 = K dz^dxi with cokernel representative
    F: beta = t0 F dz^dxi + t0 t2 F dxi dzbar, alpha = t1 dz dzbar +
    t2 K dxi dzbar.  The one builder of the stored family and of every
    request's solution."""
    ctx = ep1_context()
    kpoly = lam0.coefficient(("z", "xi"))
    t0, t1, t2 = ctx.param("t0"), ctx.param("t1"), ctx.param("t2")
    beta = (ctx.formed(ctx.mv(t0 * fpoly, ("z", "xi")))
            + ctx.formed(ctx.mv(t0 * t2 * fpoly, ("xi",)), ("z",)))
    alpha = (ctx.formed(ctx.mv(t1 * ctx.const(1), ("z",)), ("z",))
             + ctx.formed(ctx.mv(t2 * kpoly, ("xi",)), ("z",)))
    return MCSolution("ExP1", lam0, beta, alpha, ("t0", "t1", "t2"))


def ep1_mc_solution(model: DeformationComplexModel) -> MCSolution:
    """The corrected family on the nonzero stratum of `ep1_model`, with the
    model's own cokernel representative for F."""
    reps = model.coker.reps
    if len(reps) != 1:
        raise ConstraintViolation("expected a one-dimensional cokernel")
    return ep1_family_solution(model.lam0, _quadratic(ep1_context(), reps[0]))


def _ep1_verified() -> VerifiedFamily:
    ctx = ep1_context()
    sol = ep1_family_solution(ep1_lambda0(ctx),
                              _quadratic(ctx, [ctx.param(f"F{i}") for i in range(3)]))
    return _verified(sol, {"defect": sol.defect()}, "Maurer-Cartan defect did not vanish")


def ep1_family() -> VerifiedFamily:
    """The nonzero-stratum family with A, B, C and F0..F2 symbolic, its
    defect verified zero once per process."""
    return stored(("ExP1", "family"), _ep1_verified)


def ep1_dolbeault_model(a=None, b=None, c=None) -> DolbeaultModel:
    """Second-cohomology model used by the primary obstruction class."""
    model = ep1_model(a, b, c)
    space = cokernel_space(model.h1)
    read = basis_coords(model.h0_sq)

    def reduce_11(arg):
        key, piece = arg
        return quotient_coords(space, read(piece))

    return DolbeaultModel(
        name="ExP1",
        lambda0=model.lam0,
        dbar_vars=ep1_context().dbar,
        class_reducers={(1, 2): reduce_11},
    )


def ep1_classify(a, b, c) -> Certificate:
    """Verdict for (A + B xi + C xi^2) dz^dxi; exact rational input.  The
    zero structure's verdict is the witness search on its model."""
    model = ep1_model(a, b, c)
    dims = {"dim_h1": model.dim_h1, "dim_h2": model.dim_h2}
    if model.stratum == "zero":
        cert = r4_search(model)
        cert.data.update(dims)
        return cert
    ep1_family()
    sol = ep1_mc_solution(model)
    if not model.fills(_tangent_classes(model, sol.tangents())):
        raise AssertionError("tangent map is not onto first cohomology")
    return Certificate(
        "ExP1", model.stratum, UNOBSTRUCTED_MC,
        reason="verified polynomial Maurer-Cartan solution",
        data=dims,
    )


# ----------------------------------------------------------------------
# torus times the projective line

TP1_PARAMS = ("D", "A", "B", "C", "k", "F0", "F1", "F2",
              "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "s")


def _tp1_frame() -> tuple[ChartFrame, dict, dict]:
    """The TxP1 frame, its bases and its per-basis bracket maps."""
    ctx = ChartFrame(Chart("TxP1", ("z1", "z2", "xi")),
                     VarRegistry(("z1", "z2", "xi"), TP1_PARAMS), ("z1", "z2"))
    bases = tp1_bases(ctx)
    return ctx, bases, _tp1_basis_maps(ctx, bases)


def tp1_context() -> ChartFrame:
    """The stored TxP1 frame."""
    return product_frame("TxP1")[0]


def tp1_lambda0(class_id: int) -> MultiVector:
    """The bivector of class 1, 2 or 3 with symbolic coefficients: D dz1^dz2,
    plus K dz2^dxi - k K dz1^dxi on class 2 and -K dz1^dxi on class 3,
    K = A + B xi + C xi^2."""
    ctx = tp1_context()
    K = _quadratic(ctx, [ctx.param(n) for n in ("A", "B", "C")])
    # dxi ^ dz1 carries a sign against the sorted component order
    blocks = {1: ctx.zero(),
              2: ctx.mv(K, ("z2", "xi")) - ctx.mv(ctx.param("k") * K, ("z1", "xi")),
              3: -ctx.mv(K, ("z1", "xi"))}
    return ctx.mv(ctx.param("D"), ("z1", "z2")) + blocks[class_id]


def tp1_bases(ctx: ChartFrame) -> dict:
    one = ctx.const(1)
    xis = (one, ctx.xi(), ctx.xi(2))
    theta = [ctx.mv(one, ("z1",)), ctx.mv(one, ("z2",))] + [ctx.mv(x, ("xi",)) for x in xis]
    sq = ([ctx.mv(one, ("z1", "z2"))]
          + [ctx.mv(x, ("z2", "xi")) for x in xis]
          + [-ctx.mv(x, ("z1", "xi")) for x in xis])  # dxi ^ dz1 ordering
    cube = [ctx.mv(x, ("z1", "z2", "xi")) for x in xis]
    h1_theta = []
    for g in ("z1", "z2"):
        h1_theta.append(ctx.formed(ctx.mv(one, ("z1",)), (g,)))
        h1_theta.append(ctx.formed(ctx.mv(one, ("z2",)), (g,)))
        for x in xis:
            h1_theta.append(ctx.formed(ctx.mv(x, ("xi",)), (g,)))
    h1_sq = []
    for g in ("z1", "z2"):
        for v in sq:
            h1_sq.append(ctx.formed(v, (g,)))
    h2_theta = [ctx.formed(v, ("z1", "z2")) for v in theta]
    h2_sq = [ctx.formed(v, ("z1", "z2")) for v in sq]
    h1_cube = [ctx.formed(v, (g,)) for g in ("z1", "z2") for v in cube]
    return {
        "h0_theta": LabeledBasis("H0(TxP1,Theta)", tuple(theta)),
        "h1_theta": LabeledBasis("H1(TxP1,Theta)", tuple(h1_theta)),
        "h2_theta": LabeledBasis("H2(TxP1,Theta)", tuple(h2_theta)),
        "h0_sq": LabeledBasis("H0(TxP1,Wedge2Theta)", tuple(sq)),
        "h1_sq": LabeledBasis("H1(TxP1,Wedge2Theta)", tuple(h1_sq)),
        "h2_sq": LabeledBasis("H2(TxP1,Wedge2Theta)", tuple(h2_sq)),
        "h0_cube": LabeledBasis("H0(TxP1,Wedge3Theta)", tuple(cube)),
        "h1_cube": LabeledBasis("H1(TxP1,Wedge3Theta)", tuple(h1_cube)),
    }


def _tp1_basis_maps(ctx: ChartFrame, bases: dict) -> dict:
    """[s_j, -] as H0(Theta) -> H0(wedge2) and H0(wedge2) -> H0(wedge3), for
    each basis bivector s_j of H0(wedge2)."""
    sq = bases["h0_sq"]
    return {
        "h0": bracket_family(ctx, sq, bases["h0_theta"], sq, basis_coords(sq)),
        "sq_cube": bracket_family(ctx, sq, sq, bases["h0_cube"],
                                  basis_coords(bases["h0_cube"])),
    }


def tp1_model(lam0: MultiVector, stratum: str) -> DeformationComplexModel:
    """The deformation complex of lam0, a bivector in the span of
    H0(wedge2), with the bare image of its H0 map for cokernel space: on
    the 3-fold the bivector classes are the kernel of the wedge^3 map
    modulo that image, and `tp1_classify` registers their representatives."""
    _, bases, maps = product_frame("TxP1")
    m_h0 = maps["h0"].at(basis_coords(bases["h0_sq"])(lam0))
    # H1(Theta) and H1(wedge2) are H0(Theta) dzbar_g and H0(wedge2) dzbar_g,
    # g = z1 then z2, and [lam0, v dzbar_g] = [lam0, v] dzbar_g: the H1 map
    # is diag(m_h0, m_h0)
    pad = (LaurentPoly.zero(lam0.registry),) * m_h0.n_cols
    rows = [row + pad for row in m_h0.rows] + [pad + row for row in m_h0.rows]
    m_h1 = LinMap(bases["h1_theta"], bases["h1_sq"], rows, lam0.registry)
    return DeformationComplexModel("TxP1", stratum, lam0, m_h1, basis_coords(bases["h1_sq"]),
                                   bases["h0_sq"], lambda: m_h0, image_space(m_h0))


def tp1_dims(model: DeformationComplexModel) -> dict:
    """The dimensions of H0 and H1 of a `tp1_model`: H1 is the kernel of
    the wedge^3 map, summed from the stored family, modulo the image of
    the H0 map, plus the kernel of the H1 map.  The wedge^3 kernel is a
    3-fold fact, counted here."""
    _, bases, maps = product_frame("TxP1")
    m_sq_cube = maps["sq_cube"].at(basis_coords(bases["h0_sq"])(model.lam0))
    rank_h0 = model.h0.n_cols - model.dim_h0
    middle_ker = m_sq_cube.n_cols - generic_rank(m_sq_cube)
    return {"dim_h0": model.dim_h0, "dim_h1": middle_ker - rank_h0 + len(model.h1_kernel)}


def tp1_family_solution(lam0: MultiVector, K: LaurentPoly, kpar: LaurentPoly,
                        F: LaurentPoly) -> MCSolution:
    """The corrected solution over lam0 = D dz1^dz2 + K dz2^dxi - k K dz1^dxi
    with cokernel representative F, polynomial in t0..t8.  The one builder
    of the stored family and of every request's solution."""
    ctx = tp1_context()
    t = {i: ctx.param(f"t{i}") for i in range(9)}
    lam_t = (ctx.mv(t[0], ("z1", "z2"))
             + ctx.mv(t[2] * F, ("z2", "xi"))
             - ctx.mv(t[1] * K + kpar * t[2] * F, ("z1", "xi")))
    lam_corr = -ctx.mv(t[1] * t[2] * F, ("z1", "xi"))
    phi_t = None
    for g, c1, c2, c3 in (("z1", t[3], t[4], t[7]), ("z2", t[5], t[6], t[8])):
        piece = (ctx.formed(ctx.mv(c1, ("z1",)), (g,))
                 + ctx.formed(ctx.mv(c2, ("z2",)), (g,))
                 + ctx.formed(ctx.mv(c3 * K, ("xi",)), (g,)))
        phi_t = piece if phi_t is None else phi_t + piece
    phi_corr = (ctx.formed(ctx.mv(t[2] * t[7] * F, ("xi",)), ("z1",))
                + ctx.formed(ctx.mv(t[2] * t[8] * F, ("xi",)), ("z2",)))
    return MCSolution("TxP1", lam0, ctx.formed(lam_t + lam_corr), phi_t + phi_corr,
                      tuple(f"t{i}" for i in range(9)))


def tp1_mc_solution(model: DeformationComplexModel) -> MCSolution:
    """The corrected solution on class 2 of `tp1_model`: K, k and the
    cokernel representative F read off the model's own bivector and H0 map."""
    ctx, lam0, m_h0 = tp1_context(), model.lam0, model.h0
    K = lam0.coefficient(("z2", "xi"))
    if K.is_zero():
        raise ConstraintViolation("polynomial solutions are built on class 2")
    kpar = -lam0.coefficient(("z1", "xi")).exact_div(K)
    if not kpar.uses_only(ctx.registry.param_vars):
        raise ConstraintViolation("the ratio k of the class-2 bivector involves chart variables")
    gamma_map = [[m_h0.rows[i][j] for j in (2, 3, 4)] for i in (1, 2, 3)]
    gm = LinMap(LabeledBasis("gamma", ("g0", "g1", "g2")),
                LabeledBasis("K-multiples", ("x0", "x1", "x2")),
                gamma_map, ctx.registry)
    reps = cokernel_space(gm).reps
    if len(reps) != 1:
        raise ConstraintViolation("expected a one-dimensional cokernel")
    return tp1_family_solution(lam0, K, kpar, _quadratic(ctx, reps[0]))


def tp1_integrability(sol: MCSolution) -> dict:
    """The three graded pieces of the integrability identity, exactly."""
    from .rational import GaussianRational

    lam0, beta, alpha = sol.lambda0, sol.beta, sol.alpha
    half = GaussianRational.of(1) / 2
    p14 = bracket(lam0, beta) + schouten_formed(beta, beta).scale(half)
    p15 = bracket(lam0, alpha) + schouten_formed(beta, alpha)
    p16 = schouten_formed(alpha, alpha).scale(half)
    return {"p14": p14, "p15": p15, "p16": p16}


def _tp1_verified() -> VerifiedFamily:
    ctx, lam0 = tp1_context(), tp1_lambda0(2)
    sol = tp1_family_solution(lam0, lam0.coefficient(("z2", "xi")), ctx.param("k"),
                              _quadratic(ctx, [ctx.param(f"F{i}") for i in range(3)]))
    return _verified(sol, tp1_integrability(sol), "integrability piece {} did not vanish")


def tp1_family() -> VerifiedFamily:
    """The class-2 family with D, A, B, C, k and F0..F2 symbolic, its three
    integrability pieces verified zero once per process."""
    return stored(("TxP1", "family"), _tp1_verified)


def tp1_classify(lam0: MultiVector) -> Certificate:
    """Verdict for a bivector in the span of H0(wedge2), which must be
    Poisson: its class is read off its coordinates [c | a | b]."""
    if not schouten(lam0, lam0).is_zero():
        raise ConstraintViolation("bivector violates the Poisson identity")
    sq = product_frame("TxP1")[1]["h0_sq"]
    read_sq = basis_coords(sq)
    coords = read_sq(lam0)
    c, a, b = coords[:1], coords[1:4], coords[4:]
    if any(p.terms for p in a):
        class_id = 2
    elif any(p.terms for p in b):
        # exchanging z1 and z2 makes class 3 class 2 with k = 0
        class_id, lam0 = 3, combination([-p for p in c + b + a], sq)
    else:
        class_id = 1
    # the rank count and the class coordinates share one elimination of each map
    model = tp1_model(lam0, f"class-{class_id}")
    dim_h1 = tp1_dims(model)["dim_h1"]
    if class_id == 1:
        if dim_h1 != 17:
            raise AssertionError("class-1 first cohomology should have dimension 17")
        return Certificate(
            "TxP1", "class-1", OBSTRUCTED,
            reason="obstructed already in complex deformations; the bracket "
                   "differentials vanish so deformations of the complex "
                   "structure embed untouched",
            data={"dim_h1": dim_h1},
        )
    tp1_family()
    sol = tp1_mc_solution(model)
    # cokernel representatives of the bivector block: the bivector parts of
    # the t0, t1 and t2 tangents, dz1^dz2, K dxi^dz1 and the F-direction
    tangents = sol.tangents()
    for tangent in tangents[:3]:
        model.coker.add(read_sq(tangent.part(())), rep=True)
    if not model.fills(_tangent_classes(model, tangents)):
        raise AssertionError("tangent map does not fill the 9 directions")
    if dim_h1 != 9:
        raise AssertionError("expected dim H1 = 9 on this class")
    return Certificate(
        "TxP1", f"class-{class_id}", UNOBSTRUCTED_MC,
        reason="verified polynomial Maurer-Cartan solution",
        data={"dim_h1": dim_h1},
    )


# ----------------------------------------------------------------------
# constant-coefficient complex tori

def torus_dims(n: int, coeffs: dict | None = None) -> int:
    """dim H1 of the deformation complex on a Poisson torus of dimension n.

    The bracket differentials vanish on the constant bases, which is
    verified on every basis element before the count is returned.
    """
    if n < 1:
        raise ValueError("torus dimension must be positive")
    names = tuple(f"z{i}" for i in range(1, n + 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    params = tuple(f"b_{i+1}_{j+1}" for i, j in pairs)
    frame = ChartFrame(Chart("T", names), VarRegistry(names, params))
    lam0 = frame.zero()
    for (i, j), pname in zip(pairs, params):
        val = None if coeffs is None else coeffs.get(pname)
        coeff = frame.param(pname) if val is None else frame.const(val)
        lam0 = lam0 + frame.mv(coeff, (names[i], names[j]))
    one = frame.const(1)
    fields = [frame.mv(one, (v,)) for v in names]
    bivs = [frame.mv(one, (names[i], names[j])) for i, j in pairs]
    for x in fields + bivs:
        if not schouten(lam0, x).is_zero():
            raise AssertionError("bracket map is nonzero on a constant field")
    if not schouten(lam0, lam0).is_zero():
        raise AssertionError("constant bivector failed the Poisson identity")
    # invariance under lattice translations: constant coefficients are
    # untouched by z -> z + c
    shift = {v: frame.param(v) + one for v in names}
    if lam0.map_coefficients(lambda p: p.substitute(shift)) != lam0:
        raise AssertionError("translation invariance failed")
    return n * n + n * (n - 1) // 2
