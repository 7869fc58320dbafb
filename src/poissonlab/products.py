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
H1(Theta) map being two copies of the H0(Theta) one, see
`tp1_matrices`).  Both are built on first use, not at import, and kept
in the one process store (`obstruction.stored`, keys `("ExP1",)` and
`("TxP1",)`), so a process serving a stream of classify requests reuses
them across requests; `ep1_context()` and `tp1_context()` hand out the
stored frames.

A bivector lam = sum_j lam_j s_j with coefficients lam_j free of chart
variables has the bracket matrix sum_j lam_j M_j, M_j that of [s_j, -],
exactly (`obstruction.bracket_family`, the builder of these maps, says
why).  `ep1_bracket_matrices` and `tp1_matrices` read the lam_j with the
basis coordinate maps, which reject a bivector outside the span, and sum
the stored maps with them (`linalg.MapFamily`).
"""

from __future__ import annotations

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, ConstraintViolation, LabeledBasis, LinMap, NotInSpan,
                     Reducer, cokernel_space, generic_rank, image_space, quotient_coords)
from .multivector import (Chart, ChartFrame, FormedMultiVector, MultiVector, mc_defect,
                          schouten, schouten_formed)
from .obstruction import (OBSTRUCTED, UNOBSTRUCTED_MC, Certificate, DeformationComplexModel,
                          DolbeaultModel, bracket_family, stored)
from .rational import Frozen

_set = object.__setattr__


# ----------------------------------------------------------------------
# elliptic curve times the projective line

EP1_PARAMS = ("A", "B", "C", "F0", "F1", "F2", "t0", "t1", "t2", "s")


def _ep1_frame() -> tuple[ChartFrame, dict, dict]:
    """The ExP1 frame, its bases and its per-basis bracket maps."""
    ctx = ChartFrame(Chart("ExP1", ("z", "xi")), VarRegistry(("z", "xi"), EP1_PARAMS), ("z",))
    bases = ep1_bases(ctx)
    return ctx, bases, _ep1_basis_maps(ctx, bases)


def ep1_context() -> ChartFrame:
    """The stored ExP1 frame."""
    return stored(("ExP1",), _ep1_frame)[0]


def _xi_coords(poly: LaurentPoly) -> list[LaurentPoly]:
    """The xi^0, xi^1 and xi^2 coefficients of a polynomial constant along
    the other chart variables."""
    if not poly.uses_only(("xi",) + poly.registry.param_vars):
        raise NotInSpan("coefficient must be constant along the other factor")
    buckets = poly.coefficients_in("xi")
    if any(k not in (0, 1, 2) for k in buckets):
        raise NotInSpan("xi-degree exceeds 2")
    zero = LaurentPoly.zero(poly.registry)
    return [buckets.get(k, zero) for k in (0, 1, 2)]


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


def _ep1_theta_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    params = ctx.registry.param_vars
    zc = mv.coefficient(("z",))
    if not zc.uses_only(params):
        raise NotInSpan("d/dz coefficient must be constant")
    return [zc] + _xi_coords(mv.coefficient(("xi",)))


def _ep1_sq_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    return _xi_coords(mv.coefficient(("z", "xi")))


def _ep1_h1_sq_reducer(ctx: ChartFrame) -> Reducer:
    return Reducer("H1 wedge2 coords", lambda f: _ep1_sq_coords(ctx, f.part(("z",))))


def _ep1_basis_maps(ctx: ChartFrame, bases: dict) -> dict:
    """[s_j, -] on global sections and on first cohomology, for each basis
    bivector s_j of H0(wedge2)."""
    red0 = Reducer("H0 wedge2 coords", lambda v: _ep1_sq_coords(ctx, v))
    sq = bases["h0_sq"]
    return {"h0": bracket_family(ctx, sq, bases["h0_theta"], sq, red0),
            "h1": bracket_family(ctx, sq, bases["h1_theta"], bases["h1_sq"],
                                 _ep1_h1_sq_reducer(ctx))}


def ep1_lambda0(ctx: ChartFrame, a=None, b=None, c=None) -> MultiVector:
    """(A + B xi + C xi^2) dz ^ dxi with symbolic defaults."""
    A = ctx.param("A") if a is None else ctx.const(a)
    B = ctx.param("B") if b is None else ctx.const(b)
    C = ctx.param("C") if c is None else ctx.const(c)
    return ctx.mv(A + B * ctx.xi() + C * ctx.xi(2), ("z", "xi"))


class EP1Matrices(Frozen):
    """The bracket maps of lam0 on first cohomology and on global sections,
    and the cokernel of the second, built once per structure."""

    __slots__ = ("ctx", "lam0", "m_h1", "m_h0", "coker")

    def __init__(self, ctx: ChartFrame, lam0: MultiVector, m_h1: LinMap, m_h0: LinMap,
                 coker: ColumnSpace):
        _set(self, "ctx", ctx)
        _set(self, "lam0", lam0)
        _set(self, "m_h1", m_h1)
        _set(self, "m_h0", m_h0)
        _set(self, "coker", coker)


def ep1_bracket_matrices(a=None, b=None, c=None) -> EP1Matrices:
    """The bracket matrices of (A + B xi + C xi^2) dz ^ dxi, symbolic in
    each coefficient given as None: the stored per-basis maps summed with
    the coefficients as weights."""
    ctx, _, maps = stored(("ExP1",), _ep1_frame)
    lam0 = ep1_lambda0(ctx, a, b, c)
    coords = _ep1_sq_coords(ctx, lam0)
    m_h0 = maps["h0"].at(coords)
    return EP1Matrices(ctx, lam0, maps["h1"].at(coords), m_h0, cokernel_space(m_h0))


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


def ep1_mc_solution(mats: EP1Matrices, f_coeffs=None) -> MCSolution:
    """The corrected family on the nonzero stratum; `mats` are the bracket
    maps of its lambda0.

    f_coeffs overrides the cokernel representative (F0, F1, F2); the
    override is validated to lie outside the bracket image.
    """
    ctx, lam0 = mats.ctx, mats.lam0
    if f_coeffs is None:
        reps = mats.coker.reps
        if len(reps) != 1:
            raise ConstraintViolation("expected a one-dimensional cokernel")
        fvec = reps[0]
    else:
        fvec = [ctx.const(v) for v in f_coeffs]
        if image_space(mats.m_h0).contains(fvec):
            raise ConstraintViolation("(F0,F1,F2) lies in the bracket image")
    fpoly = fvec[0] + fvec[1] * ctx.xi() + fvec[2] * ctx.xi(2)
    kpoly = lam0.coefficient(("z", "xi"))
    t0, t1, t2 = ctx.param("t0"), ctx.param("t1"), ctx.param("t2")
    one = ctx.const(1)
    beta = (ctx.formed(ctx.mv(t0 * fpoly, ("z", "xi")))
            + ctx.formed(ctx.mv(t0 * t2 * fpoly, ("xi",)), ("z",)))
    alpha = (ctx.formed(ctx.mv(t1 * one, ("z",)), ("z",))
             + ctx.formed(ctx.mv(t2 * kpoly, ("xi",)), ("z",)))
    return MCSolution("ExP1", lam0, beta, alpha, ("t0", "t1", "t2"))


def ep1_dolbeault_model(a=None, b=None, c=None) -> DolbeaultModel:
    """Second-cohomology model used by the primary obstruction class."""
    mats = ep1_bracket_matrices(a, b, c)
    ctx = mats.ctx
    space = cokernel_space(mats.m_h1)

    def reduce_11(arg):
        key, piece = arg
        return quotient_coords(space, _ep1_sq_coords(ctx, piece))

    return DolbeaultModel(
        name="ExP1",
        lambda0=mats.lam0,
        dbar_vars=ctx.dbar,
        class_reducers={(1, 2): Reducer("H1 wedge2 classes", reduce_11)},
    )


def ep1_classify(a, b, c) -> Certificate:
    """Verdict for (A + B xi + C xi^2) dz^dxi; exact rational input."""
    mats = ep1_bracket_matrices(a, b, c)
    ctx = mats.ctx
    stratum = "zero" if a == 0 and b == 0 and c == 0 else "nonzero"
    model = DeformationComplexModel("ExP1", stratum, mats.m_h1, _ep1_h1_sq_reducer(ctx),
                                    mats.m_h0.codomain, lambda: mats.m_h0, mats.coker)
    dims = {"dim_h1": model.dim_h1, "dim_h2": model.dim_h2}
    if stratum == "zero":
        witness_a = ctx.mv(ctx.const(1), ("z", "xi"))
        witness_b = ctx.formed(ctx.mv(ctx.xi(), ("xi",)), ("z",))
        cls = schouten_formed(ctx.formed(witness_a), witness_b)
        if cls.is_zero():
            raise AssertionError("witness bracket vanished")
        return Certificate(
            "ExP1", stratum, OBSTRUCTED,
            witness={"a": str(witness_a), "b": str(witness_b)},
            class_repr=str(cls),
            data=dims,
        )
    sol = ep1_mc_solution(mats)
    defect = sol.defect()
    if not defect.is_zero():
        raise AssertionError("Maurer-Cartan defect did not vanish")
    columns = [model.coords(_ep1_sq_coords(ctx, el.part(())),
                            _ep1_theta_coords(ctx, el.part(("z",))))
               for el in sol.tangents()]
    if not model.fills(columns):
        raise AssertionError("tangent map is not onto first cohomology")
    return Certificate(
        "ExP1", stratum, UNOBSTRUCTED_MC,
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
    return stored(("TxP1",), _tp1_frame)[0]


class TP1PoissonClass(Frozen):
    """One of the three families of Poisson structures on the product."""

    __slots__ = ("class_id", "coeffs")

    def __init__(self, class_id: int, coeffs: dict | None = None):
        coeffs = {} if coeffs is None else coeffs
        if class_id not in (1, 2, 3):
            raise ValueError("class_id must be 1, 2 or 3")
        if class_id in (2, 3):
            vals = [coeffs.get(n) for n in ("A", "B", "C")]
            if all(v == 0 for v in vals if v is not None) and any(
                    v is not None for v in vals):
                raise ConstraintViolation("(A,B,C) must not vanish on this class")
        _set(self, "class_id", class_id)
        _set(self, "coeffs", coeffs)


def tp1_lambda0(ctx: ChartFrame, cls: TP1PoissonClass) -> MultiVector:
    def take(name, default_symbolic=True):
        if name in cls.coeffs and cls.coeffs[name] is not None:
            return ctx.const(cls.coeffs[name])
        return ctx.param(name) if default_symbolic else ctx.const(0)

    D = take("D")
    out = ctx.mv(D, ("z1", "z2"))
    if cls.class_id == 1:
        return out
    K = take("A") + take("B") * ctx.xi() + take("C") * ctx.xi(2)
    if cls.class_id == 2:
        kk = take("k")
        # dxi ^ dz1 carries a sign against the sorted component order
        return out + ctx.mv(K, ("z2", "xi")) - ctx.mv(kk * K, ("z1", "xi"))
    return out - ctx.mv(K, ("z1", "xi"))


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


def tp1_sq_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    """Coordinates in the 7-element global bivector basis."""
    params = ctx.registry.param_vars
    c12 = mv.coefficient(("z1", "z2"))
    if not c12.uses_only(params):
        raise NotInSpan("dz1^dz2 coefficient must be constant")
    out = [c12]
    out += _xi_coords(mv.coefficient(("z2", "xi")))
    # basis stores dxi ^ dz1 = -(dz1 ^ dxi)
    out += [-p for p in _xi_coords(mv.coefficient(("z1", "xi")))]
    return out


def tp1_theta_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    params = ctx.registry.param_vars
    out = []
    for v in ("z1", "z2"):
        c = mv.coefficient((v,))
        if not c.uses_only(params):
            raise NotInSpan("torus directions must have constant coefficients")
        out.append(c)
    out += _xi_coords(mv.coefficient(("xi",)))
    return out


def tp1_cube_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    return _xi_coords(mv.coefficient(("z1", "z2", "xi")))


def _tp1_basis_maps(ctx: ChartFrame, bases: dict) -> dict:
    """[s_j, -] as H0(Theta) -> H0(wedge2) and H0(wedge2) -> H0(wedge3), for
    each basis bivector s_j of H0(wedge2)."""
    sq = bases["h0_sq"]
    return {
        "h0": bracket_family(ctx, sq, bases["h0_theta"], sq,
                             Reducer("sq coords", lambda v: tp1_sq_coords(ctx, v))),
        "sq_cube": bracket_family(ctx, sq, sq, bases["h0_cube"],
                                  Reducer("cube coords", lambda v: tp1_cube_coords(ctx, v))),
    }


class TP1Matrices(Frozen):
    """The bracket maps of lam0 on the bases, built once per structure:
    H0(Theta) -> H0(wedge2), H0(wedge2) -> H0(wedge3) and
    H1(Theta) -> H1(wedge2); and, on class 2, lam0 = D dz1^dz2 +
    K dz2^dxi - k K dz1^dxi read as its polynomial K and its constant k
    (K zero and k None off class 2)."""

    __slots__ = ("ctx", "lam0", "bases", "m_h0", "m_sq_cube", "m_h1", "K", "k")

    def __init__(self, ctx: ChartFrame, lam0: MultiVector, bases: dict, m_h0: LinMap,
                 m_sq_cube: LinMap, m_h1: LinMap, K: LaurentPoly, k: LaurentPoly | None):
        _set(self, "ctx", ctx)
        _set(self, "lam0", lam0)
        _set(self, "bases", bases)
        _set(self, "m_h0", m_h0)
        _set(self, "m_sq_cube", m_sq_cube)
        _set(self, "m_h1", m_h1)
        _set(self, "K", K)
        _set(self, "k", k)


def tp1_matrices(ctx, lam0) -> TP1Matrices:
    """The bracket maps of lam0, a bivector in the span of H0(wedge2): the
    stored per-basis maps summed with its coordinates as weights; `ctx`
    is tp1_context()."""
    _, bases, maps = stored(("TxP1",), _tp1_frame)
    coords = tp1_sq_coords(ctx, lam0)
    m_h0 = maps["h0"].at(coords)
    # H1(Theta) and H1(wedge2) are H0(Theta) dzbar_g and H0(wedge2) dzbar_g,
    # g = z1 then z2, and [lam0, v dzbar_g] = [lam0, v] dzbar_g: the H1 map
    # is diag(m_h0, m_h0)
    pad = (LaurentPoly.zero(ctx.registry),) * m_h0.n_cols
    rows = [row + pad for row in m_h0.rows] + [pad + row for row in m_h0.rows]
    m_h1 = LinMap(bases["h1_theta"], bases["h1_sq"], rows, ctx.registry)
    K = lam0.coefficient(("z2", "xi"))
    k = -lam0.coefficient(("z1", "xi")).exact_div(K) if K.terms else None
    return TP1Matrices(ctx, lam0, bases, m_h0, maps["sq_cube"].at(coords), m_h1, K, k)


def tp1_model(mats: TP1Matrices, stratum: str) -> DeformationComplexModel:
    """The deformation-complex model of `mats`, with the bare image of m_h0
    for cokernel space: on the 3-fold the bivector classes are the kernel
    of the wedge^3 map modulo that image, and `tp1_classify` registers
    their representatives."""
    ctx = mats.ctx
    reduce_h1_sq = Reducer("H1 wedge2 coords", lambda f: [
        c for g in ("z1", "z2") for c in tp1_sq_coords(ctx, f.part((g,)))])
    return DeformationComplexModel("TxP1", stratum, mats.m_h1, reduce_h1_sq, mats.bases["h0_sq"],
                                   lambda: mats.m_h0, image_space(mats.m_h0))


def tp1_dims(mats: TP1Matrices, model: DeformationComplexModel) -> dict:
    """The dimensions of H0 and H1: H1 is the kernel of the wedge^3 map
    modulo the image of m_h0, plus the kernel of m_h1.  `model` is
    tp1_model(mats); the wedge^3 kernel is a 3-fold fact, counted here."""
    rank_h0 = mats.m_h0.n_cols - model.dim_h0
    middle_ker = mats.m_sq_cube.n_cols - generic_rank(mats.m_sq_cube)
    return {"dim_h0": model.dim_h0, "dim_h1": middle_ker - rank_h0 + len(model.h1_kernel)}


def tp1_mc_solution(mats: TP1Matrices, f_coeffs=None) -> MCSolution:
    """The corrected class-2 solution, fully symbolic in t0..t8."""
    ctx, lam0, m_h0, K, kpar = mats.ctx, mats.lam0, mats.m_h0, mats.K, mats.k
    if kpar is None:
        raise ConstraintViolation("polynomial solutions are built on class 2")
    if f_coeffs is None:
        gamma_map = [[m_h0.rows[i][j] for j in (2, 3, 4)] for i in (1, 2, 3)]
        gm = LinMap(LabeledBasis("gamma", ("g0", "g1", "g2")),
                    LabeledBasis("K-multiples", ("x0", "x1", "x2")),
                    gamma_map, ctx.registry)
        reps = cokernel_space(gm).reps
        if len(reps) != 1:
            raise ConstraintViolation("expected a one-dimensional cokernel")
        fvec = reps[0]
    else:
        fvec = [ctx.const(v) for v in f_coeffs]
    F = fvec[0] + fvec[1] * ctx.xi() + fvec[2] * ctx.xi(2)
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
    beta = ctx.formed(lam_t + lam_corr)
    alpha = phi_t + phi_corr
    return MCSolution("TxP1", lam0, beta, alpha,
                      tuple(f"t{i}" for i in range(9)))


def tp1_integrability(sol: MCSolution) -> dict:
    """The three graded pieces of the integrability identity, exactly."""
    from .rational import GaussianRational

    lam0f = FormedMultiVector.of(sol.lambda0, sol.beta.dbar_vars)
    beta, alpha = sol.beta, sol.alpha
    half = GaussianRational.of(1) / 2
    p14 = schouten_formed(lam0f, beta) + schouten_formed(beta, beta).scale(half)
    p15 = schouten_formed(lam0f, alpha) + schouten_formed(beta, alpha)
    p16 = schouten_formed(alpha, alpha).scale(half)
    return {"p14": p14, "p15": p15, "p16": p16}


def tp1_classify(cls: TP1PoissonClass) -> Certificate:
    ctx = tp1_context()
    lam0 = tp1_lambda0(ctx, cls)
    if not schouten(lam0, lam0).is_zero():
        raise ConstraintViolation("the bivector is not Poisson")
    if cls.class_id == 3:
        lam0 = tp1_lambda0(ctx, _swap_to_class2(cls))
    mats = tp1_matrices(ctx, lam0)
    # the rank count and the class coordinates share one elimination of each map
    model = tp1_model(mats, f"class-{cls.class_id}")
    dim_h1 = tp1_dims(mats, model)["dim_h1"]
    if cls.class_id == 1:
        if dim_h1 != 17:
            raise AssertionError("class-1 first cohomology should have dimension 17")
        return Certificate(
            "TxP1", "class-1", OBSTRUCTED,
            reason="obstructed already in complex deformations; the bracket "
                   "differentials vanish so deformations of the complex "
                   "structure embed untouched",
            data={"dim_h1": dim_h1},
        )
    sol = tp1_mc_solution(mats)
    pieces = tp1_integrability(sol)
    for name, val in pieces.items():
        if not val.is_zero():
            raise AssertionError(f"integrability piece {name} did not vanish")
    # cokernel representatives of the bivector block: dz1^dz2, the
    # F-direction, and K dxi^dz1
    tangents = sol.tangents()
    F = tangents[2].part(()).coefficient(("z2", "xi"))
    for r in (ctx.mv(ctx.const(1), ("z1", "z2")),
              ctx.mv(F, ("z2", "xi")) - ctx.mv(mats.k * F, ("z1", "xi")),
              -ctx.mv(mats.K, ("z1", "xi"))):
        model.coker.add(tp1_sq_coords(ctx, r), rep=True)
    columns = [model.coords(tp1_sq_coords(ctx, el.part(())),
                            tp1_theta_coords(ctx, el.part(("z1",)))
                            + tp1_theta_coords(ctx, el.part(("z2",))))
               for el in tangents]
    if not model.fills(columns):
        raise AssertionError("tangent map does not fill the 9 directions")
    if dim_h1 != 9:
        raise AssertionError("expected dim H1 = 9 on this class")
    return Certificate(
        "TxP1", f"class-{cls.class_id}", UNOBSTRUCTED_MC,
        reason="verified polynomial Maurer-Cartan solution",
        data={"dim_h1": dim_h1},
    )


def _swap_to_class2(cls: TP1PoissonClass) -> TP1PoissonClass:
    """Exchange the torus coordinates: class 3 becomes class 2 with k = 0."""
    coeffs = dict(cls.coeffs)
    out = {"k": 0}
    for name in ("A", "B", "C", "D"):
        if name in coeffs and coeffs[name] is not None:
            out[name] = -coeffs[name]
    return TP1PoissonClass(2, out)


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
