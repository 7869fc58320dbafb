"""Products with a projective line, and constant-field tori.

Dolbeault models with constant or low-degree polynomial coefficients:
an elliptic-curve factor contributes antiholomorphic generators, the
projective-line factor contributes the quadratic xi-direction.  All
Maurer-Cartan solutions here are polynomials in the deformation
parameters and are verified as exact identities.

The frame store `_FRAME_CACHE` is the module's only per-process state.
It holds the ExP1 frame with the bases built by `ep1_bases`, and the
TxP1 frame with the bases built by `tp1_bases`, each built on first use:
`ep1_context()` and `tp1_context()` hand out the stored frames, and a
process serving a stream of classify requests reuses frames and bases
across requests.
"""

from __future__ import annotations

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, ConstraintViolation, LabeledBasis, LinMap, NotInSpan,
                     Reducer, cokernel_space, generic_rank, image_space, kernel_basis,
                     matrix_of_map, quotient_coords, quotient_space)
from .multivector import (Chart, ChartFrame, FormedMultiVector, MultiVector, mc_defect,
                          schouten, schouten_formed)
from .obstruction import (OBSTRUCTED, UNOBSTRUCTED_MC, Certificate,
                          DolbeaultModel)
from .rational import Frozen

_set = object.__setattr__

_FRAME_CACHE: dict = {}


def _stored(name: str) -> tuple[ChartFrame, dict]:
    """The frame of the product `name`, "ExP1" or "TxP1", and its bases."""
    if name not in _FRAME_CACHE:
        if name == "ExP1":
            ctx = ChartFrame(Chart("ExP1", ("z", "xi")), VarRegistry(("z", "xi"), EP1_PARAMS),
                             ("z",))
            _FRAME_CACHE[name] = ctx, ep1_bases(ctx)
        else:
            ctx = ChartFrame(Chart("TxP1", ("z1", "z2", "xi")),
                             VarRegistry(("z1", "z2", "xi"), TP1_PARAMS), ("z1", "z2"))
            _FRAME_CACHE[name] = ctx, tp1_bases(ctx)
    return _FRAME_CACHE[name]


# ----------------------------------------------------------------------
# elliptic curve times the projective line

EP1_PARAMS = ("A", "B", "C", "F0", "F1", "F2", "t0", "t1", "t2", "s")


def ep1_context() -> ChartFrame:
    """The stored ExP1 frame."""
    return _stored("ExP1")[0]


def _xi_quadratic_coords(ctx, poly: LaurentPoly, registry_names) -> list[LaurentPoly]:
    """Coefficients (c0, c1, c2) of a xi-quadratic, z-free polynomial."""
    if not poly.uses_only(("xi",) + tuple(registry_names)):
        raise NotInSpan("coefficient must be constant along the curve factor")
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
    return [zc] + _xi_quadratic_coords(ctx, mv.coefficient(("xi",)), params)


def _ep1_sq_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    params = ctx.registry.param_vars
    return _xi_quadratic_coords(ctx, mv.coefficient(("z", "xi")), params)


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
    each coefficient given as None."""
    ctx, bases = _stored("ExP1")
    lam0 = ep1_lambda0(ctx, a, b, c)
    red_sq = Reducer("H1 wedge2 coords",
                     lambda f: _ep1_sq_coords(ctx, f.part(("z",))))
    m_h1 = matrix_of_map(lambda x: schouten_formed(FormedMultiVector.of(lam0, ctx.dbar), x),
                         bases["h1_theta"], bases["h1_sq"], red_sq, ctx.registry)
    red0 = Reducer("H0 wedge2 coords", lambda v: _ep1_sq_coords(ctx, v))
    m_h0 = matrix_of_map(lambda x: schouten(lam0, x),
                         bases["h0_theta"], bases["h0_sq"], red0, ctx.registry)
    return EP1Matrices(ctx, lam0, m_h1, m_h0, cokernel_space(m_h0))


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


def ep1_h1_model(mats: EP1Matrices):
    """Cokernel representative plus kernel elements; dimension data."""
    ctx, m_h1, coker = mats.ctx, mats.m_h1, mats.coker
    kers = kernel_basis(m_h1)
    return {
        "ctx": ctx,
        "coker_space": coker,
        "ker_space": quotient_space((), kers, m_h1.n_cols, ctx.registry),
        "dim_h1": len(coker.reps) + len(kers),
        "dim_h2": m_h1.n_rows - (m_h1.n_cols - len(kers)),
    }


def ep1_ks_matrix(sol: MCSolution, model) -> list[list[LaurentPoly]]:
    """Derivatives of the solution at t = 0, in the H1 model coordinates."""
    ctx = model["ctx"]
    reg = ctx.registry
    zero_t = {t: LaurentPoly.const(reg, 0) for t in sol.params}
    columns = []
    for tname in sol.params:
        el = sol.element().map_coefficients(
            lambda p: p.partial(tname).substitute(zero_t))
        biv = el.part(())
        form = el.part(("z",))
        coker = quotient_coords(model["coker_space"], _ep1_sq_coords(ctx, biv))
        ker = quotient_coords(model["ker_space"], _ep1_theta_coords(ctx, form))
        columns.append(coker + ker)
    n = len(columns[0])
    return [[columns[j][i] for j in range(len(columns))] for i in range(n)]


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
    if a == 0 and b == 0 and c == 0:
        ctx = ep1_context()
        witness_a = ctx.mv(ctx.const(1), ("z", "xi"))
        witness_b = ctx.formed(ctx.mv(ctx.xi(), ("xi",)), ("z",))
        cls = schouten_formed(ctx.formed(witness_a), witness_b)
        if cls.is_zero():
            raise AssertionError("witness bracket vanished")
        return Certificate(
            "ExP1", "zero", OBSTRUCTED,
            witness={"a": str(witness_a), "b": str(witness_b)},
            class_repr=str(cls),
            data={"dim_h1": 7, "dim_h2": 3},
        )
    mats = ep1_bracket_matrices(a, b, c)
    sol = ep1_mc_solution(mats)
    defect = sol.defect()
    if not defect.is_zero():
        raise AssertionError("Maurer-Cartan defect did not vanish")
    model = ep1_h1_model(mats)
    rows = ep1_ks_matrix(sol, model)
    ks = LinMap(LabeledBasis("t", sol.params),
                LabeledBasis("H1", tuple(f"c{i}" for i in range(len(rows)))),
                rows, mats.ctx.registry)
    if generic_rank(ks) != model["dim_h1"]:
        raise AssertionError("tangent map is not onto first cohomology")
    return Certificate(
        "ExP1", "nonzero", UNOBSTRUCTED_MC,
        reason="verified polynomial Maurer-Cartan solution",
        data={"dim_h1": model["dim_h1"], "dim_h2": model["dim_h2"]},
    )


# ----------------------------------------------------------------------
# torus times the projective line

TP1_PARAMS = ("D", "A", "B", "C", "k", "F0", "F1", "F2",
              "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "s")


def tp1_context() -> ChartFrame:
    """The stored TxP1 frame."""
    return _stored("TxP1")[0]


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


def _tp1_xi_coords(ctx, poly, count=3):
    params = ctx.registry.param_vars
    if not poly.uses_only(("xi",) + tuple(params)):
        raise NotInSpan("coefficient must be constant along the torus factor")
    buckets = poly.coefficients_in("xi")
    if any(k not in range(count) for k in buckets):
        raise NotInSpan("xi-degree too high")
    zero = LaurentPoly.zero(ctx.registry)
    return [buckets.get(k, zero) for k in range(count)]


def tp1_sq_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    """Coordinates in the 7-element global bivector basis."""
    params = ctx.registry.param_vars
    c12 = mv.coefficient(("z1", "z2"))
    if not c12.uses_only(params):
        raise NotInSpan("dz1^dz2 coefficient must be constant")
    out = [c12]
    out += _tp1_xi_coords(ctx, mv.coefficient(("z2", "xi")))
    # basis stores dxi ^ dz1 = -(dz1 ^ dxi)
    out += [-p for p in _tp1_xi_coords(ctx, mv.coefficient(("z1", "xi")))]
    return out


def tp1_theta_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    params = ctx.registry.param_vars
    out = []
    for v in ("z1", "z2"):
        c = mv.coefficient((v,))
        if not c.uses_only(params):
            raise NotInSpan("torus directions must have constant coefficients")
        out.append(c)
    out += _tp1_xi_coords(ctx, mv.coefficient(("xi",)))
    return out


def tp1_cube_coords(ctx, mv: MultiVector) -> list[LaurentPoly]:
    return _tp1_xi_coords(ctx, mv.coefficient(("z1", "z2", "xi")))


class TP1Matrices(Frozen):
    """The bracket maps of lam0 on the bases, built once per structure:
    H0(Theta) -> H0(wedge2), H0(wedge2) -> H0(wedge3) and
    H1(Theta) -> H1(wedge2)."""

    __slots__ = ("ctx", "lam0", "bases", "m_h0", "m_sq_cube", "m_h1")

    def __init__(self, ctx: ChartFrame, lam0: MultiVector, bases: dict, m_h0: LinMap,
                 m_sq_cube: LinMap, m_h1: LinMap):
        _set(self, "ctx", ctx)
        _set(self, "lam0", lam0)
        _set(self, "bases", bases)
        _set(self, "m_h0", m_h0)
        _set(self, "m_sq_cube", m_sq_cube)
        _set(self, "m_h1", m_h1)


def tp1_matrices(ctx, lam0) -> TP1Matrices:
    """The bracket maps of lam0; `ctx` is tp1_context()."""
    bases = _stored("TxP1")[1]
    lam0f = FormedMultiVector.of(lam0, ctx.dbar)

    def red_sq_formed(f: FormedMultiVector):
        out = []
        for g in ("z1", "z2"):
            out += tp1_sq_coords(ctx, f.part((g,)))
        return out

    m_h0 = matrix_of_map(lambda x: schouten(lam0, x), bases["h0_theta"],
                         bases["h0_sq"], Reducer("sq coords", lambda v: tp1_sq_coords(ctx, v)),
                         ctx.registry)
    m_sq_cube = matrix_of_map(lambda x: schouten(lam0, x), bases["h0_sq"],
                              bases["h0_cube"], Reducer("cube coords", lambda v: tp1_cube_coords(ctx, v)),
                              ctx.registry)
    m_h1 = matrix_of_map(lambda x: schouten_formed(lam0f, x), bases["h1_theta"],
                         bases["h1_sq"], Reducer("formed sq coords", red_sq_formed),
                         ctx.registry)
    return TP1Matrices(ctx, lam0, bases, m_h0, m_sq_cube, m_h1)


def tp1_dims(mats: TP1Matrices) -> dict:
    bases = mats.bases
    r0 = generic_rank(mats.m_h0)
    middle_ker = len(bases["h0_sq"]) - generic_rank(mats.m_sq_cube)
    h1_block = middle_ker - r0
    ker1 = len(bases["h1_theta"]) - generic_rank(mats.m_h1)
    return {
        "dim_h0": len(bases["h0_theta"]) - r0,
        "dim_h1": h1_block + ker1,
        "coker_block": h1_block,
        "ker_block": ker1,
    }


def tp1_mc_solution(mats: TP1Matrices, f_coeffs=None) -> MCSolution:
    """The corrected class-2 solution, fully symbolic in t0..t8."""
    ctx, lam0, m_h0 = mats.ctx, mats.lam0, mats.m_h0
    kk = lam0.coefficient(("z2", "xi"))  # the K polynomial, zero off class 2
    if kk.is_zero():
        raise ConstraintViolation("polynomial solutions are built on class 2")
    kpar = -lam0.coefficient(("z1", "xi")).exact_div(kk)
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
    K = kk
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


def tp1_ks_matrix(sol: MCSolution, mats: TP1Matrices) -> list[list[LaurentPoly]]:
    """Tangent directions of the solution in the 9-dimensional H1 model;
    `mats` are the bracket maps of the solution's lambda0."""
    ctx, lam0, m_h0, m_h1 = mats.ctx, sol.lambda0, mats.m_h0, mats.m_h1
    reg = ctx.registry
    # quotient representatives for the bivector block: dz1^dz2, the
    # F-direction, and K dxi^dz1
    kk = lam0.coefficient(("z2", "xi"))
    kpar = -lam0.coefficient(("z1", "xi")).exact_div(kk)
    zero_t = {f"t{i}": LaurentPoly.const(reg, 0) for i in range(9)}
    dbeta0 = sol.beta.part(()).map_coefficients(lambda p: p.partial("t2").substitute(zero_t))
    F = dbeta0.coefficient(("z2", "xi"))
    reps = [
        ctx.mv(ctx.const(1), ("z1", "z2")),
        ctx.mv(F, ("z2", "xi")) - ctx.mv(kpar * F, ("z1", "xi")),
        -ctx.mv(kk, ("z1", "xi")),
    ]
    coker = quotient_space(m_h0.columns(), [tp1_sq_coords(ctx, r) for r in reps],
                           m_h0.n_rows, reg)
    kers = quotient_space((), kernel_basis(m_h1), m_h1.n_cols, reg)
    columns = []
    for tname in sol.params:
        el = sol.element().map_coefficients(lambda p: p.partial(tname).substitute(zero_t))
        biv = el.part(())
        ccoords = quotient_coords(coker, tp1_sq_coords(ctx, biv))
        fcoords = []
        for g in ("z1", "z2"):
            fcoords += tp1_theta_coords(ctx, el.part((g,)))
        columns.append(ccoords + quotient_coords(kers, fcoords))
    n = len(columns[0])
    return [[columns[j][i] for j in range(len(columns))] for i in range(n)]


def tp1_classify(cls: TP1PoissonClass) -> Certificate:
    ctx = tp1_context()
    lam0 = tp1_lambda0(ctx, cls)
    if not schouten(lam0, lam0).is_zero():
        raise ConstraintViolation("the bivector is not Poisson")
    if cls.class_id == 1:
        dims = tp1_dims(tp1_matrices(ctx, lam0))
        if dims["dim_h1"] != 17:
            raise AssertionError("class-1 first cohomology should have dimension 17")
        return Certificate(
            "TxP1", "class-1", OBSTRUCTED,
            reason="obstructed already in complex deformations; the bracket "
                   "differentials vanish so deformations of the complex "
                   "structure embed untouched",
            data={"dim_h1": dims["dim_h1"]},
        )
    if cls.class_id == 3:
        lam0 = tp1_lambda0(ctx, _swap_to_class2(cls))
    mats = tp1_matrices(ctx, lam0)
    sol = tp1_mc_solution(mats)
    pieces = tp1_integrability(sol)
    for name, val in pieces.items():
        if not val.is_zero():
            raise AssertionError(f"integrability piece {name} did not vanish")
    rows = tp1_ks_matrix(sol, mats)
    ks = LinMap(LabeledBasis("t", sol.params),
                LabeledBasis("H1", tuple(f"c{i}" for i in range(len(rows)))),
                rows, ctx.registry)
    if generic_rank(ks) != 9:
        raise AssertionError("tangent map does not fill the 9 directions")
    dims = tp1_dims(mats)
    if dims["dim_h1"] != 9:
        raise AssertionError("expected dim H1 = 9 on this class")
    return Certificate(
        "TxP1", f"class-{cls.class_id}", UNOBSTRUCTED_MC,
        reason="verified polynomial Maurer-Cartan solution",
        data={"dim_h1": dims["dim_h1"]},
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
