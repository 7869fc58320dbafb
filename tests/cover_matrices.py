"""The whole truncated Hopf cover operator id - f_*, the oracle of the block
lemma in `poissonlab.hopf`'s docstring.

A cover model builds only the weight-0 block of id - f_*.  Here the
operator is built on every field of a grade up to a degree cap, as sparse
columns, with the support facts the lemma proves checked on them: no
entry joins two weights, no diagonal entry off weight 0 is zero, and the
off-diagonal pattern is acyclic, so the operator is triangular up to a
permutation.  `cover_matrix` gives a dense view for tests at small caps.
`weight0_fields` gives a truncated space's weight-0 fields: the
weight-0 space truncated at the cap, which lacks a field below p + 1.
"""

from graphlib import CycleError, TopologicalSorter

from poissonlab import hopf
from poissonlab.hopf import FRAMES
from poissonlab.laurent import LaurentPoly
from poissonlab.linalg import (LabeledBasis, LinMap, NotInSpan, kernel_basis,
                               quotient_coords, quotient_space)
from poissonlab.multivector import MultiVector, combination, pushforward
from poissonlab.rational import ONE


class TruncatedSpace:
    """The fields z^mu w^nu e of one grade, e a frame, up to total degree
    `cap`.  `index` maps (component, mu, nu) to the field's position in
    `basis`, `weights` holds each field's weighted degree, and `resonant`
    the positions of weight 0."""

    def __init__(self, grade, cap, basis, index, weights):
        self.grade = grade
        self.cap = cap
        self.basis = basis
        self.index = index
        self.weights = weights
        self.resonant = tuple(k for k, wt in enumerate(weights) if not wt)


def oracle_cap(ctx) -> int:
    """The oracle's own truncation degree: two above p + 1, the largest
    degree of a weight-0 field."""
    return ctx.p + 3


def low_degree(poly: LaurentPoly, cap: int) -> LaurentPoly:
    """The terms of `poly` of total (z, w) degree at most `cap`."""
    # z and w are the variables with indices 0 and 1
    return LaurentPoly._of_terms(poly.registry, {
        key: coeff for key, coeff in poly.terms.items()
        if sum(e for i, e in key if i < 2) <= cap})


def monomials_upto(cap):
    for d in range(cap + 1):
        for mu in range(d, -1, -1):
            yield mu, d - mu


def truncated_space(ctx, grade, cap) -> TruncatedSpace:
    """The fields of one grade up to degree `cap`; z^mu w^nu e has weight
    wt(z) mu + wt(w) nu - wt(e), where d/dz ^ d/dw weighs wt(z) + wt(w)."""
    wt = (ctx.p, 1)
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


def weight0_fields(space) -> tuple:
    """The weight-0 fields of a truncated space, in its order."""
    return tuple(space.basis[k] for k in space.resonant)


def mono_coords(ctx, space):
    """Coordinates in the truncated monomial basis, as parameter polynomials."""
    reg, index, n = ctx.registry, space.index, len(space.basis)
    zero = LaurentPoly.zero(reg)

    def fn(v):
        coords = [zero] * n
        for comp, poly in v.components.items():
            for key, coeff in poly.terms.items():
                mu, nu, rest = hopf._split(key)
                k = index.get((comp, mu, nu))
                if k is None:
                    raise NotInSpan("field not inside the truncated monomial space")
                coords[k] = coords[k] + LaurentPoly._of_terms(reg, {rest: coeff})
        return coords

    return fn


def monomial_images(ctx, cap):
    """The images (z^mu w^nu) o f^-1 of the monomials up to degree `cap`,
    in `monomials_upto` order, each truncated at the cap.

    Each image is that of an earlier monomial times f^-1(z) or f^-1(w).
    The contractions never lower total degree, so truncating every
    product as it is formed loses no term of degree at most the cap."""
    inv = ctx.contraction.inverse
    images = {(0, 0): ctx.const(1)}
    for mu, nu in list(monomials_upto(cap))[1:]:
        prev, var = ((mu - 1, nu), "z") if mu else ((0, nu - 1), "w")
        images[mu, nu] = low_degree(images[prev] * inv[var], cap)
    return list(images.values())


def cover_columns(ctx, space, images):
    """The columns of id - f_* on `space`, each as {row: nonzero entry},
    from f_*(g * e) = (g o f^-1) * f_*(e): each frame is pushed forward
    once and multiplied by the monomial `images`, and each term of a
    product at most the cap goes straight to its row."""
    cap, index, reg = space.cap, space.index, ctx.registry
    cols = []
    # truncated_space lists, for each frame, its monomials in monomials_upto order
    for comp in FRAMES[space.grade - 1]:
        frame = pushforward(ctx.contraction, MultiVector._of(ctx.chart, reg, {comp: ctx.const(1)}))
        for image in images:
            col = {}
            for fcomp, coeff in frame.components.items():
                for key, c in (image * coeff).terms.items():
                    mu, nu, rest = hopf._split(key)
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


def check_supports(space, cols):
    """Raise RuntimeError unless the column supports join no two weights,
    hold every diagonal entry off weight 0 and form an acyclic pattern:
    the facts that make every block off weight 0 invertible."""
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


def id_minus_fstar(ctx, space):
    """The checked sparse columns of id - f_* on the whole truncated `space`."""
    cols = cover_columns(ctx, space, monomial_images(ctx, space.cap))
    check_supports(space, cols)
    return cols


def cover_matrix(ctx, space) -> LinMap:
    """id - f_* on `space` as a dense square matrix."""
    cols = id_minus_fstar(ctx, space)
    zero = LaurentPoly.zero(ctx.registry)
    rows = [[zero] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, entry in col.items():
            rows[i][j] = entry
    return LinMap(space.basis, space.basis, rows, ctx.registry)


def full_kernel(ctx, grade, cap) -> list:
    """The kernel of the whole truncated id - f_*, by elimination of its
    dense matrix once the supports are checked."""
    space = truncated_space(ctx, grade, cap)
    mat = cover_matrix(ctx, space)
    return [combination(v, space.basis) for v in kernel_basis(mat)]


def weight0_block(ctx, space, cols):
    """The rows of the weight-0 block, read off the sparse columns."""
    res = space.resonant
    zero = LaurentPoly.zero(ctx.registry)
    return tuple(tuple(cols[j].get(i, zero) for j in res) for i in res)


def full_classes(ctx, space, reps):
    """Class coordinates of a field on `reps`, modulo the image of the
    whole truncated id - f_*.  The operator is block diagonal by weight
    (checked), so a field splits by weight.  Each block off weight 0 must
    eliminate to full rank, else NotInSpan: then its image holds that
    weight's part of every field, and a field's class is that of its
    weight-0 part, solved against the weight-0 columns and `reps`."""
    cols = id_minus_fstar(ctx, space)
    mono = mono_coords(ctx, space)
    zero = LaurentPoly.zero(ctx.registry)
    for wt in sorted(set(space.weights) - {0}):
        idx = [k for k, w in enumerate(space.weights) if w == wt]
        block = [[cols[j].get(i, zero) for i in idx] for j in idx]
        if quotient_space(block, (), len(idx), ctx.registry).rank < len(idx):
            raise NotInSpan(f"the block of weight {wt} is singular")
    res = space.resonant
    block = [[cols[j].get(i, zero) for i in res] for j in res]
    quot = quotient_space(block, [[r[k] for k in res] for r in map(mono, reps)], len(res),
                          ctx.registry)

    def fn(v):
        coords = mono(v)
        return quotient_coords(quot, [coords[k] for k in res])

    return fn


def triangular_order(mat: LinMap) -> tuple[int, ...]:
    """The indices of a square matrix ordered so that i comes before j
    whenever entry (i, j) is nonzero; raises graphlib.CycleError if the
    nonzero pattern has a cycle."""
    graph = {j: {i for i in range(mat.n_rows) if i != j and mat.rows[i][j].terms}
             for j in range(mat.n_cols)}
    return tuple(TopologicalSorter(graph).static_order())
