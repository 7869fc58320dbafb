"""Dense views of the Hopf cover operator id - f_*, for tests that read it
as a matrix; `hopf.id_minus_fstar` itself gives sparse columns."""

from graphlib import TopologicalSorter

from poissonlab import hopf
from poissonlab.laurent import LaurentPoly
from poissonlab.linalg import LinMap


def cover_matrix(ctx, space) -> LinMap:
    """id - f_* on `space` as a dense square matrix."""
    cols = hopf.id_minus_fstar(ctx, space, hopf._monomial_images(ctx, space.cap))
    zero = LaurentPoly.zero(ctx.registry)
    rows = [[zero] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, entry in col.items():
            rows[i][j] = entry
    return LinMap(space.basis, space.basis, rows, ctx.registry)


def triangular_order(mat: LinMap) -> tuple[int, ...]:
    """The indices of a square matrix ordered so that i comes before j
    whenever entry (i, j) is nonzero; raises graphlib.CycleError if the
    nonzero pattern has a cycle."""
    graph = {j: {i for i in range(mat.n_rows) if i != j and mat.rows[i][j].terms}
             for j in range(mat.n_cols)}
    return tuple(TopologicalSorter(graph).static_order())
